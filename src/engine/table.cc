#include "engine/table.h"

#include <cstdio>
#include <fstream>
#include <numeric>
#include <vector>

#include "data/prefetch.h"
#include "random/permutation.h"
#include "util/strings.h"

namespace bolton {

namespace {

// Reads the rows of a shared Dataset in place. Shuffle() runs Fisher–Yates
// over `order_` rather than over the rows, so a scan visits
// (*rows_)[order_[k]], the row that a shuffle of the rows themselves with
// the same Rng would have put at k.
class MemoryTable final : public Table {
 public:
  explicit MemoryTable(std::shared_ptr<const Dataset> rows)
      : rows_(std::move(rows)) {}

  size_t num_rows() const override { return rows_->size(); }
  size_t dim() const override { return rows_->dim(); }
  StorageMode mode() const override { return StorageMode::kMemory; }

  Status Shuffle(Rng* rng) override {
    if (order_.empty()) {
      order_.resize(rows_->size());
      std::iota(order_.begin(), order_.end(), size_t{0});
    }
    ShuffleInPlace(&order_, rng);
    return Status::OK();
  }

  // A shuffled scan reads ahead along order_ as PSGD's batch loop does
  // (DESIGN.md §8): each row it reaches is a scattered Example and then
  // the features that Example points to.
  Status Scan(const RowFn& fn) const override {
    const Dataset& rows = *rows_;
    if (order_.empty()) {
      for (const Example& row : rows.examples()) fn(row);
      return Status::OK();
    }
    const size_t m = order_.size();
    for (size_t k = 0; k < m; ++k) {
      if (k + 2 * kPrefetchDistance < m) {
        PrefetchExample(rows[order_[k + 2 * kPrefetchDistance]]);
      }
      if (k + kPrefetchDistance < m) {
        PrefetchFeatures(rows[order_[k + kPrefetchDistance]], rows.dim());
      }
      fn(rows[order_[k]]);
    }
    return Status::OK();
  }

 private:
  std::shared_ptr<const Dataset> rows_;
  std::vector<size_t> order_;  // empty until the first Shuffle()
};

// Fixed-width binary row: dim feature doubles followed by the label as a
// double. Pages of `page_rows` rows are the I/O unit.
class DiskTable final : public Table {
 public:
  DiskTable(std::string path, size_t num_rows, size_t dim, size_t page_rows)
      : path_(std::move(path)),
        num_rows_(num_rows),
        dim_(dim),
        page_rows_(page_rows) {}

  ~DiskTable() override { std::remove(path_.c_str()); }

  size_t num_rows() const override { return num_rows_; }
  size_t dim() const override { return dim_; }
  StorageMode mode() const override { return StorageMode::kDisk; }

  Status Shuffle(Rng* rng) override;
  Status Scan(const RowFn& fn) const override;

  Status WriteAll(const Dataset& data);

 private:
  size_t RowWidth() const { return dim_ + 1; }

  std::string path_;
  size_t num_rows_;
  size_t dim_;
  size_t page_rows_;
};

Status DiskTable::WriteAll(const Dataset& data) {
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot create spill file " + path_);
  std::vector<double> row(RowWidth());
  for (size_t i = 0; i < data.size(); ++i) {
    const Example& e = data[i];
    for (size_t j = 0; j < dim_; ++j) row[j] = e.x[j];
    row[dim_] = static_cast<double>(e.label);
    out.write(reinterpret_cast<const char*>(row.data()),
              static_cast<std::streamsize>(row.size() * sizeof(double)));
  }
  if (!out) return Status::IOError("write failed for " + path_);
  return Status::OK();
}

Status DiskTable::Scan(const RowFn& fn) const {
  std::ifstream in(path_, std::ios::binary);
  if (!in) return Status::IOError("cannot open spill file " + path_);
  const size_t row_width = RowWidth();
  std::vector<double> page(page_rows_ * row_width);
  size_t remaining = num_rows_;
  while (remaining > 0) {
    size_t batch = std::min(page_rows_, remaining);
    in.read(reinterpret_cast<char*>(page.data()),
            static_cast<std::streamsize>(batch * row_width * sizeof(double)));
    if (!in) return Status::IOError("short read from " + path_);
    for (size_t r = 0; r < batch; ++r) {
      const double* base = page.data() + r * row_width;
      Example e;
      e.x = Vector(std::vector<double>(base, base + dim_));
      e.label = static_cast<int>(base[dim_]);
      fn(e);
    }
    remaining -= batch;
  }
  return Status::OK();
}

Status DiskTable::Shuffle(Rng* rng) {
  // Two-pass external shuffle (uniform given each bucket fits in memory):
  //   pass 1 scatters rows into B temp buckets at random;
  //   pass 2 loads each bucket, Fisher–Yates shuffles it, and appends the
  //   buckets in random order to the new table file.
  constexpr size_t kMaxBuckets = 64;
  const size_t buckets =
      std::min(kMaxBuckets, std::max<size_t>(1, num_rows_ / page_rows_));
  const size_t row_width = RowWidth();

  std::vector<std::string> bucket_paths(buckets);
  std::vector<std::ofstream> bucket_files(buckets);
  for (size_t b = 0; b < buckets; ++b) {
    bucket_paths[b] = StrFormat("%s.bucket%zu", path_.c_str(), b);
    bucket_files[b].open(bucket_paths[b], std::ios::binary | std::ios::trunc);
    if (!bucket_files[b]) {
      return Status::IOError("cannot create " + bucket_paths[b]);
    }
  }

  // Pass 1: scatter.
  Status scatter_status = Status::OK();
  std::vector<double> row(row_width);
  {
    std::ifstream in(path_, std::ios::binary);
    if (!in) return Status::IOError("cannot open spill file " + path_);
    for (size_t i = 0; i < num_rows_; ++i) {
      in.read(reinterpret_cast<char*>(row.data()),
              static_cast<std::streamsize>(row_width * sizeof(double)));
      if (!in) return Status::IOError("short read during shuffle");
      size_t b = rng->UniformInt(buckets);
      bucket_files[b].write(
          reinterpret_cast<const char*>(row.data()),
          static_cast<std::streamsize>(row_width * sizeof(double)));
    }
  }
  for (auto& f : bucket_files) {
    f.close();
    if (!f) scatter_status = Status::IOError("bucket write failed");
  }
  if (!scatter_status.ok()) return scatter_status;

  // Pass 2: shuffle each bucket in memory, append in random order.
  std::string shuffled_path = path_ + ".shuffled";
  std::ofstream out(shuffled_path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot create " + shuffled_path);
  std::vector<size_t> bucket_order = RandomPermutation(buckets, rng);
  for (size_t b : bucket_order) {
    std::ifstream in(bucket_paths[b], std::ios::binary | std::ios::ate);
    if (!in) return Status::IOError("cannot reopen " + bucket_paths[b]);
    auto bytes = static_cast<size_t>(in.tellg());
    in.seekg(0);
    size_t rows_in_bucket = bytes / (row_width * sizeof(double));
    std::vector<std::vector<double>> bucket_rows(rows_in_bucket);
    for (auto& r : bucket_rows) {
      r.resize(row_width);
      in.read(reinterpret_cast<char*>(r.data()),
              static_cast<std::streamsize>(row_width * sizeof(double)));
      if (!in) return Status::IOError("short bucket read");
    }
    ShuffleInPlace(&bucket_rows, rng);
    for (const auto& r : bucket_rows) {
      out.write(reinterpret_cast<const char*>(r.data()),
                static_cast<std::streamsize>(row_width * sizeof(double)));
    }
    std::remove(bucket_paths[b].c_str());
  }
  out.close();
  if (!out) return Status::IOError("write failed for " + shuffled_path);

  // rename(2) replaces the old table file atomically.
  if (std::rename(shuffled_path.c_str(), path_.c_str()) != 0) {
    return Status::IOError("cannot install shuffled table file");
  }
  return Status::OK();
}

}  // namespace

Result<Dataset> Table::ToDataset(int num_classes) const {
  Dataset out(dim(), num_classes);
  Status scan = Scan([&out](const Example& e) { out.Add(e); });
  BOLTON_RETURN_IF_ERROR(scan);
  return out;
}

Result<std::unique_ptr<Table>> MakeTable(std::shared_ptr<const Dataset> data,
                                         StorageMode mode,
                                         const std::string& spill_path,
                                         size_t page_rows) {
  if (data == nullptr || data->empty()) {
    return Status::InvalidArgument("empty dataset");
  }
  if (mode == StorageMode::kDisk) {
    return MakeTable(*data, mode, spill_path, page_rows);
  }
  return std::unique_ptr<Table>(new MemoryTable(std::move(data)));
}

Result<std::unique_ptr<Table>> MakeTable(const Dataset& data, StorageMode mode,
                                         const std::string& spill_path,
                                         size_t page_rows) {
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  if (mode == StorageMode::kMemory) {
    return MakeTable(std::make_shared<const Dataset>(data), mode);
  }
  if (spill_path.empty()) {
    return Status::InvalidArgument("disk tables need a spill_path");
  }
  if (page_rows < 1) return Status::InvalidArgument("page_rows must be >= 1");
  auto table = std::make_unique<DiskTable>(spill_path, data.size(), data.dim(),
                                           page_rows);
  BOLTON_RETURN_IF_ERROR(table->WriteAll(data));
  return std::unique_ptr<Table>(std::move(table));
}

}  // namespace bolton
