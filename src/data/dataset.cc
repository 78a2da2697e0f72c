#include "data/dataset.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <type_traits>
#include <utility>

#include "random/permutation.h"
#include "util/logging.h"
#include "util/strings.h"

// Linux 6.1's synchronous collapse; glibc's headers before 2.37 lack it.
#ifndef MADV_COLLAPSE
#define MADV_COLLAPSE 25
#endif

namespace bolton {

namespace {

// The PMD page size of x86-64 and of arm64 with 4 KiB pages.
constexpr uintptr_t kHugePageBytes = uintptr_t{2} << 20;

// Collapses every 2 MiB page that holds row features, one madvise per run
// of adjacent pages. Rows allocated one after another (generated, loaded
// or copied) fill a span of pages, so the runs are that span; rows spread
// over several mappings leave out the pages between them, which hold
// other threads' stacks or arenas.
void CollapseRowPages(const std::vector<Example>& rows) {
  std::vector<uintptr_t> pages;  // page numbers, address / kHugePageBytes
  for (const Example& row : rows) {
    if (row.x.empty()) continue;
    const auto begin = reinterpret_cast<uintptr_t>(row.x.data());
    const uintptr_t last =
        (begin + row.x.dim() * sizeof(double) - 1) / kHugePageBytes;
    for (uintptr_t page = begin / kHugePageBytes; page <= last; ++page) {
      if (pages.empty() || pages.back() != page) pages.push_back(page);
    }
  }
  std::sort(pages.begin(), pages.end());
  pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
  for (size_t first = 0; first < pages.size();) {
    size_t end = first + 1;
    while (end < pages.size() && pages[end] == pages[end - 1] + 1) ++end;
    // A hint: EINVAL (no THP), EAGAIN/ENOMEM (no free 2 MiB block, a
    // page between mappings) leave the rows as they were.
    (void)madvise(reinterpret_cast<void*>(pages[first] * kHugePageBytes),
                  (end - first) * kHugePageBytes, MADV_COLLAPSE);
    first = end;
  }
}

}  // namespace

static_assert(std::is_nothrow_move_constructible_v<Dataset>);

void Dataset::Add(Example example) {
  BOLTON_CHECK(example.x.dim() == dim_);
  examples_.push_back(std::move(example));
  advised_.Reset();
}

void Dataset::Replace(size_t index, Example example) {
  BOLTON_CHECK(index < examples_.size());
  BOLTON_CHECK(example.x.dim() == dim_);
  examples_[index] = std::move(example);
  advised_.Reset();
}

void Dataset::AdviseRandomReads() const {
  // One load once done; the exchange lets one of racing first callers
  // act while the others go on reading.
  if (advised_.done.load() || advised_.done.exchange(true)) return;
  if (size() * dim() * sizeof(double) < kHugePageFloorBytes) return;
  CollapseRowPages(examples_);
}

void Dataset::NormalizeToUnitBall() {
  for (Example& e : examples_) {
    double n = e.x.Norm();
    if (n > 1.0) e.x *= (1.0 / n);
  }
}

double Dataset::MaxFeatureNorm() const {
  double max_norm = 0.0;
  for (const Example& e : examples_) {
    double n = e.x.Norm();
    if (n > max_norm) max_norm = n;
  }
  return max_norm;
}

Dataset Dataset::Subset(const std::vector<size_t>& indices) const {
  Dataset out(dim_, num_classes_);
  for (size_t idx : indices) {
    BOLTON_CHECK(idx < examples_.size());
    out.examples_.push_back(examples_[idx]);
  }
  return out;
}

std::pair<Dataset, Dataset> Dataset::SplitAt(size_t count) && {
  BOLTON_CHECK(count <= examples_.size());
  Dataset tail(dim_, num_classes_);
  tail.examples_.assign(std::make_move_iterator(examples_.begin() + count),
                        std::make_move_iterator(examples_.end()));
  examples_.resize(count);
  return {std::move(*this), std::move(tail)};
}

void Dataset::Shuffle(Rng* rng) { ShuffleInPlace(&examples_, rng); }

std::vector<Dataset> Dataset::SplitEven(size_t parts) const {
  BOLTON_CHECK(parts >= 1);
  BOLTON_CHECK(parts <= examples_.size());
  std::vector<Dataset> out;
  out.reserve(parts);
  size_t base = examples_.size() / parts;
  size_t extra = examples_.size() % parts;
  size_t begin = 0;
  for (size_t p = 0; p < parts; ++p) {
    size_t len = base + (p < extra ? 1 : 0);
    Dataset part(dim_, num_classes_);
    part.examples_.assign(examples_.begin() + begin,
                          examples_.begin() + begin + len);
    out.push_back(std::move(part));
    begin += len;
  }
  return out;
}

Dataset Dataset::OneVsAllView(int positive_class) const {
  Dataset out(dim_, 2);
  out.examples_ = examples_;
  for (Example& e : out.examples_) {
    e.label = (e.label == positive_class) ? +1 : -1;
  }
  return out;
}

std::string Dataset::Summary(const std::string& name) const {
  return StrFormat("%-16s m=%-8zu d=%-5zu classes=%-3d max||x||=%.4f",
                   name.c_str(), size(), dim(), num_classes(),
                   MaxFeatureNorm());
}

}  // namespace bolton
