#include "data/loaders.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <vector>

#include "util/failpoint.h"
#include "util/strings.h"

namespace bolton {

namespace {

struct LibsvmRow {
  int label;
  std::vector<SparseVector::Entry> entries;  // 0-based index -> value
};

Result<LibsvmRow> ParseLibsvmLine(const std::string& line, size_t line_no) {
  LibsvmRow row;
  std::istringstream in(line);
  std::string token;
  if (!(in >> token)) {
    return Status::InvalidArgument(
        StrFormat("line %zu: missing label", line_no));
  }
  auto label = ParseInt(token);
  if (!label.ok()) {
    // Some files carry real-valued labels; accept and round integral ones.
    auto as_double = ParseDouble(token);
    if (!as_double.ok() || !std::isfinite(as_double.value()) ||
        as_double.value() != std::floor(as_double.value())) {
      return Status::InvalidArgument(
          StrFormat("line %zu: non-integer label '%s'", line_no,
                    token.c_str()));
    }
    row.label = static_cast<int>(as_double.value());
  } else {
    row.label = static_cast<int>(label.value());
  }
  while (in >> token) {
    size_t colon = token.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument(
          StrFormat("line %zu: malformed feature '%s'", line_no,
                    token.c_str()));
    }
    auto idx = ParseInt(token.substr(0, colon));
    auto val = ParseDouble(token.substr(colon + 1));
    if (!idx.ok()) return idx.status().WithContext(StrFormat("line %zu", line_no));
    if (!val.ok()) return val.status().WithContext(StrFormat("line %zu", line_no));
    if (idx.value() < 1) {
      return Status::InvalidArgument(
          StrFormat("line %zu: libsvm indices are 1-based", line_no));
    }
    if (!std::isfinite(val.value())) {
      // strtod happily parses "nan"/"inf"; one such value poisons every
      // gradient, so reject at the source with full context.
      return Status::InvalidArgument(
          StrFormat("line %zu: non-finite value in feature '%s'", line_no,
                    token.c_str()));
    }
    row.entries.emplace_back(static_cast<size_t>(idx.value() - 1), val.value());
  }
  // A repeated index has no one value; refuse it rather than let one copy
  // win.
  std::sort(row.entries.begin(), row.entries.end());
  const auto repeat = std::adjacent_find(
      row.entries.begin(), row.entries.end(),
      [](const auto& a, const auto& b) { return a.first == b.first; });
  if (repeat != row.entries.end()) {
    return Status::InvalidArgument(StrFormat(
        "line %zu: duplicate index %zu", line_no, repeat->first + 1));
  }
  return row;
}

// Every row of a LIBSVM file, with 0/1 binary labels already mapped to ±1.
struct LibsvmFile {
  size_t dim = 0;
  int num_classes = 2;
  std::vector<LibsvmRow> rows;
};

Result<LibsvmFile> ReadLibsvm(const std::string& path, size_t dim) {
  BOLTON_FAILPOINT("loader.open");
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);

  LibsvmFile file;
  std::vector<LibsvmRow>& rows = file.rows;
  size_t max_index = 0;
  bool saw_zero_label = false;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view stripped = StripWhitespace(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    BOLTON_FAILPOINT("loader.row");
    BOLTON_ASSIGN_OR_RETURN(LibsvmRow row,
                            ParseLibsvmLine(std::string(stripped), line_no));
    for (const auto& [idx, val] : row.entries) {
      (void)val;
      if (idx + 1 > max_index) max_index = idx + 1;
      if (dim != 0 && idx >= dim) {
        return Status::OutOfRange(
            StrFormat("line %zu: index %zu exceeds declared dim %zu", line_no,
                      idx + 1, dim));
      }
    }
    if (row.label == 0) saw_zero_label = true;
    rows.push_back(std::move(row));
  }
  if (rows.empty()) return Status::InvalidArgument(path + " holds no examples");

  file.dim = dim == 0 ? max_index : dim;
  int max_label = 0;
  for (const LibsvmRow& r : rows) max_label = std::max(max_label, r.label);
  // 0/1 files: map to ±1. Multiclass files keep labels as class ids.
  file.num_classes = std::max(2, max_label + (saw_zero_label ? 1 : 0));
  if (saw_zero_label && max_label <= 1) {
    for (LibsvmRow& r : rows) r.label = (r.label == 0) ? -1 : +1;
  }
  return file;
}

}  // namespace

Result<Dataset> LoadLibsvm(const std::string& path, size_t dim) {
  BOLTON_ASSIGN_OR_RETURN(LibsvmFile file, ReadLibsvm(path, dim));
  Dataset out(file.dim, file.num_classes);
  for (const LibsvmRow& r : file.rows) {
    Vector x(file.dim);
    for (const auto& [idx, val] : r.entries) x[idx] = val;
    out.Add(Example{std::move(x), r.label});
  }
  return out;
}

Result<SparseDataset> LoadLibsvmSparse(const std::string& path, size_t dim) {
  BOLTON_ASSIGN_OR_RETURN(LibsvmFile file, ReadLibsvm(path, dim));
  SparseDataset out(file.dim, file.num_classes);
  for (LibsvmRow& r : file.rows) {
    BOLTON_ASSIGN_OR_RETURN(
        SparseVector x,
        SparseVector::FromEntries(file.dim, std::move(r.entries)));
    out.Add(SparseExample{std::move(x), r.label});
  }
  return out;
}

Result<Dataset> LoadCsv(const std::string& path) {
  BOLTON_FAILPOINT("loader.open");
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);

  std::vector<std::vector<double>> rows;
  std::string line;
  size_t line_no = 0;
  size_t width = 0;
  bool header_skipped = false;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view stripped = StripWhitespace(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    BOLTON_FAILPOINT("loader.row");
    std::vector<std::string> fields = StrSplit(stripped, ',');
    std::vector<double> values;
    values.reserve(fields.size());
    // Scan every field so a malformed DATA row (some fields numeric) can
    // be told apart from a header row (no field numeric): only the latter
    // may be skipped, and only as the first row. The old rule silently
    // dropped any unparseable first row — including truncated data.
    size_t bad_column = 0;  // 1-based column of the first parse failure
    std::string bad_field;
    bool any_numeric = false;
    for (size_t c = 0; c < fields.size(); ++c) {
      auto v = ParseDouble(fields[c]);
      if (!v.ok()) {
        if (bad_column == 0) {
          bad_column = c + 1;
          bad_field = fields[c];
        }
        continue;
      }
      any_numeric = true;
      if (bad_column == 0) {
        if (!std::isfinite(v.value())) {
          // strtod accepts "nan"/"inf"; one such field poisons the model.
          return Status::InvalidArgument(StrFormat(
              "line %zu, column %zu: non-finite value '%s'", line_no, c + 1,
              fields[c].c_str()));
        }
        values.push_back(v.value());
      }
    }
    if (bad_column != 0) {
      // At most ONE leading all-text row is a header; anything else
      // non-numeric is an error.
      if (rows.empty() && !any_numeric && !header_skipped) {
        header_skipped = true;
        continue;
      }
      return Status::InvalidArgument(
          StrFormat("line %zu, column %zu: non-numeric field '%s'", line_no,
                    bad_column, bad_field.c_str()));
    }
    if (width == 0) {
      width = values.size();
      if (width < 2) {
        return Status::InvalidArgument(
            StrFormat("line %zu: need at least 1 feature + label", line_no));
      }
    } else if (values.size() != width) {
      return Status::InvalidArgument(
          StrFormat("line %zu: expected %zu fields, got %zu", line_no, width,
                    values.size()));
    }
    rows.push_back(std::move(values));
  }
  if (rows.empty()) return Status::InvalidArgument(path + " holds no examples");

  int max_label = 0;
  bool saw_zero = false, saw_negative = false;
  for (const auto& r : rows) {
    double raw = r.back();
    if (raw != std::floor(raw)) {
      return Status::InvalidArgument("CSV labels must be integers");
    }
    int label = static_cast<int>(raw);
    max_label = std::max(max_label, label);
    saw_zero |= (label == 0);
    saw_negative |= (label < 0);
  }
  bool binary01 = saw_zero && !saw_negative && max_label <= 1;
  int num_classes =
      (binary01 || saw_negative) ? 2 : std::max(2, max_label + (saw_zero ? 1 : 0));

  Dataset out(width - 1, num_classes);
  for (auto& r : rows) {
    Vector x(width - 1);
    for (size_t i = 0; i + 1 < r.size(); ++i) x[i] = r[i];
    int label = static_cast<int>(r.back());
    if (binary01) label = (label == 0) ? -1 : +1;
    out.Add(Example{std::move(x), label});
  }
  return out;
}

Status SaveLibsvm(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  for (size_t i = 0; i < dataset.size(); ++i) {
    const Example& e = dataset[i];
    out << e.label;
    for (size_t j = 0; j < e.x.dim(); ++j) {
      if (e.x[j] != 0.0) out << ' ' << (j + 1) << ':' << e.x[j];
    }
    out << '\n';
  }
  if (!out) return Status::IOError("write failed for " + path);
  return Status::OK();
}

}  // namespace bolton
