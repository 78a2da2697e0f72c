#include "data/loaders.h"

#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <vector>

#include "util/failpoint.h"
#include "util/strings.h"

namespace bolton {

namespace {

// A label written as an integer (`1`, `1.0`, `1e0`). INT_MAX is refused
// too, so that a class count max + 1 always fits in an int.
Result<int> IntegralLabel(double value, const std::string& text,
                          size_t line_no) {
  if (!std::isfinite(value) || value != std::floor(value)) {
    return Status::InvalidArgument(
        StrFormat("line %zu: non-integer label '%s'", line_no, text.c_str()));
  }
  if (value < INT_MIN || value >= INT_MAX) {
    return Status::InvalidArgument(StrFormat(
        "line %zu: label '%s' is outside int range", line_no, text.c_str()));
  }
  return static_cast<int>(value);
}

// This host's physical memory in bytes; SIZE_MAX when sysconf cannot tell.
size_t PhysicalMemoryBytes() {
  const long pages = sysconf(_SC_PHYS_PAGES);
  const long page_bytes = sysconf(_SC_PAGE_SIZE);
  return pages > 0 && page_bytes > 0
             ? static_cast<size_t>(pages) * static_cast<size_t>(page_bytes)
             : SIZE_MAX;
}

// Whether a × b × c bytes fit in `memory`; an overflowing product does not.
bool FitsInMemory(size_t a, size_t b, size_t c, size_t memory) {
  size_t bytes = 0;
  return !__builtin_mul_overflow(a, b, &bytes) &&
         !__builtin_mul_overflow(bytes, c, &bytes) && bytes <= memory;
}

// One rule for a file's labels, `lines[i]` naming the line of
// `(*labels)[i]`. A 0/1 file is first mapped to −1/+1. Then a file is
// binary if its labels lie in {−1, +1}, and multiclass if they are class
// ids ≥ 0, with K = max + 1 classes. Anything else is refused: a file
// with a negative label can only be binary, so the line named is its
// first label outside {−1, +1}. K classes cost K one-vs-all models of
// `dim` doubles and a K × K confusion matrix, so a K whose models or
// matrix exceed the host's memory (one stray label of 2·10^9) is refused
// too, naming the line of the largest label. Returns the class count.
Result<int> SettleLabels(std::vector<int>* labels,
                         const std::vector<size_t>& lines, size_t dim) {
  bool zero_one = true, plus_minus = true, has_zero = false;
  int min_label = INT_MAX, max_label = INT_MIN;
  for (int y : *labels) {
    zero_one = zero_one && (y == 0 || y == 1);
    plus_minus = plus_minus && (y == -1 || y == 1);
    has_zero = has_zero || y == 0;
    min_label = std::min(min_label, y);
    max_label = std::max(max_label, y);
  }
  if (zero_one && has_zero) {
    for (int& y : *labels) y = (y == 0) ? -1 : +1;
    return 2;
  }
  if (plus_minus) return 2;
  if (min_label >= 0) {
    const size_t classes = static_cast<size_t>(max_label) + 1;
    const size_t memory = PhysicalMemoryBytes();
    if (FitsInMemory(classes, dim, sizeof(double), memory) &&
        FitsInMemory(classes, classes, sizeof(size_t), memory)) {
      return max_label + 1;
    }
    const size_t i = static_cast<size_t>(
        std::find(labels->begin(), labels->end(), max_label) -
        labels->begin());
    return Status::OutOfRange(StrFormat(
        "line %zu: label %d makes %zu classes, whose one-vs-all models "
        "(dim %zu) and %zu x %zu confusion counts need more than this "
        "host's %zu bytes of memory",
        lines[i], max_label, classes, dim, classes, classes, memory));
  }
  size_t i = 0;  // some label lies outside {−1, +1}: find the first
  while ((*labels)[i] == -1 || (*labels)[i] == 1) ++i;
  return Status::InvalidArgument(StrFormat(
      "line %zu: label %d fits neither a binary file (labels -1/+1, or 0/1) "
      "nor a multiclass one (class ids >= 0)",
      lines[i], (*labels)[i]));
}

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
  auto label = ParseDouble(token);
  if (!label.ok()) {
    return Status::InvalidArgument(
        StrFormat("line %zu: non-integer label '%s'", line_no, token.c_str()));
  }
  BOLTON_ASSIGN_OR_RETURN(row.label,
                          IntegralLabel(label.value(), token, line_no));
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

// Every row of a LIBSVM file: entries[i], its label labels[i] (settled by
// SettleLabels) and the line lines[i] it came from.
struct LibsvmFile {
  size_t dim = 0;
  int num_classes = 2;
  size_t max_index_line = 0;  // the first line that holds index `dim`
  std::vector<std::vector<SparseVector::Entry>> entries;
  std::vector<int> labels;
  std::vector<size_t> lines;
};

Result<LibsvmFile> ReadLibsvm(const std::string& path, size_t dim) {
  BOLTON_FAILPOINT("loader.open");
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);

  LibsvmFile file;
  size_t max_index = 0;
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
      if (idx + 1 > max_index) {
        max_index = idx + 1;
        file.max_index_line = line_no;
      }
      if (dim != 0 && idx >= dim) {
        return Status::OutOfRange(
            StrFormat("line %zu: index %zu exceeds declared dim %zu", line_no,
                      idx + 1, dim));
      }
    }
    file.entries.push_back(std::move(row.entries));
    file.labels.push_back(row.label);
    file.lines.push_back(line_no);
  }
  if (file.entries.empty()) {
    return Status::InvalidArgument(path + " holds no examples");
  }
  file.dim = dim == 0 ? max_index : dim;
  BOLTON_ASSIGN_OR_RETURN(file.num_classes,
                          SettleLabels(&file.labels, file.lines, file.dim));
  return file;
}

// Dense rows of `dim` doubles cost rows × dim × 8 bytes up front; refuse a
// file whose one large index would ask for more than this host's memory,
// before allocating any of it.
Status CheckDenseSize(const LibsvmFile& file, bool dim_declared) {
  const size_t rows = file.entries.size();
  const size_t memory = PhysicalMemoryBytes();
  if (FitsInMemory(rows, file.dim, sizeof(double), memory)) {
    return Status::OK();
  }
  const std::string cause =
      dim_declared ? StrFormat("declared dim %zu", file.dim)
                   : StrFormat("line %zu: index %zu", file.max_index_line,
                               file.dim);
  return Status::OutOfRange(StrFormat(
      "%s makes %zu dense rows need more than this host's %zu bytes of "
      "memory (the sparse loader keeps such a file)",
      cause.c_str(), rows, memory));
}

}  // namespace

Result<Dataset> LoadLibsvm(const std::string& path, size_t dim) {
  BOLTON_ASSIGN_OR_RETURN(LibsvmFile file, ReadLibsvm(path, dim));
  BOLTON_RETURN_IF_ERROR(CheckDenseSize(file, dim != 0));
  Dataset out(file.dim, file.num_classes);
  for (size_t i = 0; i < file.entries.size(); ++i) {
    Vector x(file.dim);
    for (const auto& [idx, val] : file.entries[i]) x[idx] = val;
    out.Add(Example{std::move(x), file.labels[i]});
  }
  return out;
}

Result<SparseDataset> LoadLibsvmSparse(const std::string& path, size_t dim) {
  BOLTON_ASSIGN_OR_RETURN(LibsvmFile file, ReadLibsvm(path, dim));
  SparseDataset out(file.dim, file.num_classes);
  for (size_t i = 0; i < file.entries.size(); ++i) {
    BOLTON_ASSIGN_OR_RETURN(
        SparseVector x,
        SparseVector::FromEntries(file.dim, std::move(file.entries[i])));
    out.Add(SparseExample{std::move(x), file.labels[i]});
  }
  return out;
}

Result<Dataset> LoadCsv(const std::string& path) {
  BOLTON_FAILPOINT("loader.open");
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);

  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  std::vector<size_t> lines;
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
    BOLTON_ASSIGN_OR_RETURN(
        int label, IntegralLabel(values.back(), fields.back(), line_no));
    labels.push_back(label);
    lines.push_back(line_no);
    values.pop_back();
    rows.push_back(std::move(values));
  }
  if (rows.empty()) return Status::InvalidArgument(path + " holds no examples");
  BOLTON_ASSIGN_OR_RETURN(int num_classes,
                          SettleLabels(&labels, lines, width - 1));

  Dataset out(width - 1, num_classes);
  for (size_t r = 0; r < rows.size(); ++r) {
    out.Add(Example{Vector(std::move(rows[r])), labels[r]});
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
