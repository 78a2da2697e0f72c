#include "ml/model_io.h"

#include <iomanip>
#include <limits>
#include <sstream>

#include "util/atomic_file.h"
#include "util/failpoint.h"
#include "util/strings.h"

namespace bolton {

namespace {

constexpr char kMagic[] = "bolton-model v2";

/// Renders the whole file in memory and replaces `path` atomically, so a
/// crash or a failed write mid-save leaves the previous model intact.
Status WriteModelFile(const std::vector<const Vector*>& weights,
                      const std::string& path) {
  BOLTON_FAILPOINT("model_io.save");
  std::ostringstream out;
  out << kMagic << "\n";
  out << weights.size() << "\n";
  out << weights[0]->dim() << "\n";
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (const Vector* w : weights) {
    for (size_t i = 0; i < w->dim(); ++i) out << (*w)[i] << "\n";
  }
  std::string content = out.str();
  AppendChecksumLine(&content);
  return AtomicWriteFile(path, content, 0666);
}

struct ParsedModel {
  size_t num_classes;
  size_t dim;
  std::vector<Vector> weights;
};

Result<ParsedModel> ReadModelFile(const std::string& path) {
  BOLTON_FAILPOINT("model_io.load");
  BOLTON_ASSIGN_OR_RETURN(std::string body, ReadChecksummedFile(path, kMagic));
  // Every body line ends in '\n', so the split's last field is empty.
  std::vector<std::string> lines = StrSplit(body, '\n');
  lines.pop_back();
  if (lines.size() < 2) {
    return Status::InvalidArgument(path + ": truncated header");
  }
  BOLTON_ASSIGN_OR_RETURN(int64_t num_classes, ParseInt(lines[0]));
  BOLTON_ASSIGN_OR_RETURN(int64_t dim, ParseInt(lines[1]));
  if (num_classes < 1 || dim < 1) {
    return Status::InvalidArgument(path + ": non-positive model dimensions");
  }

  ParsedModel model;
  model.num_classes = static_cast<size_t>(num_classes);
  model.dim = static_cast<size_t>(dim);
  const size_t values = lines.size() - 2;
  if (values % model.dim != 0 || values / model.dim != model.num_classes) {
    return Status::InvalidArgument(
        StrFormat("%s: expected %zu x %zu weight values, found %zu",
                  path.c_str(), model.num_classes, model.dim, values));
  }
  model.weights.reserve(model.num_classes);
  size_t line = 2;
  for (size_t c = 0; c < model.num_classes; ++c) {
    Vector w(model.dim);
    for (size_t i = 0; i < model.dim; ++i) {
      BOLTON_ASSIGN_OR_RETURN(w[i], ParseDouble(lines[line++]));
    }
    model.weights.push_back(std::move(w));
  }
  return model;
}

}  // namespace

Status SaveModel(const Vector& model, const std::string& path) {
  if (model.empty()) return Status::InvalidArgument("empty model");
  return WriteModelFile({&model}, path);
}

Status SaveModel(const MulticlassModel& model, const std::string& path) {
  if (model.weights.empty()) return Status::InvalidArgument("empty model");
  std::vector<const Vector*> weights;
  weights.reserve(model.weights.size());
  for (const Vector& w : model.weights) {
    if (w.dim() != model.weights[0].dim()) {
      return Status::InvalidArgument("inconsistent per-class dimensions");
    }
    weights.push_back(&w);
  }
  return WriteModelFile(weights, path);
}

Result<Vector> LoadBinaryModel(const std::string& path) {
  BOLTON_ASSIGN_OR_RETURN(ParsedModel model, ReadModelFile(path));
  if (model.num_classes != 1) {
    return Status::InvalidArgument(
        StrFormat("%s holds a %zu-class model, not a binary weight vector",
                  path.c_str(), model.num_classes));
  }
  return std::move(model.weights[0]);
}

Result<MulticlassModel> LoadMulticlassModel(const std::string& path) {
  BOLTON_ASSIGN_OR_RETURN(ParsedModel parsed, ReadModelFile(path));
  MulticlassModel model;
  model.weights = std::move(parsed.weights);
  return model;
}

}  // namespace bolton
