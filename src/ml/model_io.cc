#include "ml/model_io.h"

#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "util/atomic_file.h"
#include "util/failpoint.h"
#include "util/strings.h"

namespace bolton {

namespace {

constexpr char kMagic[] = "bolton-model v1";

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
  const size_t slash = path.rfind('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash + 1);
  return AtomicWriteFile(path + ".tmp", path, dir, out.str(), 0666);
}

struct ParsedModel {
  size_t num_classes;
  size_t dim;
  std::vector<Vector> weights;
};

Result<ParsedModel> ReadModelFile(const std::string& path) {
  BOLTON_FAILPOINT("model_io.load");
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);

  auto next_line = [&in](std::string* line) -> bool {
    while (std::getline(in, *line)) {
      std::string_view stripped = StripWhitespace(*line);
      if (stripped.empty() || stripped[0] == '#') continue;
      *line = std::string(stripped);
      return true;
    }
    return false;
  };

  std::string line;
  if (!next_line(&line) || line != kMagic) {
    return Status::InvalidArgument(path + " is not a bolton-model v1 file");
  }
  if (!next_line(&line)) return Status::InvalidArgument("truncated header");
  BOLTON_ASSIGN_OR_RETURN(int64_t num_classes, ParseInt(line));
  if (!next_line(&line)) return Status::InvalidArgument("truncated header");
  BOLTON_ASSIGN_OR_RETURN(int64_t dim, ParseInt(line));
  if (num_classes < 1 || dim < 1) {
    return Status::InvalidArgument("non-positive model dimensions");
  }

  ParsedModel model;
  model.num_classes = static_cast<size_t>(num_classes);
  model.dim = static_cast<size_t>(dim);
  model.weights.reserve(model.num_classes);
  for (size_t c = 0; c < model.num_classes; ++c) {
    Vector w(model.dim);
    for (size_t i = 0; i < model.dim; ++i) {
      if (!next_line(&line)) {
        return Status::InvalidArgument(
            StrFormat("truncated weights: expected %zu x %zu values",
                      model.num_classes, model.dim));
      }
      BOLTON_ASSIGN_OR_RETURN(w[i], ParseDouble(line));
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
