#ifndef BOLTON_ML_MODEL_IO_H_
#define BOLTON_ML_MODEL_IO_H_

#include <string>

#include "core/multiclass.h"
#include "linalg/vector.h"
#include "util/result.h"

namespace bolton {

/// Plain-text model persistence.
///
/// Format (one value per line, '#' comments allowed):
///   bolton-model v1
///   <num_classes>            (1 for a binary weight vector)
///   <dim>
///   <weight values, num_classes * dim lines>
///
/// Text keeps models diff-able and inspectable; doubles round-trip exactly
/// via max_digits10 formatting. Saves go through AtomicWriteFile
/// (util/atomic_file.h), so a crash or failed write mid-save leaves the
/// previous file at `path` intact. A privately trained model is safe to
/// persist and share — that is the point of differential privacy — but the
/// diagnostics in PrivateSgdOutput (noiseless model, noise norm) are NOT;
/// only the perturbed weights pass through here.

/// Saves a binary linear model.
Status SaveModel(const Vector& model, const std::string& path);

/// Saves a one-vs-all multiclass model.
Status SaveModel(const MulticlassModel& model, const std::string& path);

/// Loads a binary model; fails if the file holds a multiclass model.
Result<Vector> LoadBinaryModel(const std::string& path);

/// Loads any model as multiclass (a binary file yields one weight vector).
Result<MulticlassModel> LoadMulticlassModel(const std::string& path);

}  // namespace bolton

#endif  // BOLTON_ML_MODEL_IO_H_
