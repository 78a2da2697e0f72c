#ifndef BOLTON_CORE_MULTICLASS_H_
#define BOLTON_CORE_MULTICLASS_H_

#include <functional>
#include <vector>

#include "core/privacy.h"
#include "data/dataset.h"
#include "linalg/vector.h"
#include "random/rng.h"
#include "util/result.h"

namespace bolton {

/// A one-vs-all multiclass linear model: one weight vector per class;
/// prediction is the argmax score (paper §4.3, the MNIST construction).
struct MulticlassModel {
  std::vector<Vector> weights;

  int num_classes() const { return static_cast<int>(weights.size()); }

  /// argmax_c ⟨w_c, x⟩. Requires at least one class and matching dims.
  int Predict(const Vector& x) const;
};

/// Trains one ±1 binary sub-model under the given (sub-)budget. Plug in the
/// bolt-on, SCS13, or BST14 trainer; for a noiseless baseline ignore the
/// budget.
using BinaryTrainFn = std::function<Result<Vector>(
    const Dataset& binary_view, const PrivacyParams& budget, Rng* rng)>;

/// Trains a K-class one-vs-all model, dividing the total (ε, δ) budget
/// evenly across the K binary sub-models by basic composition — exactly the
/// paper's MNIST strategy ("we used the simplest composition theorem, and
/// divide the privacy budget evenly", §4.3).
///
/// Classes train in order, class c on the c-th stream split from `rng`;
/// parallelism lives inside `train` (a sharded solve runs on the thread
/// pool). The first class that fails stops the run with its status.
Result<MulticlassModel> TrainOneVsAll(const Dataset& data,
                                      const PrivacyParams& total_budget,
                                      const BinaryTrainFn& train, Rng* rng);

}  // namespace bolton

#endif  // BOLTON_CORE_MULTICLASS_H_
