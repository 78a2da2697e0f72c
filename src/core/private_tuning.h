#ifndef BOLTON_CORE_PRIVATE_TUNING_H_
#define BOLTON_CORE_PRIVATE_TUNING_H_

#include <functional>
#include <vector>

#include "core/privacy.h"
#include "data/dataset.h"
#include "linalg/vector.h"
#include "random/rng.h"
#include "util/result.h"

namespace bolton {

/// One point of the hyperparameter grid tuned by Algorithm 3. The paper's
/// free parameters are the pass count k, mini-batch size b, and the L2
/// regularization strength λ (with R tied to 1/λ).
struct TuningCandidate {
  size_t passes = 10;
  size_t batch_size = 50;
  double lambda = 1e-4;
};

/// Builds the cartesian grid {passes} × {batch_sizes} × {lambdas} — the
/// "standard grid search" of §4.1.
std::vector<TuningCandidate> MakeTuningGrid(
    const std::vector<size_t>& passes, const std::vector<size_t>& batch_sizes,
    const std::vector<double>& lambdas);

/// Trains one hypothesis on a training portion with one candidate's
/// hyperparameters. The function must itself satisfy the DP guarantee
/// being claimed (pass the bolt-on/SCS13/BST14 trainers here).
using TuningTrainFn = std::function<Result<Vector>(
    const Dataset& portion, const TuningCandidate& candidate, Rng* rng)>;

/// Output of the private tuning run.
struct TuningOutput {
  /// The privately selected hypothesis.
  Vector model;
  /// Which candidate won (index into the grid).
  size_t selected_index = 0;
  /// Validation error counts χ_i of every candidate (diagnostic; data-
  /// dependent, do not release).
  std::vector<size_t> error_counts;
};

/// Algorithm 3 — private hyperparameter tuning.
///
/// Splits S into l+1 equal portions; trains hypothesis w_i on portion S_i
/// with candidate θ_i via `train`; counts sign errors χ_i (sign⟨w, x⟩ ≠ y)
/// on the held-out portion S_{l+1}; selects w_i with probability
/// ∝ exp(−ε χ_i / 2) (the exponential mechanism). Because the portions are
/// disjoint, parallel composition makes the whole procedure (ε, δ)-DP when
/// each training call is (ε, δ)-DP and the selection uses the same ε.
///
/// Requires at least l+1 examples and a non-empty grid.
Result<TuningOutput> PrivatelyTunedSgd(const Dataset& data,
                                       const std::vector<TuningCandidate>& grid,
                                       const PrivacyParams& privacy,
                                       const TuningTrainFn& train, Rng* rng);

/// The exponential-mechanism selection step of Algorithm 3 (line 5) on its
/// own: samples index i with probability ∝ exp(−ε χ_i / 2). Exposed so
/// callers with non-vector models (e.g., one-vs-all multiclass) can compose
/// their own split/train/count pipeline and still select privately.
/// Requires a non-empty count vector.
size_t SampleExponentialMechanism(const std::vector<size_t>& error_counts,
                                  double epsilon, Rng* rng);

/// Non-private grid search on a public validation set ("Tuning using Public
/// Data", §4.1): trains every candidate on `train_data` and returns the one
/// with the fewest validation sign errors. Only private if `validation` is
/// public data.
Result<TuningOutput> PublicGridSearch(const Dataset& train_data,
                                      const Dataset& validation,
                                      const std::vector<TuningCandidate>& grid,
                                      const TuningTrainFn& train, Rng* rng);

}  // namespace bolton

#endif  // BOLTON_CORE_PRIVATE_TUNING_H_
