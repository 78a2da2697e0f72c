#ifndef BOLTON_CORE_BST14_H_
#define BOLTON_CORE_BST14_H_

#include "core/privacy.h"
#include "data/dataset.h"
#include "optim/loss.h"
#include "optim/psgd.h"
#include "random/rng.h"
#include "util/result.h"

namespace bolton {

/// Options for the BST14 baseline with a constant number of epochs
/// (the paper's Algorithms 4 and 5).
struct Bst14Options {
  /// Total (ε, δ) budget. BST14 fundamentally requires δ > 0 (it depends on
  /// advanced composition of (ε, δ)-DP).
  PrivacyParams privacy;
  /// Number of passes k; the algorithm runs T = k·⌈m/b⌉ updates.
  size_t passes = 10;
  /// Mini-batch size b (straightforward extension mentioned in §4.1; the
  /// per-iteration localized sensitivity ι scales as 1/b²).
  size_t batch_size = 50;
  /// Hypothesis radius R for the projection Π_W and (Alg. 4) the step size.
  /// 0 selects the loss's own radius; the convex unconstrained experiments
  /// must supply one since Algorithm 4's η_t = 2R/(G√t) needs a finite R.
  double radius = 0.0;
};

/// Result of a BST14 run, including the solved noise calibration (useful
/// for tests and the EXPERIMENTS.md accounting).
struct Bst14Output {
  Vector model;
  PsgdStats stats;
  /// Per-iteration budget ε₁ solved from
  /// ε = Tε₁(e^{ε₁} − 1) + √(2T ln(1/δ₁))·ε₁ (line 5).
  double epsilon1 = 0.0;
  /// Amplified-by-subsampling per-iteration budget ε₂ = min(1, mε₁/2).
  double epsilon2 = 0.0;
  /// Per-coordinate noise variance σ² = 2 ln(1.25/δ₁)/ε₂² (line 7).
  double sigma_squared = 0.0;
};

/// Solves line 5 of Algorithms 4/5 for ε₁ by bisection:
/// find ε₁ > 0 with T·ε₁(e^{ε₁} − 1) + √(2T ln(1/δ₁))·ε₁ = ε.
/// The left side is strictly increasing in ε₁, so the root is unique.
Result<double> SolveBst14Epsilon1(double epsilon, double delta1, size_t T);

/// BST14's privacy precondition: δ > 0, since it relies on advanced
/// composition. FailedPrecondition otherwise.
Status CheckBst14Privacy(const PrivacyParams& privacy);

/// Convex BST14 with constant epochs (Algorithm 4): with-replacement SGD
/// where every update perturbs the gradient with N(0, σ²ι I_d) and steps
/// η_t = 2R/(G√t), G = √(dσ²ι + L²). Requires a convex (γ = 0) loss.
Result<Bst14Output> RunBst14Convex(const Dataset& data,
                                   const LossFunction& loss,
                                   const Bst14Options& options, Rng* rng);

/// Strongly convex BST14 with constant epochs (Algorithm 5): same noise,
/// steps η_t = 1/(γt). Requires γ > 0.
Result<Bst14Output> RunBst14StronglyConvex(const Dataset& data,
                                           const LossFunction& loss,
                                           const Bst14Options& options,
                                           Rng* rng);

/// Dispatches on loss.IsStronglyConvex().
Result<Bst14Output> RunBst14(const Dataset& data, const LossFunction& loss,
                             const Bst14Options& options, Rng* rng);

}  // namespace bolton

#endif  // BOLTON_CORE_BST14_H_
