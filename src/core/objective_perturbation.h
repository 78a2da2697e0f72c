#ifndef BOLTON_CORE_OBJECTIVE_PERTURBATION_H_
#define BOLTON_CORE_OBJECTIVE_PERTURBATION_H_

#include <memory>

#include "core/privacy.h"
#include "data/dataset.h"
#include "optim/loss.h"
#include "optim/psgd.h"
#include "random/rng.h"
#include "util/result.h"

namespace bolton {

/// Objective perturbation (Chaudhuri, Monteleoni & Sarwate 2011 — the
/// paper's [13]) for L2-regularized logistic regression: the third style of
/// DP convex optimization §5 surveys. Instead of perturbing the output
/// (ours) or every update (SCS13/BST14), it perturbs the OBJECTIVE with a
/// random linear term and releases the exact minimizer of
///
///   J(w) = (1/m) Σ ℓ(w, z_i) + (λ'/2)‖w‖² + ⟨b, w⟩/m,
///
/// where ‖b‖ ~ Gamma(d, 2/ε') with a uniform direction, ε' = ε −
/// 2·ln(1 + c/(mλ)) (c = 1/4, the logistic loss's curvature bound), and
/// λ' is raised just enough to make ε' positive when λ is too small.
///
/// CAVEAT (the paper's §5 critique, reproduced here on purpose): the ε-DP
/// guarantee assumes the EXACT minimizer is released. This implementation
/// approximates it with many PSGD passes, so the guarantee is heuristic in
/// exactly the way the paper criticizes — which is the point of shipping
/// it: the bolt-on method's guarantee holds for whatever the black box
/// returns, this one's does not.
struct ObjectivePerturbationOptions {
  /// ε-DP budget (pure DP only — the classic mechanism).
  double epsilon = 1.0;
  /// Requested regularization λ; may be increased internally (see above).
  double lambda = 1e-3;
  /// PSGD passes used to approximate the minimizer.
  size_t passes = 50;
  size_t batch_size = 10;
};

struct ObjectivePerturbationOutput {
  /// The (approximate) minimizer of the perturbed objective.
  Vector model;
  /// ε' actually available for the noise term after the curvature charge.
  double epsilon_prime = 0.0;
  /// λ actually used (≥ options.lambda).
  double effective_lambda = 0.0;
  /// ‖b‖ drawn (diagnostic).
  double perturbation_norm = 0.0;
  PsgdStats stats;
};

/// CMS11's perturbed objective per example: the logistic loss plus
/// (λ/2)‖w‖² and the linear term ⟨b, w⟩/m, so its empirical risk over m
/// rows is J(w) above.
std::unique_ptr<LossFunction> MakePerturbedLogisticLoss(double lambda,
                                                        double radius,
                                                        Vector b, size_t m);

/// Runs objective perturbation for logistic regression. Requires ε > 0,
/// λ ≥ 0, non-empty unit-ball data.
Result<ObjectivePerturbationOutput> RunObjectivePerturbation(
    const Dataset& data, const ObjectivePerturbationOptions& options,
    Rng* rng);

}  // namespace bolton

#endif  // BOLTON_CORE_OBJECTIVE_PERTURBATION_H_
