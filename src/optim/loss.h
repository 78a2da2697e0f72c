#ifndef BOLTON_OPTIM_LOSS_H_
#define BOLTON_OPTIM_LOSS_H_

#include <memory>
#include <string>

#include "data/dataset.h"
#include "linalg/vector.h"
#include "util/result.h"

namespace bolton {

/// A per-example convex loss ℓ(w, (x, y)) together with the optimization
/// constants the paper's analysis consumes:
///
///  * `lipschitz()`     — L:  ‖∇ℓ(u) − ∇ℓ(v)‖-free bound ‖∇ℓ(w)‖ ≤ L.
///  * `smoothness()`    — β:  ‖∇ℓ(u) − ∇ℓ(v)‖ ≤ β‖u − v‖.
///  * `strong_convexity()` — γ: H(ℓ) ⪰ γI (0 when merely convex).
///
/// The constants follow the paper's §2 derivations, which assume every
/// feature vector is normalized to ‖x‖ ≤ 1 (Dataset::NormalizeToUnitBall)
/// and, when γ > 0, that hypotheses live in a ball of radius `radius()`.
class LossFunction {
 public:
  virtual ~LossFunction() = default;

  /// ℓ(w, example).
  virtual double Loss(const Vector& w, const Example& example) const = 0;

  /// Accumulates scale · ∇ℓ(w, example) into *grad (which must have w's
  /// dimension). Accumulation form avoids per-step allocations in the
  /// mini-batch inner loop.
  virtual void AddGradient(const Vector& w, const Example& example,
                           double scale, Vector* grad) const = 0;

  /// ∇ℓ(w, example) as a fresh vector.
  Vector Gradient(const Vector& w, const Example& example) const;

  virtual double lipschitz() const = 0;
  virtual double smoothness() const = 0;
  virtual double strong_convexity() const = 0;

  /// Radius R of the hypothesis ball used to derive the constants;
  /// +infinity when unconstrained (λ = 0 case).
  virtual double radius() const = 0;

  /// True when strong_convexity() > 0.
  bool IsStronglyConvex() const { return strong_convexity() > 0.0; }

  virtual std::string name() const = 0;
  virtual std::unique_ptr<LossFunction> Clone() const = 0;

  /// Mean loss over a dataset: the empirical risk L_S(w).
  double EmpiricalRisk(const Vector& w, const Dataset& dataset) const;
};

/// Numerically stable logistic sigmoid 1 / (1 + e^{-z}). Every logistic
/// gradient (dense, sparse, objective perturbation) calls this one, so they
/// round alike.
double Sigmoid(double z);

/// Logistic loss, optionally L2-regularized (paper Eq. 1):
///   ℓ(w,(x,y)) = ln(1 + exp(−y⟨w,x⟩)) + (λ/2)‖w‖²,  y ∈ {±1}.
/// Constants (paper §2): λ = 0 ⇒ L = β = 1, γ = 0;
/// λ > 0 with ‖w‖ ≤ R ⇒ L = 1 + λR, β = 1 + λ, γ = λ.
/// `radius` must be finite and positive when λ > 0.
Result<std::unique_ptr<LossFunction>> MakeLogisticLoss(double lambda,
                                                       double radius);

/// Huber-smoothed hinge loss for the SVM (paper Appendix B), optionally
/// L2-regularized. With z = y⟨w,x⟩ and smoothing width h:
///   ℓ = 0 if z > 1+h;  (1+h−z)²/(4h) if |1−z| ≤ h;  1−z if z < 1−h.
/// Constants: λ = 0 ⇒ L = 1, β = 1/(2h), γ = 0;
/// λ > 0 ⇒ L = 1 + λR, β = 1/(2h) + λ, γ = λ.
Result<std::unique_ptr<LossFunction>> MakeHuberSvmLoss(double h, double lambda,
                                                       double radius);

/// Squared loss (½(⟨w,x⟩ − y)²), an extension beyond the paper's two models
/// for regression-style analytics. With ‖x‖ ≤ 1, |y| ≤ 1 and ‖w‖ ≤ R:
/// L = R + 1 (+λR), β = 1 (+λ), γ = λ.
Result<std::unique_ptr<LossFunction>> MakeSquaredLoss(double lambda,
                                                      double radius);

}  // namespace bolton

#endif  // BOLTON_OPTIM_LOSS_H_
