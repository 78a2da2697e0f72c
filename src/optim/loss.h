#ifndef BOLTON_OPTIM_LOSS_H_
#define BOLTON_OPTIM_LOSS_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "data/dataset.h"
#include "linalg/vector.h"
#include "util/result.h"

namespace bolton {

/// A per-example convex loss of a linear model,
///
///   ℓ(w, (x, y)) = φ(⟨w, x⟩, y) + (λ/2)‖w‖² [+ a·⟨u, w⟩],
///
/// given by its scalar link φ (Value, Derivative), its λ and, for
/// objective perturbation only, a linear term a·⟨u, w⟩. The link is
/// virtual; λ and the linear term are held here, so a gradient makes one
/// virtual call. The PSGD step (optim/psgd.cc) reads only these. The
/// paper's analysis reads the optimization constants:
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

  /// φ(p, y) at prediction p = ⟨w, x⟩ and label y.
  virtual double Value(double prediction, double label) const = 0;

  /// ∂φ/∂p at (p, y): the data term's gradient in w is Derivative·x.
  virtual double Derivative(double prediction, double label) const = 0;

  /// λ of the (λ/2)‖w‖² term every example carries; 0 when unregularized.
  double lambda() const { return lambda_; }

  /// The linear term's vector u, or null when the loss has none.
  const Vector* linear_term() const {
    return linear_term_.has_value() ? &*linear_term_ : nullptr;
  }
  /// The linear term's weight a.
  double linear_weight() const { return linear_weight_; }

  /// ℓ(w, (x, y)).
  double Loss(const Vector& w, const Vector& x, double y) const;

  /// Accumulates scale · ∇ℓ(w, (x, y)) into *grad (which must have w's
  /// dimension): the x term (skipped when the derivative is 0), then λw
  /// when λ > 0, then a·u. This is the reference the fused PSGD step
  /// keeps per coordinate (linalg/simd.h).
  void AddGradient(const Vector& w, const Vector& x, double y, double scale,
                   Vector* grad) const;

  /// ∇ℓ(w, (x, y)) as a fresh vector.
  Vector Gradient(const Vector& w, const Vector& x, double y) const;

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

 protected:
  explicit LossFunction(double lambda) : lambda_(lambda) {}
  LossFunction(double lambda, Vector linear_term, double linear_weight)
      : lambda_(lambda),
        linear_term_(std::move(linear_term)),
        linear_weight_(linear_weight) {}

 private:
  double lambda_;
  std::optional<Vector> linear_term_;
  double linear_weight_ = 0.0;
};

/// The logistic link: φ(p, y) = ln(1 + e^{−yp}), and its derivative
/// −y·σ(−yp), both in numerically stable forms. Every logistic gradient
/// (dense, sparse, objective perturbation) calls these, so they round
/// alike.
double LogisticValue(double prediction, double label);
double LogisticDerivative(double prediction, double label);

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
