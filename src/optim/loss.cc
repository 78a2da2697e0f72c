#include "optim/loss.h"

#include <cmath>
#include <limits>

#include "util/strings.h"

namespace bolton {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Validates the (lambda, radius) pair shared by all regularized losses.
Status ValidateRegularization(double lambda, double radius) {
  if (lambda < 0.0) return Status::InvalidArgument("lambda must be >= 0");
  if (lambda > 0.0 && !(radius > 0.0 && std::isfinite(radius))) {
    return Status::InvalidArgument(
        "strongly convex losses (lambda > 0) need a finite positive radius R "
        "to bound the Lipschitz constant (paper §2)");
  }
  if (radius <= 0.0) {
    return Status::InvalidArgument("radius must be > 0 (may be +inf)");
  }
  return Status::OK();
}

// Numerically stable logistic sigmoid 1 / (1 + e^{−z}).
double Sigmoid(double z) {
  // Both arms of the stable form, 1/(1 + e^{−z}) for z ≥ 0 and
  // e^z/(1 + e^z) below, evaluate e^{−|z|}; only the numerator differs.
  const double e = std::exp(-std::fabs(z));
  return (z >= 0.0 ? 1.0 : e) / (1.0 + e);
}

// Numerically stable ln(1 + e^z).
double Log1pExp(double z) {
  if (z > 0.0) return z + std::log1p(std::exp(-z));
  return std::log1p(std::exp(z));
}

class LogisticLoss final : public LossFunction {
 public:
  LogisticLoss(double lambda, double radius)
      : LossFunction(lambda), radius_(radius) {}

  double Value(double prediction, double label) const override {
    return LogisticValue(prediction, label);
  }
  double Derivative(double prediction, double label) const override {
    return LogisticDerivative(prediction, label);
  }

  // Paper §2: λ=0 ⇒ (L, β, γ) = (1, 1, 0); λ>0 ⇒ (1+λR, 1+λ, λ).
  double lipschitz() const override {
    return lambda() > 0.0 ? 1.0 + lambda() * radius_ : 1.0;
  }
  double smoothness() const override { return 1.0 + lambda(); }
  double strong_convexity() const override { return lambda(); }
  double radius() const override { return radius_; }

  std::string name() const override {
    return StrFormat("logistic(lambda=%g)", lambda());
  }
  std::unique_ptr<LossFunction> Clone() const override {
    return std::make_unique<LogisticLoss>(*this);
  }

 private:
  double radius_;
};

class HuberSvmLoss final : public LossFunction {
 public:
  HuberSvmLoss(double h, double lambda, double radius)
      : LossFunction(lambda), h_(h), radius_(radius) {}

  double Value(double prediction, double label) const override {
    const double z = label * prediction;
    if (z > 1.0 + h_) return 0.0;
    if (z < 1.0 - h_) return 1.0 - z;
    const double gap = 1.0 + h_ - z;
    return gap * gap / (4.0 * h_);
  }

  // dℓ/dz · y with z = y·p; y = ±1, so the product is exact.
  double Derivative(double prediction, double label) const override {
    const double z = label * prediction;
    double dz;
    if (z > 1.0 + h_) {
      dz = 0.0;
    } else if (z < 1.0 - h_) {
      dz = -1.0;
    } else {
      dz = -(1.0 + h_ - z) / (2.0 * h_);
    }
    return dz * label;
  }

  // Appendix B: L ≤ 1, β ≤ 1/(2h) for ‖x‖ ≤ 1; regularizer adds λR / λ / λ.
  double lipschitz() const override {
    return lambda() > 0.0 ? 1.0 + lambda() * radius_ : 1.0;
  }
  double smoothness() const override { return 1.0 / (2.0 * h_) + lambda(); }
  double strong_convexity() const override { return lambda(); }
  double radius() const override { return radius_; }

  std::string name() const override {
    return StrFormat("huber_svm(h=%g,lambda=%g)", h_, lambda());
  }
  std::unique_ptr<LossFunction> Clone() const override {
    return std::make_unique<HuberSvmLoss>(*this);
  }

 private:
  double h_;
  double radius_;
};

class SquaredLoss final : public LossFunction {
 public:
  SquaredLoss(double lambda, double radius)
      : LossFunction(lambda), radius_(radius) {}

  double Value(double prediction, double label) const override {
    const double r = prediction - label;
    return 0.5 * r * r;
  }
  double Derivative(double prediction, double label) const override {
    return prediction - label;
  }

  // |⟨w,x⟩ − y| ≤ R + 1 with ‖x‖ ≤ 1, |y| ≤ 1, ‖w‖ ≤ R.
  double lipschitz() const override {
    double base = std::isfinite(radius_) ? radius_ + 1.0 : kInf;
    return lambda() > 0.0 ? base + lambda() * radius_ : base;
  }
  double smoothness() const override { return 1.0 + lambda(); }
  double strong_convexity() const override { return lambda(); }
  double radius() const override { return radius_; }

  std::string name() const override {
    return StrFormat("squared(lambda=%g)", lambda());
  }
  std::unique_ptr<LossFunction> Clone() const override {
    return std::make_unique<SquaredLoss>(*this);
  }

 private:
  double radius_;
};

}  // namespace

double LogisticValue(double prediction, double label) {
  return Log1pExp(-label * prediction);
}

double LogisticDerivative(double prediction, double label) {
  return -label * Sigmoid(-(label * prediction));
}

double LossFunction::Loss(const Vector& w, const Vector& x, double y) const {
  double loss = Value(Dot(w, x), y);
  if (lambda() > 0.0) loss += 0.5 * lambda() * w.SquaredNorm();
  if (const Vector* u = linear_term()) loss += linear_weight() * Dot(*u, w);
  return loss;
}

void LossFunction::AddGradient(const Vector& w, const Vector& x, double y,
                               double scale, Vector* grad) const {
  const double derivative = Derivative(Dot(w, x), y);
  if (derivative != 0.0) grad->Axpy(scale * derivative, x);
  if (lambda() > 0.0) grad->Axpy(scale * lambda(), w);
  if (const Vector* u = linear_term()) {
    grad->Axpy(scale * linear_weight(), *u);
  }
}

Vector LossFunction::Gradient(const Vector& w, const Vector& x,
                              double y) const {
  Vector grad(w.dim());
  AddGradient(w, x, y, 1.0, &grad);
  return grad;
}

double LossFunction::EmpiricalRisk(const Vector& w,
                                   const Dataset& dataset) const {
  if (dataset.empty()) return 0.0;
  double acc = 0.0;
  for (size_t i = 0; i < dataset.size(); ++i) {
    acc += Loss(w, dataset[i].x, dataset[i].label);
  }
  return acc / static_cast<double>(dataset.size());
}

Result<std::unique_ptr<LossFunction>> MakeLogisticLoss(double lambda,
                                                       double radius) {
  BOLTON_RETURN_IF_ERROR(ValidateRegularization(lambda, radius));
  return std::unique_ptr<LossFunction>(new LogisticLoss(lambda, radius));
}

Result<std::unique_ptr<LossFunction>> MakeHuberSvmLoss(double h, double lambda,
                                                       double radius) {
  if (h <= 0.0 || h >= 1.0) {
    return Status::InvalidArgument("Huber width h must be in (0, 1)");
  }
  BOLTON_RETURN_IF_ERROR(ValidateRegularization(lambda, radius));
  return std::unique_ptr<LossFunction>(new HuberSvmLoss(h, lambda, radius));
}

Result<std::unique_ptr<LossFunction>> MakeSquaredLoss(double lambda,
                                                      double radius) {
  BOLTON_RETURN_IF_ERROR(ValidateRegularization(lambda, radius));
  if (!std::isfinite(radius)) {
    return Status::InvalidArgument(
        "squared loss needs a finite radius for a finite Lipschitz constant");
  }
  return std::unique_ptr<LossFunction>(new SquaredLoss(lambda, radius));
}

}  // namespace bolton
