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

// Numerically stable ln(1 + e^z).
double Log1pExp(double z) {
  if (z > 0.0) return z + std::log1p(std::exp(-z));
  return std::log1p(std::exp(z));
}

class LogisticLoss final : public LossFunction {
 public:
  LogisticLoss(double lambda, double radius) : lambda_(lambda), radius_(radius) {}

  double Loss(const Vector& w, const Example& example) const override {
    double z = -example.label * Dot(w, example.x);
    double loss = Log1pExp(z);
    if (lambda_ > 0.0) loss += 0.5 * lambda_ * w.SquaredNorm();
    return loss;
  }

  void AddGradient(const Vector& w, const Example& example, double scale,
                   Vector* grad) const override {
    // ∇ℓ = −y·σ(−y⟨w,x⟩)·x + λw.
    double margin = example.label * Dot(w, example.x);
    double coeff = -example.label * Sigmoid(-margin);
    grad->Axpy(scale * coeff, example.x);
    if (lambda_ > 0.0) grad->Axpy(scale * lambda_, w);
  }

  // Paper §2: λ=0 ⇒ (L, β, γ) = (1, 1, 0); λ>0 ⇒ (1+λR, 1+λ, λ).
  double lipschitz() const override {
    return lambda_ > 0.0 ? 1.0 + lambda_ * radius_ : 1.0;
  }
  double smoothness() const override { return 1.0 + lambda_; }
  double strong_convexity() const override { return lambda_; }
  double radius() const override { return radius_; }

  std::string name() const override {
    return StrFormat("logistic(lambda=%g)", lambda_);
  }
  std::unique_ptr<LossFunction> Clone() const override {
    return std::make_unique<LogisticLoss>(*this);
  }

 private:
  double lambda_;
  double radius_;
};

class HuberSvmLoss final : public LossFunction {
 public:
  HuberSvmLoss(double h, double lambda, double radius)
      : h_(h), lambda_(lambda), radius_(radius) {}

  double Loss(const Vector& w, const Example& example) const override {
    double z = example.label * Dot(w, example.x);
    double loss;
    if (z > 1.0 + h_) {
      loss = 0.0;
    } else if (z < 1.0 - h_) {
      loss = 1.0 - z;
    } else {
      double gap = 1.0 + h_ - z;
      loss = gap * gap / (4.0 * h_);
    }
    if (lambda_ > 0.0) loss += 0.5 * lambda_ * w.SquaredNorm();
    return loss;
  }

  void AddGradient(const Vector& w, const Example& example, double scale,
                   Vector* grad) const override {
    double z = example.label * Dot(w, example.x);
    double dz;  // dℓ/dz
    if (z > 1.0 + h_) {
      dz = 0.0;
    } else if (z < 1.0 - h_) {
      dz = -1.0;
    } else {
      dz = -(1.0 + h_ - z) / (2.0 * h_);
    }
    if (dz != 0.0) grad->Axpy(scale * dz * example.label, example.x);
    if (lambda_ > 0.0) grad->Axpy(scale * lambda_, w);
  }

  // Appendix B: L ≤ 1, β ≤ 1/(2h) for ‖x‖ ≤ 1; regularizer adds λR / λ / λ.
  double lipschitz() const override {
    return lambda_ > 0.0 ? 1.0 + lambda_ * radius_ : 1.0;
  }
  double smoothness() const override { return 1.0 / (2.0 * h_) + lambda_; }
  double strong_convexity() const override { return lambda_; }
  double radius() const override { return radius_; }

  std::string name() const override {
    return StrFormat("huber_svm(h=%g,lambda=%g)", h_, lambda_);
  }
  std::unique_ptr<LossFunction> Clone() const override {
    return std::make_unique<HuberSvmLoss>(*this);
  }

 private:
  double h_;
  double lambda_;
  double radius_;
};

class SquaredLoss final : public LossFunction {
 public:
  SquaredLoss(double lambda, double radius) : lambda_(lambda), radius_(radius) {}

  double Loss(const Vector& w, const Example& example) const override {
    double r = Dot(w, example.x) - example.label;
    double loss = 0.5 * r * r;
    if (lambda_ > 0.0) loss += 0.5 * lambda_ * w.SquaredNorm();
    return loss;
  }

  void AddGradient(const Vector& w, const Example& example, double scale,
                   Vector* grad) const override {
    double r = Dot(w, example.x) - example.label;
    grad->Axpy(scale * r, example.x);
    if (lambda_ > 0.0) grad->Axpy(scale * lambda_, w);
  }

  // |⟨w,x⟩ − y| ≤ R + 1 with ‖x‖ ≤ 1, |y| ≤ 1, ‖w‖ ≤ R.
  double lipschitz() const override {
    double base = std::isfinite(radius_) ? radius_ + 1.0 : kInf;
    return lambda_ > 0.0 ? base + lambda_ * radius_ : base;
  }
  double smoothness() const override { return 1.0 + lambda_; }
  double strong_convexity() const override { return lambda_; }
  double radius() const override { return radius_; }

  std::string name() const override {
    return StrFormat("squared(lambda=%g)", lambda_);
  }
  std::unique_ptr<LossFunction> Clone() const override {
    return std::make_unique<SquaredLoss>(*this);
  }

 private:
  double lambda_;
  double radius_;
};

}  // namespace

double Sigmoid(double z) {
  if (z >= 0.0) return 1.0 / (1.0 + std::exp(-z));
  double e = std::exp(z);
  return e / (1.0 + e);
}

Vector LossFunction::Gradient(const Vector& w, const Example& example) const {
  Vector grad(w.dim());
  AddGradient(w, example, 1.0, &grad);
  return grad;
}

double LossFunction::EmpiricalRisk(const Vector& w,
                                   const Dataset& dataset) const {
  if (dataset.empty()) return 0.0;
  double acc = 0.0;
  for (size_t i = 0; i < dataset.size(); ++i) acc += Loss(w, dataset[i]);
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
