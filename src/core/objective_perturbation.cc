#include "core/objective_perturbation.h"

#include <cmath>
#include <memory>

#include "optim/loss.h"
#include "optim/schedule.h"
#include "random/distributions.h"
#include "util/strings.h"

namespace bolton {

namespace {

// Logistic loss + (λ/2)‖w‖² + ⟨b, w⟩/m per example, so the empirical risk
// is exactly CMS11's perturbed objective J(w).
class PerturbedLogisticLoss final : public LossFunction {
 public:
  PerturbedLogisticLoss(double lambda, double radius, Vector b, size_t m)
      : LossFunction(lambda, std::move(b), 1.0 / static_cast<double>(m)),
        radius_(radius) {}

  double Value(double prediction, double label) const override {
    return LogisticValue(prediction, label);
  }
  double Derivative(double prediction, double label) const override {
    return LogisticDerivative(prediction, label);
  }

  double lipschitz() const override {
    return 1.0 + lambda() * radius_ + linear_term()->Norm() * linear_weight();
  }
  double smoothness() const override { return 1.0 + lambda(); }
  double strong_convexity() const override { return lambda(); }
  double radius() const override { return radius_; }
  std::string name() const override {
    return StrFormat("perturbed_logistic(lambda=%g)", lambda());
  }
  std::unique_ptr<LossFunction> Clone() const override {
    return std::make_unique<PerturbedLogisticLoss>(*this);
  }

 private:
  double radius_;
};

}  // namespace

std::unique_ptr<LossFunction> MakePerturbedLogisticLoss(double lambda,
                                                        double radius,
                                                        Vector b, size_t m) {
  return std::make_unique<PerturbedLogisticLoss>(lambda, radius, std::move(b),
                                                 m);
}

Result<ObjectivePerturbationOutput> RunObjectivePerturbation(
    const Dataset& data, const ObjectivePerturbationOptions& options,
    Rng* rng) {
  if (data.empty()) return Status::InvalidArgument("empty training set");
  if (options.epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be > 0");
  }
  if (options.lambda < 0.0) {
    return Status::InvalidArgument("lambda must be >= 0");
  }
  if (options.passes < 1) return Status::InvalidArgument("passes must be >= 1");

  const double m = static_cast<double>(data.size());
  const double c = 0.25;  // curvature bound of the logistic loss derivative

  // CMS11 Algorithm 2's budget split: the curvature of the loss charges
  // 2·ln(1 + c/(mλ)) of ε; if λ is too small for that to leave a positive
  // remainder, raise λ until the charge is exactly ε/2.
  ObjectivePerturbationOutput out;
  out.effective_lambda = options.lambda;
  double eps_prime =
      options.lambda > 0.0
          ? options.epsilon -
                2.0 * std::log(1.0 + c / (m * options.lambda))
          : -1.0;
  if (eps_prime <= 0.0) {
    out.effective_lambda = c / (m * std::expm1(options.epsilon / 4.0));
    eps_prime = options.epsilon / 2.0;
  }
  out.epsilon_prime = eps_prime;

  // b: uniform direction, ‖b‖ ~ Gamma(d, 2/ε').
  Vector b = SampleUnitSphere(data.dim(), rng);
  double magnitude =
      SampleGamma(static_cast<double>(data.dim()), 2.0 / eps_prime, rng);
  b *= magnitude;
  out.perturbation_norm = magnitude;

  // Approximate argmin J(w) with strongly convex projected PSGD.
  const double radius = 1.0 / out.effective_lambda;
  const auto loss = MakePerturbedLogisticLoss(out.effective_lambda, radius,
                                              std::move(b), data.size());
  BOLTON_ASSIGN_OR_RETURN(
      auto schedule,
      MakeInverseTimeStep(loss->strong_convexity(), loss->smoothness()));
  PsgdOptions psgd;
  psgd.passes = options.passes;
  psgd.batch_size = std::min(options.batch_size, data.size());
  psgd.radius = radius;
  Rng psgd_rng = rng->Split();
  BOLTON_ASSIGN_OR_RETURN(PsgdOutput run,
                          RunPsgd(data, *loss, *schedule, psgd, &psgd_rng));
  out.model = std::move(run.model);
  out.stats = run.stats;
  return out;
}

}  // namespace bolton
