#include "core/private_sgd.h"

#include <cmath>
#include <limits>

#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optim/parallel_executor.h"
#include "util/failpoint.h"

namespace bolton {

namespace {

NoiseMechanism MechanismFor(const PrivacyParams& privacy) {
  return privacy.IsPure() ? NoiseMechanism::kLaplace
                          : NoiseMechanism::kGaussian;
}

}  // namespace

Result<double> BoltOnSensitivity(const LossFunction& loss, double eta,
                                 const SensitivitySetup& setup, size_t shards,
                                 bool use_corrected_minibatch,
                                 const PrivacyParams& privacy) {
  BOLTON_FAILPOINT("bolton.calibrate");
  obs::ScopedSpan sensitivity_span("bolton.sensitivity");
  double sensitivity;
  if (loss.IsStronglyConvex()) {
    BOLTON_ASSIGN_OR_RETURN(
        sensitivity, ShardedStronglyConvexDecreasingStepSensitivity(
                         loss, setup, shards, use_corrected_minibatch));
  } else {
    BOLTON_ASSIGN_OR_RETURN(
        sensitivity,
        ShardedConvexConstantStepSensitivity(loss, eta, setup, shards));
  }
  if (obs::PrivacyLedger::Default().enabled()) {
    // Audit trail: the Δ₂ the single output draw below will be calibrated
    // to, including the shard count the Lemma 10 argument was applied with.
    obs::PrivacyLedger::Default().Record(
        {.kind = "calibration",
         .mechanism = privacy.IsPure() ? "laplace" : "gaussian",
         .label = shards > 1 ? "bolton.sharded_sensitivity"
                             : "bolton.sensitivity",
         .epsilon = privacy.epsilon, .delta = privacy.delta,
         .sensitivity = sensitivity, .shards = shards});
  }
  return sensitivity;
}

Result<PrivateSgdOutput> BoltOnPerturb(const Vector& model, double sensitivity,
                                       const PrivacyParams& privacy,
                                       Rng* rng) {
  BOLTON_FAILPOINT("bolton.perturb");
  BOLTON_RETURN_IF_ERROR(privacy.Validate());
  if (sensitivity < 0.0) {
    return Status::InvalidArgument("sensitivity must be >= 0");
  }
  if (model.empty()) return Status::InvalidArgument("empty model");
  obs::ScopedSpan perturb_span("bolton.perturb_draw");
  static obs::Counter* perturbations =
      obs::MetricsRegistry::Default().GetCounter("bolton.perturbations");
  perturbations->Increment();
  BOLTON_ASSIGN_OR_RETURN(
      Vector kappa,
      SampleDpNoise(MechanismFor(privacy), model.dim(), sensitivity,
                    privacy.epsilon, privacy.delta, rng));
  PrivateSgdOutput out;
  out.noiseless_model = model;
  out.sensitivity = sensitivity;
  out.noise_norm = kappa.Norm();
  kappa += model;
  out.model = std::move(kappa);
  return out;
}

Result<BlackBoxPlan> PlanBlackBoxRun(const LossFunction& loss,
                                     size_t num_examples,
                                     const BoltOnOptions& options,
                                     bool bolt_on) {
  if (bolt_on) BOLTON_RETURN_IF_ERROR(options.privacy.Validate());
  if (num_examples == 0) {
    return Status::InvalidArgument("empty training set");
  }
  BlackBoxPlan plan;
  plan.psgd.run() = options.run();
  plan.psgd.radius = loss.radius();
  if (loss.IsStronglyConvex()) {
    if (bolt_on && !std::isfinite(loss.radius())) {
      return Status::FailedPrecondition(
          "Algorithm 2 runs constrained optimization; the loss must carry a "
          "finite radius (the paper uses R = 1/lambda)");
    }
    // Algorithm 2, line 2: η_t = min(1/β, 1/(γt)); noiseless drops the cap.
    BOLTON_ASSIGN_OR_RETURN(
        plan.schedule,
        MakeInverseTimeStep(loss.strong_convexity(),
                            bolt_on ? loss.smoothness()
                                    : std::numeric_limits<double>::infinity()));
  } else {
    plan.eta = bolt_on && options.constant_step > 0.0
                   ? options.constant_step
                   : 1.0 / std::sqrt(static_cast<double>(num_examples));
    BOLTON_ASSIGN_OR_RETURN(plan.schedule, MakeConstantStep(plan.eta));
  }
  return plan;
}

Result<PrivateSgdOutput> PrivatePsgd(const Dataset& data,
                                     const LossFunction& loss,
                                     const BoltOnOptions& options, Rng* rng) {
  BOLTON_ASSIGN_OR_RETURN(
      BlackBoxPlan plan,
      PlanBlackBoxRun(loss, data.size(), options, /*bolt_on=*/true));
  BOLTON_ASSIGN_OR_RETURN(
      double sensitivity,
      BoltOnSensitivity(
          loss, plan.eta,
          SensitivitySetup{options.passes, options.batch_size, data.size()},
          options.shards, options.use_corrected_minibatch_sensitivity,
          options.privacy));

  Rng psgd_rng = rng->Split();
  BOLTON_ASSIGN_OR_RETURN(
      ShardedPsgdOutput run,
      RunShardedPsgd(data, loss, *plan.schedule, plan.psgd, &psgd_rng));

  BOLTON_ASSIGN_OR_RETURN(
      PrivateSgdOutput out,
      BoltOnPerturb(run.model, sensitivity, options.privacy, rng));
  out.stats = run.stats;
  out.shards = run.shards;
  return out;
}

}  // namespace bolton
