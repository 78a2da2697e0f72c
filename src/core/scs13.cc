#include "core/scs13.h"

#include "obs/ledger.h"
#include "obs/trace.h"
#include "optim/schedule.h"
#include "random/dp_noise.h"
#include "util/strings.h"

namespace bolton {

namespace {

/// Per-update noise for SCS13, drawn through the PSGD white-box hook.
class Scs13Noise final : public GradientNoiseSource {
 public:
  Scs13Noise(NoiseMechanism mechanism, double sensitivity, double epsilon,
             double delta)
      : mechanism_(mechanism),
        sensitivity_(sensitivity),
        epsilon_(epsilon),
        delta_(delta) {}

  Result<Vector> Sample(size_t /*step*/, size_t dim, Rng* rng) override {
    return SampleDpNoise(mechanism_, dim, sensitivity_, epsilon_, delta_, rng);
  }

  Result<double> NoiseScale() const {
    if (mechanism_ == NoiseMechanism::kLaplace) {
      return sensitivity_ / epsilon_;
    }
    return GaussianMechanismSigma(sensitivity_, epsilon_, delta_);
  }

 private:
  NoiseMechanism mechanism_;
  double sensitivity_;
  double epsilon_;
  double delta_;
};

}  // namespace

Result<Scs13Output> RunScs13(const Dataset& data, const LossFunction& loss,
                             const Scs13Options& options, Rng* rng) {
  BOLTON_RETURN_IF_ERROR(options.privacy.Validate());
  if (data.empty()) return Status::InvalidArgument("empty training set");
  if (options.passes < 1) return Status::InvalidArgument("passes must be >= 1");

  // Budget: parallel composition inside a pass (batches are disjoint under
  // permutation sampling), basic composition across the k passes.
  const double eps_step =
      options.privacy.epsilon / static_cast<double>(options.passes);
  const double delta_step =
      options.privacy.delta / static_cast<double>(options.passes);
  const double sensitivity =
      2.0 * loss.lipschitz() / static_cast<double>(options.batch_size);

  NoiseMechanism mechanism = options.privacy.IsPure()
                                 ? NoiseMechanism::kLaplace
                                 : NoiseMechanism::kGaussian;
  Scs13Noise noise(mechanism, sensitivity, eps_step, delta_step);

  obs::ScopedSpan run_span("scs13.run");
  if (obs::PrivacyLedger::Default().enabled()) {
    // Audit trail for the per-step budget split the draws below will use.
    auto scale = noise.NoiseScale();
    obs::PrivacyLedger::Default().Record(
        {.kind = "calibration",
         .mechanism =
             mechanism == NoiseMechanism::kLaplace ? "laplace" : "gaussian",
         .label = "scs13.per_step_budget", .epsilon = eps_step,
         .delta = delta_step, .sensitivity = sensitivity,
         .noise_scale = scale.ok() ? scale.value() : 0.0});
  }

  BOLTON_ASSIGN_OR_RETURN(auto schedule,
                          MakeInverseSqrtStep(options.step_scale));

  PsgdOptions psgd;
  psgd.passes = options.passes;
  psgd.batch_size = options.batch_size;
  psgd.radius = loss.radius();
  psgd.output = OutputMode::kLastIterate;
  psgd.sampling = SamplingMode::kPermutation;

  BOLTON_ASSIGN_OR_RETURN(PsgdOutput run,
                          RunPsgd(data, loss, *schedule, psgd, rng, &noise));

  Scs13Output out;
  out.model = std::move(run.model);
  out.stats = run.stats;
  BOLTON_ASSIGN_OR_RETURN(out.per_step_noise_scale, noise.NoiseScale());
  return out;
}

}  // namespace bolton
