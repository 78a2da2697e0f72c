#include "core/bst14.h"

#include <cmath>
#include <limits>

#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optim/schedule.h"
#include "random/distributions.h"
#include "util/strings.h"

namespace bolton {

namespace {

// Number of model updates the run will perform.
size_t NumUpdates(size_t m, size_t passes, size_t batch) {
  return passes * ((m + batch - 1) / batch);
}

// Left side of the line-5 equation.
double CompositionCost(double eps1, double sqrt_term, double T) {
  return T * eps1 * std::expm1(eps1) + sqrt_term * eps1;
}

/// Per-update Gaussian noise with fixed per-coordinate stddev. Unlike the
/// output-perturbation mechanisms this bypasses random/dp_noise.h (it is raw
/// iid Gaussian noise calibrated by advanced composition), so it carries its
/// own ledger instrumentation.
class Bst14Noise final : public GradientNoiseSource {
 public:
  explicit Bst14Noise(double sigma) : sigma_(sigma) {}

  Result<Vector> Sample(size_t step, size_t dim, Rng* rng) override {
    static obs::Counter* draws =
        obs::MetricsRegistry::Default().GetCounter("bst14.noise_draws");
    draws->Increment();
    obs::PrivacyLedger& ledger = obs::PrivacyLedger::Default();
    if (!ledger.enabled()) return SampleGaussianVector(dim, sigma_, rng);
    const uint64_t fingerprint = rng->StateFingerprint();
    Vector noise = SampleGaussianVector(dim, sigma_, rng);
    ledger.Record({.kind = "noise_draw", .mechanism = "gaussian_per_step",
                   .label = "bst14.per_step", .noise_scale = sigma_,
                   .noise_norm = noise.Norm(), .dim = dim, .step = step,
                   .rng_fingerprint = fingerprint});
    return noise;
  }

 private:
  double sigma_;
};

struct Calibration {
  double epsilon1;
  double epsilon2;
  double sigma_squared;  // before the 1/b² localization factor
  double delta1;
};

Result<Calibration> Calibrate(const PrivacyParams& privacy, size_t m,
                              size_t T, size_t batch_size) {
  BOLTON_RETURN_IF_ERROR(CheckBst14Privacy(privacy));
  Calibration cal;
  cal.delta1 = privacy.delta / static_cast<double>(T);  // line 4
  BOLTON_ASSIGN_OR_RETURN(cal.epsilon1,
                          SolveBst14Epsilon1(privacy.epsilon, cal.delta1, T));
  // Line 6 generalized to mini-batches: amplification-by-subsampling at the
  // batch's actual sampling rate b/m (the paper's ε₂ = min(1, mε₁/2) is the
  // b = 1 case).
  cal.epsilon2 = std::min(
      1.0, static_cast<double>(m) * cal.epsilon1 /
               (2.0 * static_cast<double>(batch_size)));
  cal.sigma_squared =
      2.0 * std::log(1.25 / cal.delta1) / (cal.epsilon2 * cal.epsilon2);
  if (obs::PrivacyLedger::Default().enabled()) {
    // Audit trail for the line 4-7 solve: ε₁ in `epsilon`, δ₁ in `delta`,
    // pre-localization σ in `noise_scale`.
    obs::PrivacyLedger::Default().Record(
        {.kind = "calibration", .mechanism = "gaussian_per_step",
         .label = "bst14.calibration", .epsilon = cal.epsilon1,
         .delta = cal.delta1, .noise_scale = std::sqrt(cal.sigma_squared),
         .step = T});
  }
  return cal;
}

Status ValidateCommon(const Dataset& data, const Bst14Options& options) {
  if (data.empty()) return Status::InvalidArgument("empty training set");
  if (options.passes < 1) return Status::InvalidArgument("passes must be >= 1");
  if (options.batch_size < 1) {
    return Status::InvalidArgument("batch_size must be >= 1");
  }
  return options.privacy.Validate();
}

double EffectiveRadius(const LossFunction& loss, const Bst14Options& options) {
  return options.radius > 0.0 ? options.radius : loss.radius();
}

}  // namespace

Result<double> SolveBst14Epsilon1(double epsilon, double delta1, size_t T) {
  if (epsilon <= 0.0) return Status::InvalidArgument("epsilon must be > 0");
  if (delta1 <= 0.0 || delta1 >= 1.0) {
    return Status::InvalidArgument("delta1 must be in (0, 1)");
  }
  if (T < 1) return Status::InvalidArgument("T must be >= 1");
  const double Td = static_cast<double>(T);
  const double sqrt_term = std::sqrt(2.0 * Td * std::log(1.0 / delta1));

  // Bracket the root: the cost is 0 at 0 and strictly increasing.
  double hi = 1.0;
  while (CompositionCost(hi, sqrt_term, Td) < epsilon) {
    hi *= 2.0;
    if (hi > 1e6) return Status::Internal("BST14 epsilon1 solve diverged");
  }
  double lo = 0.0;
  for (int iter = 0; iter < 200; ++iter) {
    double mid = 0.5 * (lo + hi);
    if (CompositionCost(mid, sqrt_term, Td) < epsilon) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

Status CheckBst14Privacy(const PrivacyParams& privacy) {
  if (privacy.delta > 0.0) return Status::OK();
  return Status::FailedPrecondition(
      "BST14 requires delta > 0 (it relies on advanced composition of "
      "(eps,delta)-DP; see the paper's Remark in §3.2.4)");
}

Result<Bst14Output> RunBst14Convex(const Dataset& data,
                                   const LossFunction& loss,
                                   const Bst14Options& options, Rng* rng) {
  BOLTON_RETURN_IF_ERROR(ValidateCommon(data, options));
  if (loss.IsStronglyConvex()) {
    return Status::FailedPrecondition(
        "Algorithm 4 requires a merely convex loss");
  }
  const double R = EffectiveRadius(loss, options);
  if (!std::isfinite(R)) {
    return Status::FailedPrecondition(
        "Algorithm 4's step size eta_t = 2R/(G sqrt(t)) needs a finite "
        "hypothesis radius; set Bst14Options::radius");
  }

  obs::ScopedSpan run_span("bst14.run");
  const size_t m = data.size();
  const size_t T = NumUpdates(m, options.passes, options.batch_size);
  BOLTON_ASSIGN_OR_RETURN(Calibration cal, Calibrate(options.privacy, m, T, options.batch_size));

  // ι localizes the per-iteration sensitivity; 1 for a single logistic
  // example (paper's note on line 11), 1/b² for an averaged size-b batch.
  const double b = static_cast<double>(options.batch_size);
  const double iota = 1.0 / (b * b);
  const double sigma = std::sqrt(cal.sigma_squared * iota);

  // Line 12: G = sqrt(d σ²ι + L²) bounds E‖noisy gradient‖.
  const double L = loss.lipschitz();
  const double G = std::sqrt(static_cast<double>(data.dim()) * sigma * sigma +
                             L * L);
  // η_t = 2R/(G√t) is an inverse-sqrt schedule with scale 2R/G.
  BOLTON_ASSIGN_OR_RETURN(auto schedule, MakeInverseSqrtStep(2.0 * R / G));

  Bst14Noise noise(sigma);
  PsgdOptions psgd;
  psgd.passes = options.passes;
  psgd.batch_size = options.batch_size;
  psgd.radius = R;
  psgd.output = OutputMode::kLastIterate;
  psgd.sampling = SamplingMode::kWithReplacement;  // line 10: i_t ~ [m]

  BOLTON_ASSIGN_OR_RETURN(PsgdOutput run,
                          RunPsgd(data, loss, *schedule, psgd, rng, &noise));

  Bst14Output out;
  out.model = std::move(run.model);
  out.stats = run.stats;
  out.epsilon1 = cal.epsilon1;
  out.epsilon2 = cal.epsilon2;
  out.sigma_squared = sigma * sigma;
  return out;
}

Result<Bst14Output> RunBst14StronglyConvex(const Dataset& data,
                                           const LossFunction& loss,
                                           const Bst14Options& options,
                                           Rng* rng) {
  BOLTON_RETURN_IF_ERROR(ValidateCommon(data, options));
  if (!loss.IsStronglyConvex()) {
    return Status::FailedPrecondition(
        "Algorithm 5 requires a strongly convex loss");
  }
  const double R = EffectiveRadius(loss, options);

  obs::ScopedSpan run_span("bst14.run");
  const size_t m = data.size();
  const size_t T = NumUpdates(m, options.passes, options.batch_size);
  BOLTON_ASSIGN_OR_RETURN(Calibration cal, Calibrate(options.privacy, m, T, options.batch_size));

  const double b = static_cast<double>(options.batch_size);
  const double iota = 1.0 / (b * b);
  const double sigma = std::sqrt(cal.sigma_squared * iota);

  // Line 12: η_t = 1/(γt).
  BOLTON_ASSIGN_OR_RETURN(
      auto schedule,
      MakeInverseTimeStep(loss.strong_convexity(),
                          std::numeric_limits<double>::infinity()));

  Bst14Noise noise(sigma);
  PsgdOptions psgd;
  psgd.passes = options.passes;
  psgd.batch_size = options.batch_size;
  psgd.radius = R;
  psgd.output = OutputMode::kLastIterate;
  psgd.sampling = SamplingMode::kWithReplacement;

  BOLTON_ASSIGN_OR_RETURN(PsgdOutput run,
                          RunPsgd(data, loss, *schedule, psgd, rng, &noise));

  Bst14Output out;
  out.model = std::move(run.model);
  out.stats = run.stats;
  out.epsilon1 = cal.epsilon1;
  out.epsilon2 = cal.epsilon2;
  out.sigma_squared = sigma * sigma;
  return out;
}

Result<Bst14Output> RunBst14(const Dataset& data, const LossFunction& loss,
                             const Bst14Options& options, Rng* rng) {
  return loss.IsStronglyConvex()
             ? RunBst14StronglyConvex(data, loss, options, rng)
             : RunBst14Convex(data, loss, options, rng);
}

}  // namespace bolton
