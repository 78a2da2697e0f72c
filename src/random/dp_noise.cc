#include "random/dp_noise.h"

#include <cmath>

#include "obs/ledger.h"
#include "obs/metrics.h"
#include "random/distributions.h"
#include "util/strings.h"

namespace bolton {

namespace {

/// One ledger event per mechanism draw, with the parameters actually used.
/// `fingerprint` must be captured from the rng BEFORE the draw consumed it.
void RecordDrawEvent(const char* mechanism, const char* label, size_t dim,
                     double sensitivity, double epsilon, double delta,
                     double noise_scale, double noise_norm,
                     uint64_t fingerprint) {
  obs::PrivacyLedger& ledger = obs::PrivacyLedger::Default();
  if (!ledger.enabled()) return;
  ledger.Record({.kind = "noise_draw", .mechanism = mechanism, .label = label,
                 .epsilon = epsilon, .delta = delta,
                 .sensitivity = sensitivity, .noise_scale = noise_scale,
                 .noise_norm = noise_norm, .dim = dim,
                 .rng_fingerprint = fingerprint});
}

}  // namespace

Result<Vector> SampleSphericalLaplace(size_t dim, double sensitivity,
                                      double epsilon, Rng* rng) {
  if (dim < 1) return Status::InvalidArgument("noise dimension must be >= 1");
  if (sensitivity < 0.0) {
    return Status::InvalidArgument("sensitivity must be >= 0");
  }
  if (epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be > 0 for epsilon-DP noise");
  }
  static obs::Counter* draws =
      obs::MetricsRegistry::Default().GetCounter("dp_noise.laplace_draws");
  draws->Increment();
  const bool audit = obs::PrivacyLedger::Default().enabled();
  const uint64_t fingerprint = audit ? rng->StateFingerprint() : 0;
  if (sensitivity == 0.0) {
    RecordDrawEvent("laplace", "dp_noise.spherical_laplace", dim,
                    sensitivity, epsilon, 0.0, 0.0, 0.0, fingerprint);
    return Vector(dim);
  }
  // Appendix E: direction uniform on the sphere, magnitude ~ Gamma(d, Δ₂/ε).
  Vector direction = SampleUnitSphere(dim, rng);
  double magnitude =
      SampleGamma(static_cast<double>(dim), sensitivity / epsilon, rng);
  direction *= magnitude;
  RecordDrawEvent("laplace", "dp_noise.spherical_laplace", dim, sensitivity,
                  epsilon, 0.0, sensitivity / epsilon, magnitude, fingerprint);
  return direction;
}

Result<double> GaussianMechanismSigma(double sensitivity, double epsilon,
                                      double delta) {
  if (sensitivity < 0.0) {
    return Status::InvalidArgument("sensitivity must be >= 0");
  }
  if (epsilon <= 0.0 || epsilon >= 1.0) {
    return Status::InvalidArgument(StrFormat(
        "Gaussian mechanism (Theorem 3) requires epsilon in (0,1); got %g",
        epsilon));
  }
  if (delta <= 0.0 || delta >= 1.0) {
    return Status::InvalidArgument(
        StrFormat("delta must be in (0,1); got %g", delta));
  }
  const double c = std::sqrt(2.0 * std::log(1.25 / delta));
  return c * sensitivity / epsilon;
}

Result<Vector> SampleGaussianMechanism(size_t dim, double sensitivity,
                                       double epsilon, double delta,
                                       Rng* rng) {
  if (dim < 1) return Status::InvalidArgument("noise dimension must be >= 1");
  BOLTON_ASSIGN_OR_RETURN(double sigma,
                          GaussianMechanismSigma(sensitivity, epsilon, delta));
  static obs::Counter* draws =
      obs::MetricsRegistry::Default().GetCounter("dp_noise.gaussian_draws");
  draws->Increment();
  const bool audit = obs::PrivacyLedger::Default().enabled();
  const uint64_t fingerprint = audit ? rng->StateFingerprint() : 0;
  Vector noise = SampleGaussianVector(dim, sigma, rng);
  RecordDrawEvent("gaussian", "dp_noise.gaussian_mechanism", dim, sensitivity,
                  epsilon, delta, sigma, noise.Norm(), fingerprint);
  return noise;
}

double LaplaceNoiseNormBound(size_t dim, double sensitivity, double epsilon,
                             double gamma) {
  double d = static_cast<double>(dim);
  return d * std::log(d / gamma) * sensitivity / epsilon;
}

Result<Vector> SampleDpNoise(NoiseMechanism mechanism, size_t dim,
                             double sensitivity, double epsilon, double delta,
                             Rng* rng) {
  switch (mechanism) {
    case NoiseMechanism::kLaplace:
      return SampleSphericalLaplace(dim, sensitivity, epsilon, rng);
    case NoiseMechanism::kGaussian:
      return SampleGaussianMechanism(dim, sensitivity, epsilon, delta, rng);
  }
  return Status::Internal("unknown noise mechanism");
}

}  // namespace bolton
