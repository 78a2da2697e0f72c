#include "engine/private_aggregates.h"

#include <cmath>

#include "random/distributions.h"
#include "random/dp_noise.h"
#include "util/strings.h"

namespace bolton {

namespace {

// Scalar noise for the selected mechanism: Laplace(Δ/ε) for pure ε-DP,
// N(0, σ²) with Theorem 3's σ for (ε, δ)-DP.
Result<double> SampleScalarNoise(double sensitivity,
                                 const PrivacyParams& privacy, Rng* rng) {
  BOLTON_RETURN_IF_ERROR(privacy.Validate());
  if (privacy.IsPure()) {
    return SampleLaplace(sensitivity / privacy.epsilon, rng);
  }
  BOLTON_ASSIGN_OR_RETURN(
      double sigma,
      GaussianMechanismSigma(sensitivity, privacy.epsilon, privacy.delta));
  return sigma * rng->Gaussian();
}

}  // namespace

Result<PrivateScalar> PrivateCount(const Table& table,
                                   const PrivacyParams& privacy, Rng* rng) {
  PrivateScalar out;
  out.true_value = static_cast<double>(table.num_rows());
  BOLTON_ASSIGN_OR_RETURN(double noise,
                          SampleScalarNoise(1.0, privacy, rng));
  out.noisy = out.true_value + noise;
  return out;
}

Result<PrivateScalar> PrivateFeatureMean(const Table& table, size_t column,
                                         const PrivacyParams& privacy,
                                         Rng* rng) {
  if (column >= table.dim()) {
    return Status::OutOfRange(StrFormat("column %zu >= table dim %zu",
                                        column, table.dim()));
  }
  if (table.num_rows() == 0) return Status::InvalidArgument("empty table");

  double sum = 0.0;
  bool in_unit_ball = true;
  BOLTON_RETURN_IF_ERROR(table.Scan([&](const Example& row) {
    sum += row.x[column];
    if (std::abs(row.x[column]) > 1.0 + 1e-12) in_unit_ball = false;
  }));
  if (!in_unit_ball) {
    return Status::FailedPrecondition(
        "feature values must lie in [-1, 1] (run NormalizeToUnitBall); the "
        "2/m sensitivity calibration is invalid otherwise");
  }

  PrivateScalar out;
  out.true_value = sum / static_cast<double>(table.num_rows());
  const double sensitivity = 2.0 / static_cast<double>(table.num_rows());
  BOLTON_ASSIGN_OR_RETURN(double noise,
                          SampleScalarNoise(sensitivity, privacy, rng));
  out.noisy = out.true_value + noise;
  return out;
}

}  // namespace bolton
