#include "random/dp_noise.h"

#include <cmath>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace bolton {
namespace {

TEST(SphericalLaplaceTest, NormFollowsGammaMean) {
  // Theorem 1 / Appendix E: ‖κ‖ ~ Gamma(d, Δ₂/ε), so E‖κ‖ = dΔ₂/ε.
  Rng rng(31);
  const size_t dim = 10;
  const double sensitivity = 0.5;
  const double epsilon = 2.0;
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    auto noise = SampleSphericalLaplace(dim, sensitivity, epsilon, &rng);
    ASSERT_TRUE(noise.ok());
    sum += noise.value().Norm();
  }
  double expected = dim * sensitivity / epsilon;
  EXPECT_NEAR(sum / n, expected, 0.03 * expected);
}

TEST(SphericalLaplaceTest, DirectionIsUnbiased) {
  Rng rng(32);
  const size_t dim = 5;
  const int n = 50000;
  Vector mean(dim);
  for (int i = 0; i < n; ++i) {
    auto noise = SampleSphericalLaplace(dim, 1.0, 1.0, &rng);
    ASSERT_TRUE(noise.ok());
    mean += Normalized(noise.value());
  }
  mean *= 1.0 / n;
  EXPECT_LT(mean.Norm(), 0.02);
}

TEST(SphericalLaplaceTest, Theorem2TailBound) {
  // With probability ≥ 1−γ, ‖κ‖ ≤ d·ln(d/γ)·Δ₂/ε.
  Rng rng(33);
  const size_t dim = 8;
  const double sensitivity = 1.0, epsilon = 1.0, gamma = 0.05;
  const double bound = LaplaceNoiseNormBound(dim, sensitivity, epsilon, gamma);
  const int n = 20000;
  int violations = 0;
  for (int i = 0; i < n; ++i) {
    auto noise = SampleSphericalLaplace(dim, sensitivity, epsilon, &rng);
    ASSERT_TRUE(noise.ok());
    if (noise.value().Norm() > bound) ++violations;
  }
  EXPECT_LT(static_cast<double>(violations) / n, gamma);
}

TEST(SphericalLaplaceTest, ScalesWithSensitivityOverEpsilon) {
  Rng rng_a(34), rng_b(34);
  const int n = 20000;
  double small_eps_sum = 0.0, large_eps_sum = 0.0;
  for (int i = 0; i < n; ++i) {
    small_eps_sum +=
        SampleSphericalLaplace(5, 1.0, 0.5, &rng_a).value().Norm();
    large_eps_sum +=
        SampleSphericalLaplace(5, 1.0, 2.0, &rng_b).value().Norm();
  }
  // Same seed => identical draws up to the ε scaling: ratio is exactly 4.
  EXPECT_NEAR(small_eps_sum / large_eps_sum, 4.0, 1e-9);
}

TEST(SphericalLaplaceTest, ZeroSensitivityYieldsZeroNoise) {
  Rng rng(35);
  auto noise = SampleSphericalLaplace(4, 0.0, 1.0, &rng);
  ASSERT_TRUE(noise.ok());
  EXPECT_EQ(noise.value(), Vector(4));
}

TEST(SphericalLaplaceTest, InvalidArguments) {
  Rng rng(36);
  EXPECT_FALSE(SampleSphericalLaplace(0, 1.0, 1.0, &rng).ok());
  EXPECT_FALSE(SampleSphericalLaplace(4, -1.0, 1.0, &rng).ok());
  EXPECT_FALSE(SampleSphericalLaplace(4, 1.0, 0.0, &rng).ok());
  EXPECT_FALSE(SampleSphericalLaplace(4, 1.0, -2.0, &rng).ok());
}

TEST(GaussianMechanismTest, SigmaMatchesTheorem3) {
  const double sensitivity = 0.1, epsilon = 0.5, delta = 1e-6;
  auto sigma = GaussianMechanismSigma(sensitivity, epsilon, delta);
  ASSERT_TRUE(sigma.ok());
  double expected =
      std::sqrt(2.0 * std::log(1.25 / delta)) * sensitivity / epsilon;
  EXPECT_DOUBLE_EQ(sigma.value(), expected);
}

TEST(GaussianMechanismTest, RequiresEpsilonBelowOne) {
  EXPECT_FALSE(GaussianMechanismSigma(1.0, 1.0, 1e-6).ok());
  EXPECT_FALSE(GaussianMechanismSigma(1.0, 1.5, 1e-6).ok());
  EXPECT_TRUE(GaussianMechanismSigma(1.0, 0.99, 1e-6).ok());
}

TEST(GaussianMechanismTest, RequiresValidDelta) {
  EXPECT_FALSE(GaussianMechanismSigma(1.0, 0.5, 0.0).ok());
  EXPECT_FALSE(GaussianMechanismSigma(1.0, 0.5, 1.0).ok());
}

TEST(GaussianMechanismTest, NoiseHasCorrectVariance) {
  Rng rng(37);
  const size_t dim = 16;
  const double sensitivity = 1.0, epsilon = 0.5, delta = 1e-5;
  double sigma = GaussianMechanismSigma(sensitivity, epsilon, delta).value();
  const int n = 20000;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    auto noise =
        SampleGaussianMechanism(dim, sensitivity, epsilon, delta, &rng);
    ASSERT_TRUE(noise.ok());
    sum_sq += noise.value().SquaredNorm();
  }
  double expected = dim * sigma * sigma;
  EXPECT_NEAR(sum_sq / n, expected, 0.03 * expected);
}

TEST(GaussianMechanismTest, EveryDrawIsCounted) {
  obs::SetMetricsEnabled(true);
  const obs::Counter* draws =
      obs::MetricsRegistry::Default().GetCounter("dp_noise.gaussian_draws");
  const uint64_t before = draws->Value();
  Rng rng(39);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(SampleGaussianMechanism(4, 1.0, 0.5, 1e-6, &rng).ok());
  }
  // A refused draw (ε ≥ 1) draws nothing and is not counted.
  EXPECT_FALSE(SampleGaussianMechanism(4, 1.0, 2.0, 1e-6, &rng).ok());
  obs::SetMetricsEnabled(false);
  EXPECT_EQ(draws->Value() - before, 3u);
}

TEST(DispatchTest, SelectsMechanism) {
  Rng rng(38);
  auto laplace = SampleDpNoise(NoiseMechanism::kLaplace, 4, 1.0, 1.0, 0.0,
                               &rng);
  EXPECT_TRUE(laplace.ok());
  auto gaussian = SampleDpNoise(NoiseMechanism::kGaussian, 4, 1.0, 0.5, 1e-6,
                                &rng);
  EXPECT_TRUE(gaussian.ok());
  // Gaussian path validates ε < 1 even through the dispatcher.
  EXPECT_FALSE(
      SampleDpNoise(NoiseMechanism::kGaussian, 4, 1.0, 2.0, 1e-6, &rng).ok());
}

// The Laplace mechanism's noise magnitude grows linearly in d (Theorem 2) —
// the reason the paper random-projects MNIST to 50 dimensions.
TEST(DimensionScalingTest, LaplaceNoiseGrowsLinearlyInDimension) {
  Rng rng(39);
  const int n = 20000;
  double norm_d10 = 0.0, norm_d100 = 0.0;
  for (int i = 0; i < n; ++i) {
    norm_d10 += SampleSphericalLaplace(10, 1.0, 1.0, &rng).value().Norm();
    norm_d100 += SampleSphericalLaplace(100, 1.0, 1.0, &rng).value().Norm();
  }
  EXPECT_NEAR(norm_d100 / norm_d10, 10.0, 0.5);
}

}  // namespace
}  // namespace bolton
