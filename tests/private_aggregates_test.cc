#include "engine/private_aggregates.h"

#include <cmath>

#include <gtest/gtest.h>

#include "data/synthetic.h"

namespace bolton {
namespace {

std::unique_ptr<Table> MakeSmallTable(size_t m = 200, uint64_t seed = 281) {
  SyntheticConfig config;
  config.num_examples = m;
  config.dim = 6;
  config.seed = seed;
  Dataset data = GenerateSynthetic(config).MoveValue();
  return MakeTable(data, StorageMode::kMemory).MoveValue();
}

TEST(PrivateCountTest, NoisyCountIsNearTruth) {
  auto table = MakeSmallTable();
  Rng rng(1);
  auto count = PrivateCount(*table, PrivacyParams{2.0, 0.0}, &rng);
  ASSERT_TRUE(count.ok());
  EXPECT_DOUBLE_EQ(count.value().true_value, 200.0);
  // Laplace(1/2): within ±10 with overwhelming probability.
  EXPECT_NEAR(count.value().noisy, 200.0, 10.0);
}

TEST(PrivateCountTest, NoiseScaleMatchesMechanism) {
  auto table = MakeSmallTable();
  // Average absolute noise over repeats: E|Laplace(b)| = b = Δ/ε.
  const int runs = 4000;
  double total_abs = 0.0;
  for (int r = 0; r < runs; ++r) {
    Rng rng(100 + r);
    auto count = PrivateCount(*table, PrivacyParams{0.5, 0.0}, &rng);
    ASSERT_TRUE(count.ok());
    total_abs += std::abs(count.value().noisy - count.value().true_value);
  }
  EXPECT_NEAR(total_abs / runs, 1.0 / 0.5, 0.15);
}

TEST(PrivateFeatureMeanTest, MatchesTrueMeanUpToNoise) {
  auto table = MakeSmallTable(500, 282);
  // True column mean via a plain scan.
  double sum = 0.0;
  table->Scan([&](const Example& e) { sum += e.x[2]; }).CheckOK();
  double truth = sum / 500.0;

  Rng rng(2);
  auto mean = PrivateFeatureMean(*table, 2, PrivacyParams{1.0, 0.0}, &rng);
  ASSERT_TRUE(mean.ok());
  EXPECT_DOUBLE_EQ(mean.value().true_value, truth);
  // Sensitivity 2/m = 0.004 at ε=1: noise is tiny.
  EXPECT_NEAR(mean.value().noisy, truth, 0.1);
}

TEST(PrivateFeatureMeanTest, GaussianVariantWorks) {
  auto table = MakeSmallTable(300, 283);
  Rng rng(3);
  auto mean = PrivateFeatureMean(*table, 0, PrivacyParams{0.5, 1e-6}, &rng);
  ASSERT_TRUE(mean.ok());
  EXPECT_TRUE(std::isfinite(mean.value().noisy));
}

TEST(PrivateFeatureMeanTest, Validation) {
  auto table = MakeSmallTable(50, 284);
  Rng rng(4);
  EXPECT_FALSE(
      PrivateFeatureMean(*table, 99, PrivacyParams{1.0, 0.0}, &rng).ok());
  EXPECT_FALSE(
      PrivateFeatureMean(*table, 0, PrivacyParams{0.0, 0.0}, &rng).ok());
}

TEST(PrivateFeatureMeanTest, RejectsOutOfRangeFeatures) {
  // Features outside [-1, 1] invalidate the 2/m sensitivity calibration.
  Dataset data(2, 2);
  data.Add(Example{Vector{5.0, 0.0}, +1});
  data.Add(Example{Vector{1.0, 0.5}, -1});
  auto table = MakeTable(data, StorageMode::kMemory).MoveValue();
  Rng rng(5);
  EXPECT_EQ(
      PrivateFeatureMean(*table, 0, PrivacyParams{1.0, 0.0}, &rng)
          .status()
          .code(),
      StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace bolton
