#include "random/rng.h"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "reference_random.h"

namespace bolton {
namespace {

TEST(RngTest, DeterministicForFixedSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int agreements = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++agreements;
  }
  EXPECT_EQ(agreements, 0);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformDoubleMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.UniformDouble();
  // stderr of the mean is ~1/(sqrt(12n)) ≈ 0.0009; allow 5 sigma.
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(RngTest, UniformDoubleRangeRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.UniformDouble(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(RngTest, UniformIntWithinRangeAndHitsAll) {
  Rng rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.UniformInt(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, UniformIntOneIsAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(1), 0u);
}

TEST(RngTest, UniformIntMatchesTheReferenceSampler) {
  // n near 2^64 makes r < n common, so the threshold's branch runs, and at
  // 2^63 + 1 about half of all draws are rejected.
  for (uint64_t n : {uint64_t{1}, uint64_t{2}, uint64_t{3}, uint64_t{7},
                     (uint64_t{1} << 32) - 1, (uint64_t{1} << 32) + 1,
                     (uint64_t{1} << 63) + 1, ~uint64_t{0}}) {
    Rng rng(n ^ 0x5eed);
    Rng ref = rng;
    for (int i = 0; i < 100000; ++i) {
      ASSERT_EQ(rng.UniformInt(n), reference::UniformInt(n, &ref))
          << "n=" << n << " draw " << i;
    }
    EXPECT_EQ(rng.Next(), ref.Next()) << "n=" << n;
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng parent(9);
  Rng child = parent.Split();
  // The child stream should not replicate the parent's continuation.
  int agreements = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.Next() == child.Next()) ++agreements;
  }
  EXPECT_EQ(agreements, 0);
}

TEST(RngTest, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Rng>);
  EXPECT_EQ(Rng::min(), 0u);
  EXPECT_EQ(Rng::max(), ~0ull);
}

}  // namespace
}  // namespace bolton
