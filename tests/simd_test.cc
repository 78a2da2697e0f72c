#include "linalg/simd.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "random/rng.h"

namespace bolton {
namespace {

/// Every kernel is compared BIT-FOR-BIT against the scalar reference on the
/// same inputs, across every tier the CPU supports, over lengths that cover
/// the empty case, pure-tail cases (n < 8), the exact vector widths, and
/// misaligned remainders. EXPECT_EQ on doubles is deliberate: the contract
/// is bit-compatibility at equal rounding mode, not closeness.

std::vector<SimdTier> SupportedTiers() {
  std::vector<SimdTier> tiers;
  for (SimdTier tier : {SimdTier::kScalar, SimdTier::kSse2, SimdTier::kAvx2,
                        SimdTier::kAvx512}) {
    if (SimdTierSupported(tier)) tiers.push_back(tier);
  }
  return tiers;
}

std::vector<double> RandomValues(size_t n, Rng* rng) {
  std::vector<double> values(n);
  for (double& v : values) v = rng->UniformDouble(-3.0, 3.0);
  return values;
}

// Row pointers into `rows`, as the PSGD step passes a batch.
std::vector<const double*> RowPointers(
    const std::vector<std::vector<double>>& rows) {
  std::vector<const double*> pointers;
  for (const std::vector<double>& row : rows) pointers.push_back(row.data());
  return pointers;
}

const std::vector<size_t>& Lengths() {
  static const std::vector<size_t> lengths = {0,  1,  2,  3,  4,  5,  7, 8,
                                              9,  12, 15, 16, 17, 24, 31, 32,
                                              33, 50, 63, 64, 100, 1000};
  return lengths;
}

TEST(SimdTest, DetectionAndNames) {
  // The probe returns a real tier, scalar is always supported, and tiers
  // round-trip through their names.
  EXPECT_NE(DetectedSimdTier(), SimdTier::kAuto);
  EXPECT_TRUE(SimdTierSupported(SimdTier::kScalar));
  EXPECT_TRUE(SimdTierSupported(DetectedSimdTier()));
  EXPECT_FALSE(SimdTierSupported(SimdTier::kAuto));
  for (SimdTier tier : SupportedTiers()) {
    SimdTier parsed;
    ASSERT_TRUE(ParseSimdTier(SimdTierName(tier), &parsed));
    EXPECT_EQ(parsed, tier);
  }
  SimdTier parsed;
  EXPECT_TRUE(ParseSimdTier("auto", &parsed));
  EXPECT_EQ(parsed, SimdTier::kAuto);
  EXPECT_TRUE(ParseSimdTier("avx512f", &parsed));
  EXPECT_EQ(parsed, SimdTier::kAvx512);
  EXPECT_FALSE(ParseSimdTier("neon", &parsed));
  EXPECT_FALSE(ParseSimdTier("", &parsed));
}

TEST(SimdTest, ScopedForceTierRestores) {
  const SimdTier before = ActiveSimdTier();
  {
    ScopedSimdTier forced(SimdTier::kScalar);
    EXPECT_EQ(ActiveSimdTier(), SimdTier::kScalar);
    {
      // Nested scopes restore in LIFO order.
      ScopedSimdTier nested(DetectedSimdTier());
      EXPECT_EQ(ActiveSimdTier(), DetectedSimdTier());
    }
    EXPECT_EQ(ActiveSimdTier(), SimdTier::kScalar);
  }
  EXPECT_EQ(ActiveSimdTier(), before);
  // Forcing an unsupported tier fails and leaves the dispatch unchanged.
  if (!SimdTierSupported(SimdTier::kAvx512)) {
    EXPECT_FALSE(ForceSimdTier(SimdTier::kAvx512));
    EXPECT_EQ(ActiveSimdTier(), before);
  }
}

TEST(SimdTest, ReductionsBitCompatibleAcrossTiers) {
  Rng rng(2024);
  for (size_t n : Lengths()) {
    const std::vector<double> x = RandomValues(n, &rng);
    const std::vector<double> y = RandomValues(n, &rng);
    double expected_dot, expected_norm, expected_dist;
    {
      ScopedSimdTier scalar(SimdTier::kScalar);
      expected_dot = SimdDot(x.data(), y.data(), n);
      expected_norm = SimdSquaredNorm(x.data(), n);
      expected_dist = SimdSquaredDistance(x.data(), y.data(), n);
    }
    for (SimdTier tier : SupportedTiers()) {
      ScopedSimdTier forced(tier);
      EXPECT_EQ(SimdDot(x.data(), y.data(), n), expected_dot)
          << "dot n=" << n << " tier=" << SimdTierName(tier);
      EXPECT_EQ(SimdSquaredNorm(x.data(), n), expected_norm)
          << "squared_norm n=" << n << " tier=" << SimdTierName(tier);
      EXPECT_EQ(SimdSquaredDistance(x.data(), y.data(), n), expected_dist)
          << "squared_distance n=" << n << " tier=" << SimdTierName(tier);
    }
    // Batch margins: batches around the four-row groups, each margin
    // SimdDot's canonical reduction.
    for (size_t batch : {1u, 3u, 4u, 5u, 9u}) {
      std::vector<std::vector<double>> rows;
      for (size_t k = 0; k < batch; ++k) rows.push_back(RandomValues(n, &rng));
      const std::vector<const double*> pointers = RowPointers(rows);
      std::vector<double> expected_margins(batch);
      {
        ScopedSimdTier scalar(SimdTier::kScalar);
        SimdBatchMargins(pointers.data(), batch, y.data(), n,
                         expected_margins.data());
        for (size_t k = 0; k < batch; ++k) {
          EXPECT_EQ(expected_margins[k], SimdDot(rows[k].data(), y.data(), n));
        }
      }
      for (SimdTier tier : SupportedTiers()) {
        ScopedSimdTier forced(tier);
        std::vector<double> margins(batch);
        SimdBatchMargins(pointers.data(), batch, y.data(), n, margins.data());
        EXPECT_EQ(margins, expected_margins)
            << "batch_margins n=" << n << " batch=" << batch
            << " tier=" << SimdTierName(tier);
      }
    }
  }
}

TEST(SimdTest, ElementwiseBitCompatibleAcrossTiers) {
  Rng rng(4096);
  const double a = -0.37;
  for (size_t n : Lengths()) {
    const std::vector<double> x = RandomValues(n, &rng);
    const std::vector<double> y = RandomValues(n, &rng);

    std::vector<double> axpy_ref = y, scale_ref = y, add_ref = y,
                        sub_ref = y;
    {
      ScopedSimdTier scalar(SimdTier::kScalar);
      SimdAxpy(a, x.data(), axpy_ref.data(), n);
      SimdScale(scale_ref.data(), a, n);
      SimdAdd(add_ref.data(), x.data(), n);
      SimdSub(sub_ref.data(), x.data(), n);
    }
    for (SimdTier tier : SupportedTiers()) {
      ScopedSimdTier forced(tier);
      std::vector<double> axpy_out = y, scale_out = y, add_out = y,
                          sub_out = y;
      SimdAxpy(a, x.data(), axpy_out.data(), n);
      SimdScale(scale_out.data(), a, n);
      SimdAdd(add_out.data(), x.data(), n);
      SimdSub(sub_out.data(), x.data(), n);
      EXPECT_EQ(axpy_out, axpy_ref)
          << "axpy n=" << n << " tier=" << SimdTierName(tier);
      EXPECT_EQ(scale_out, scale_ref)
          << "scale n=" << n << " tier=" << SimdTierName(tier);
      EXPECT_EQ(add_out, add_ref)
          << "add n=" << n << " tier=" << SimdTierName(tier);
      EXPECT_EQ(sub_out, sub_ref)
          << "sub n=" << n << " tier=" << SimdTierName(tier);
    }

    // The fused step under every combination of its optional terms, over
    // batches around the register groups; w and ‖w‖² must both match.
    const std::vector<double> linear = RandomValues(n, &rng);
    const std::vector<double> noise = RandomValues(n, &rng);
    for (size_t batch : {1u, 3u, 50u}) {
      std::vector<std::vector<double>> rows;
      for (size_t k = 0; k < batch; ++k) rows.push_back(RandomValues(n, &rng));
      const std::vector<const double*> pointers = RowPointers(rows);
      const std::vector<double> coeffs = RandomValues(batch, &rng);
      for (int mask = 0; mask < 8; ++mask) {
        SimdStepTerms terms;
        terms.reg = (mask & 1) != 0 ? 0.013 : 0.0;
        terms.linear = (mask & 2) != 0 ? linear.data() : nullptr;
        terms.linear_coeff = 0.25;
        terms.noise = (mask & 4) != 0 ? noise.data() : nullptr;
        terms.neg_eta = a;
        std::vector<double> step_ref = y;
        double norm_ref;
        {
          ScopedSimdTier scalar(SimdTier::kScalar);
          norm_ref = SimdBatchStep(pointers.data(), coeffs.data(), batch,
                                   terms, step_ref.data(), n);
          EXPECT_EQ(norm_ref, SimdSquaredNorm(step_ref.data(), n));
        }
        for (SimdTier tier : SupportedTiers()) {
          ScopedSimdTier forced(tier);
          std::vector<double> step_out = y;
          const double norm = SimdBatchStep(pointers.data(), coeffs.data(),
                                            batch, terms, step_out.data(), n);
          const std::string where = " n=" + std::to_string(n) +
                                    " batch=" + std::to_string(batch) +
                                    " terms=" + std::to_string(mask) +
                                    " tier=" + SimdTierName(tier);
          EXPECT_EQ(step_out, step_ref) << "batch_step" << where;
          EXPECT_EQ(norm, norm_ref) << "batch_step norm" << where;
        }
      }
    }
  }
}

TEST(SimdTest, StepKeepsTheRowByRowOrder) {
  // Per coordinate, the fused step is the row-by-row gradient it replaces:
  // each row's x term then its λw term, accumulated from +0.0, then the
  // noise, then the step. Rebuilt here from the elementwise kernels.
  Rng rng(5150);
  for (size_t n : Lengths()) {
    const std::vector<double> w = RandomValues(n, &rng);
    const std::vector<double> noise = RandomValues(n, &rng);
    std::vector<std::vector<double>> rows;
    for (size_t k = 0; k < 5; ++k) rows.push_back(RandomValues(n, &rng));
    const std::vector<const double*> pointers = RowPointers(rows);
    const std::vector<double> coeffs = RandomValues(rows.size(), &rng);
    SimdStepTerms terms;
    terms.reg = 0.02;
    terms.noise = noise.data();
    terms.neg_eta = -0.3;
    std::vector<double> grad(n, 0.0), expected = w;
    for (size_t k = 0; k < rows.size(); ++k) {
      SimdAxpy(coeffs[k], rows[k].data(), grad.data(), n);
      SimdAxpy(terms.reg, w.data(), grad.data(), n);
    }
    SimdAdd(grad.data(), noise.data(), n);
    SimdAxpy(terms.neg_eta, grad.data(), expected.data(), n);
    for (SimdTier tier : SupportedTiers()) {
      ScopedSimdTier forced(tier);
      std::vector<double> out = w;
      const double norm = SimdBatchStep(pointers.data(), coeffs.data(),
                                        rows.size(), terms, out.data(), n);
      EXPECT_EQ(out, expected) << "n=" << n << " tier=" << SimdTierName(tier);
      EXPECT_EQ(norm, SimdSquaredNorm(expected.data(), n))
          << "n=" << n << " tier=" << SimdTierName(tier);
    }
  }
}

TEST(SimdTest, SpecialValuesPropagateIdentically) {
  // NaN/Inf handling must also match the scalar reference bit-for-bit in
  // structure (NaN payloads aside, the *pattern* of non-finite results and
  // finite values must agree; we compare bitwise on finite entries and
  // classification on non-finite ones).
  std::vector<double> x = {1.0, -2.0, std::numeric_limits<double>::infinity(),
                           4.0, 5e300, -5e300, 7.0, 8.0, 9.0, -1.5};
  std::vector<double> y = {0.5, 0.25, 2.0, 1.0, 5e300, 5e300, 0.125, 2.0,
                           -3.0, 4.0};
  const size_t n = x.size();
  double expected;
  {
    ScopedSimdTier scalar(SimdTier::kScalar);
    expected = SimdDot(x.data(), y.data(), n);
  }
  for (SimdTier tier : SupportedTiers()) {
    ScopedSimdTier forced(tier);
    const double got = SimdDot(x.data(), y.data(), n);
    if (std::isnan(expected)) {
      EXPECT_TRUE(std::isnan(got)) << SimdTierName(tier);
    } else {
      EXPECT_EQ(got, expected) << SimdTierName(tier);
    }
  }

  // The step kernels on the same values: a row holding an infinity and
  // products past the double range, a margin that overflows, and steps of
  // two rows and of one whose ‖w‖² is infinite. Finite entries must match
  // bit for bit and non-finite ones by class.
  auto same = [](const std::vector<double>& got,
                 const std::vector<double>& want, const char* what,
                 SimdTier tier) {
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      if (std::isnan(want[i])) {
        EXPECT_TRUE(std::isnan(got[i])) << what << " i=" << i << " "
                                        << SimdTierName(tier);
      } else {
        EXPECT_EQ(got[i], want[i]) << what << " i=" << i << " "
                                   << SimdTierName(tier);
      }
    }
  };
  const std::vector<const double*> rows = {x.data(), y.data()};
  const std::vector<double> coeffs = {1e10, -0.5};
  SimdStepTerms terms;
  terms.reg = 0.5;
  terms.neg_eta = -1.0;
  std::vector<double> margins_ref(2), step_ref = y, row_ref = y;
  double norm_ref, row_norm_ref;
  {
    ScopedSimdTier scalar(SimdTier::kScalar);
    SimdBatchMargins(rows.data(), 2, y.data(), n, margins_ref.data());
    norm_ref = SimdBatchStep(rows.data(), coeffs.data(), 2, terms,
                             step_ref.data(), n);
    row_norm_ref = SimdBatchStep(rows.data(), coeffs.data(), 1, terms,
                                 row_ref.data(), n);
  }
  for (SimdTier tier : SupportedTiers()) {
    ScopedSimdTier forced(tier);
    std::vector<double> margins(2), step_out = y, row_out = y;
    SimdBatchMargins(rows.data(), 2, y.data(), n, margins.data());
    const double norm = SimdBatchStep(rows.data(), coeffs.data(), 2, terms,
                                      step_out.data(), n);
    const double row_norm = SimdBatchStep(rows.data(), coeffs.data(), 1,
                                          terms, row_out.data(), n);
    same(margins, margins_ref, "batch_margins", tier);
    same(step_out, step_ref, "batch_step", tier);
    same(row_out, row_ref, "one_row_step", tier);
    same({norm, row_norm}, {norm_ref, row_norm_ref}, "norms", tier);
  }
}

TEST(SimdTest, SparseDotBitIdenticalToDenseDot) {
  // The sparse gather must reproduce the dense canonical order exactly:
  // SimdSparseDot(sparsify(x), y) == SimdDot(x, y) bit-for-bit at every
  // tier, including pure-tail dims and ~70%-zero vectors.
  Rng rng(777);
  for (size_t n : Lengths()) {
    std::vector<double> x = RandomValues(n, &rng);
    const std::vector<double> y = RandomValues(n, &rng);
    std::vector<std::pair<size_t, double>> entries;
    for (size_t i = 0; i < n; ++i) {
      if (rng.UniformDouble(0.0, 1.0) < 0.7) {
        x[i] = 0.0;
      } else {
        entries.emplace_back(i, x[i]);
      }
    }
    for (SimdTier tier : SupportedTiers()) {
      ScopedSimdTier forced(tier);
      EXPECT_EQ(SimdSparseDot(entries.data(), entries.size(), y.data(), n),
                SimdDot(x.data(), y.data(), n))
          << "sparse dot n=" << n << " tier=" << SimdTierName(tier);
    }
  }
}

TEST(SimdTest, SmallDimensionsMatchSequentialSum) {
  // For n < 8 the canonical order degenerates to a plain sequential sum
  // (all 8 lanes empty, tail in index order) — the pre-SIMD behavior, so
  // small-dimension callers see unchanged numerics.
  const std::vector<double> x = {0.1, 0.2, 0.3, 0.4, 0.5};
  const std::vector<double> y = {1.0, 2.0, 3.0, 4.0, 5.0};
  double sequential = 0.0;
  for (size_t i = 0; i < x.size(); ++i) sequential += x[i] * y[i];
  EXPECT_EQ(SimdDot(x.data(), y.data(), x.size()), sequential);
}

}  // namespace
}  // namespace bolton
