// Empirical differential-privacy property tests: run the WHOLE private
// pipeline many times on neighboring datasets S ~ S′ and verify the defining
// inequality Pr[A(S) ∈ E] ≤ e^ε · Pr[A(S′) ∈ E] on a family of events E
// (histogram bins of a 1-D projection of the output model).
//
// A sampling-based check can only ever refute DP, not prove it, so the
// assertions carry statistical slack; but they reliably catch calibration
// bugs of the "forgot to divide by ε" magnitude, which unit tests of the
// formulas alone cannot.
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/private_sgd.h"
#include "data/synthetic.h"
#include "optim/schedule.h"
#include "random/distributions.h"

namespace bolton {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Histograms `samples` into `bins` equal-width cells over [lo, hi], with
// underflow/overflow collapsed into the edge cells.
std::vector<double> Histogram(const std::vector<double>& samples, double lo,
                              double hi, size_t bins) {
  std::vector<double> counts(bins, 0.0);
  for (double s : samples) {
    double t = (s - lo) / (hi - lo);
    auto bin = static_cast<long>(std::floor(t * static_cast<double>(bins)));
    bin = std::max(0l, std::min(static_cast<long>(bins) - 1, bin));
    counts[static_cast<size_t>(bin)] += 1.0;
  }
  for (double& c : counts) c /= static_cast<double>(samples.size());
  return counts;
}

// Largest log-likelihood ratio over bins where both sides have enough mass
// for the estimate to be meaningful.
double MaxLogRatio(const std::vector<double>& p, const std::vector<double>& q,
                   double min_mass) {
  double worst = 0.0;
  for (size_t i = 0; i < p.size(); ++i) {
    if (p[i] < min_mass || q[i] < min_mass) continue;
    worst = std::max(worst, std::abs(std::log(p[i] / q[i])));
  }
  return worst;
}

class DpPropertyTest : public ::testing::Test {
 protected:
  static Dataset MakeSmallData() {
    SyntheticConfig config;
    config.num_examples = 60;
    config.dim = 4;
    config.margin = 1.5;
    config.noise_stddev = 0.6;
    config.seed = 301;
    return GenerateSynthetic(config).MoveValue();
  }

  // Draws `runs` private models on `data` and returns their projections
  // onto a fixed direction.
  static std::vector<double> SampleOutputs(const Dataset& data,
                                           const BoltOnOptions& options,
                                           const Vector& direction,
                                           int runs, uint64_t seed_base) {
    std::vector<double> projections;
    projections.reserve(runs);
    auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
    for (int r = 0; r < runs; ++r) {
      Rng rng(seed_base + r);
      auto out = PrivatePsgd(data, *loss, options, &rng);
      out.status().CheckOK();
      projections.push_back(Dot(out.value().model, direction));
    }
    return projections;
  }
};

TEST_F(DpPropertyTest, LikelihoodRatioBoundedByEpsilon) {
  Dataset data = MakeSmallData();
  Dataset neighbor = data;
  Example flipped = data[10];
  flipped.label = -flipped.label;
  neighbor.Replace(10, flipped);

  BoltOnOptions options;
  options.privacy = PrivacyParams{0.5, 0.0};
  options.passes = 2;
  options.batch_size = 1;

  Rng dir_rng(5);
  Vector direction = SampleUnitSphere(data.dim(), &dir_rng);
  const int runs = 4000;
  std::vector<double> on_s = SampleOutputs(data, options, direction, runs, 1);
  std::vector<double> on_s_prime =
      SampleOutputs(neighbor, options, direction, runs, 100001);

  // Common support for the histograms.
  double lo = 1e300, hi = -1e300;
  for (double v : on_s) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  for (double v : on_s_prime) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::vector<double> p = Histogram(on_s, lo, hi, 12);
  std::vector<double> q = Histogram(on_s_prime, lo, hi, 12);

  // The defining ε-DP bound, with sampling slack: with 4000 samples per
  // side and bins holding ≥ 2% mass, the per-bin ratio estimate is accurate
  // to ~±0.25 in log space at 5+ sigmas.
  double worst = MaxLogRatio(p, q, /*min_mass=*/0.02);
  EXPECT_LE(worst, options.privacy.epsilon + 0.35)
      << "observed log-likelihood ratio incompatible with eps="
      << options.privacy.epsilon;
}

TEST_F(DpPropertyTest, NeighborsAreDistinguishableWithoutNoise) {
  // Sanity check of the test's own power: with NO privacy noise the two
  // output distributions are point masses at different locations, so the
  // same statistic blows past the ε bound. (If this ever fails, the
  // likelihood-ratio test above has lost its teeth.)
  Dataset data = MakeSmallData();
  Dataset neighbor = data;
  Example flipped = data[10];
  flipped.label = -flipped.label;
  neighbor.Replace(10, flipped);

  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.2).MoveValue();
  PsgdOptions options;
  options.passes = 2;
  Rng rng_a(7), rng_b(7);
  auto run_a = RunPsgd(data, *loss, *schedule, options, &rng_a);
  auto run_b = RunPsgd(neighbor, *loss, *schedule, options, &rng_b);
  ASSERT_TRUE(run_a.ok() && run_b.ok());
  EXPECT_GT(Distance(run_a.value().model, run_b.value().model), 0.0);
}

TEST_F(DpPropertyTest, OutputDistributionWidensAsEpsilonShrinks) {
  Dataset data = MakeSmallData();
  Rng dir_rng(9);
  Vector direction = SampleUnitSphere(data.dim(), &dir_rng);

  auto spread = [&](double epsilon) {
    BoltOnOptions options;
    options.privacy = PrivacyParams{epsilon, 0.0};
    options.passes = 2;
    options.batch_size = 1;
    std::vector<double> outs =
        SampleOutputs(data, options, direction, 500, 42);
    double mean = 0.0;
    for (double v : outs) mean += v;
    mean /= outs.size();
    double var = 0.0;
    for (double v : outs) var += (v - mean) * (v - mean);
    return var / outs.size();
  };
  EXPECT_GT(spread(0.1), 4.0 * spread(2.0));
}

}  // namespace
}  // namespace bolton
