#include "core/private_sgd.h"

#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "ml/metrics.h"

namespace bolton {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Dataset MakeData(size_t m = 500, uint64_t seed = 91) {
  SyntheticConfig config;
  config.num_examples = m;
  config.dim = 10;
  config.margin = 2.0;
  config.noise_stddev = 0.5;
  config.seed = seed;
  return GenerateSynthetic(config).MoveValue();
}

TEST(BoltOnPerturbTest, ModelIsNoiselessPlusNoise) {
  Vector model{1.0, 2.0, 3.0};
  Rng rng(1);
  auto out = BoltOnPerturb(model, 0.5, PrivacyParams{1.0, 0.0}, &rng);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().noiseless_model, model);
  EXPECT_DOUBLE_EQ(out.value().sensitivity, 0.5);
  // model = noiseless + κ with ‖κ‖ recorded exactly.
  Vector kappa = out.value().model - model;
  EXPECT_NEAR(kappa.Norm(), out.value().noise_norm, 1e-12);
  EXPECT_GT(out.value().noise_norm, 0.0);
}

TEST(BoltOnPerturbTest, ZeroSensitivityAddsNothing) {
  Vector model{1.0, 2.0};
  Rng rng(2);
  auto out = BoltOnPerturb(model, 0.0, PrivacyParams{1.0, 0.0}, &rng);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().model, model);
  EXPECT_DOUBLE_EQ(out.value().noise_norm, 0.0);
}

TEST(BoltOnPerturbTest, Validation) {
  Rng rng(3);
  Vector model{1.0};
  EXPECT_FALSE(BoltOnPerturb(model, -1.0, PrivacyParams{1.0, 0.0}, &rng).ok());
  EXPECT_FALSE(BoltOnPerturb(model, 1.0, PrivacyParams{0.0, 0.0}, &rng).ok());
  EXPECT_FALSE(BoltOnPerturb(Vector(), 1.0, PrivacyParams{1.0, 0.0}, &rng).ok());
}

TEST(PrivateConvexPsgdTest, SensitivityMatchesCorollary1) {
  Dataset data = MakeData();
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  BoltOnOptions options;
  options.privacy = PrivacyParams{1.0, 0.0};
  options.passes = 10;
  options.batch_size = 50;
  Rng rng(4);
  auto out = PrivatePsgd(data, *loss, options, &rng);
  ASSERT_TRUE(out.ok());
  const double eta = 1.0 / std::sqrt(static_cast<double>(data.size()));
  EXPECT_DOUBLE_EQ(out.value().sensitivity,
                   2.0 * 10 * loss->lipschitz() * eta / 50.0);
  EXPECT_EQ(out.value().stats.gradient_evaluations, 10 * data.size());
  // One noise draw only — that is the whole point of the bolt-on approach.
  EXPECT_EQ(out.value().stats.noise_samples, 0u);
}

TEST(PrivateStronglyConvexPsgdTest, SensitivityMatchesLemma8) {
  Dataset data = MakeData();
  const double lambda = 0.01;
  auto loss = MakeLogisticLoss(lambda, 1.0 / lambda).MoveValue();
  BoltOnOptions options;
  options.privacy = PrivacyParams{1.0, 0.0};
  options.passes = 10;
  options.batch_size = 50;
  Rng rng(6);
  auto out = PrivatePsgd(data, *loss, options, &rng);
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(
      out.value().sensitivity,
      2.0 * loss->lipschitz() / (lambda * data.size() * 50.0));
}

TEST(PrivatePsgdTest, DispatchesOnConvexity) {
  Dataset data = MakeData();
  auto convex = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto strong = MakeLogisticLoss(0.01, 100.0).MoveValue();
  BoltOnOptions options;
  options.privacy = PrivacyParams{1.0, 0.0};
  options.passes = 2;
  options.batch_size = 10;
  Rng rng(8);
  EXPECT_TRUE(PrivatePsgd(data, *convex, options, &rng).ok());
  EXPECT_TRUE(PrivatePsgd(data, *strong, options, &rng).ok());
}

TEST(PrivatePsgdTest, GaussianMechanismSelectedForDeltaPositive) {
  Dataset data = MakeData();
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  BoltOnOptions options;
  options.privacy = PrivacyParams{0.5, 1e-6};
  options.passes = 5;
  options.batch_size = 10;
  Rng rng(9);
  EXPECT_TRUE(PrivatePsgd(data, *loss, options, &rng).ok());
  // Gaussian mechanism (Theorem 3) requires ε < 1.
  options.privacy = PrivacyParams{2.0, 1e-6};
  EXPECT_FALSE(PrivatePsgd(data, *loss, options, &rng).ok());
}

TEST(PrivatePsgdTest, NoiseShrinksWithEpsilon) {
  Dataset data = MakeData();
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  BoltOnOptions options;
  options.passes = 5;
  options.batch_size = 10;
  // Average over repeats; E‖κ‖ scales as 1/ε.
  auto mean_noise = [&](double eps) {
    double total = 0.0;
    for (uint64_t seed = 0; seed < 30; ++seed) {
      Rng rng(100 + seed);
      BoltOnOptions o = options;
      o.privacy = PrivacyParams{eps, 0.0};
      total += PrivatePsgd(data, *loss, o, &rng).value().noise_norm;
    }
    return total / 30.0;
  };
  EXPECT_GT(mean_noise(0.1), 5.0 * mean_noise(4.0));
}

TEST(PrivatePsgdTest, HighEpsilonApproachesNoiselessAccuracy) {
  Dataset data = MakeData(2000, 93);
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  BoltOnOptions options;
  options.passes = 10;
  options.batch_size = 50;
  options.privacy = PrivacyParams{100.0, 0.0};
  Rng rng(10);
  auto out = PrivatePsgd(data, *loss, options, &rng);
  ASSERT_TRUE(out.ok());
  double noiseless_acc = BinaryAccuracy(out.value().noiseless_model, data);
  double private_acc = BinaryAccuracy(out.value().model, data);
  EXPECT_GT(noiseless_acc, 0.9);
  EXPECT_GT(private_acc, noiseless_acc - 0.05);
}

TEST(PrivatePsgdTest, StronglyConvexPassCountDoesNotChangeSensitivity) {
  // §4.3: "the number of passes k is oblivious to private SGD" in the
  // strongly convex case.
  Dataset data = MakeData();
  auto loss = MakeLogisticLoss(0.01, 100.0).MoveValue();
  BoltOnOptions options;
  options.privacy = PrivacyParams{1.0, 0.0};
  options.batch_size = 10;
  Rng rng_a(11), rng_b(12);
  options.passes = 1;
  double s1 = PrivatePsgd(data, *loss, options, &rng_a).value().sensitivity;
  options.passes = 20;
  double s20 = PrivatePsgd(data, *loss, options, &rng_b).value().sensitivity;
  EXPECT_DOUBLE_EQ(s1, s20);
}

/// A strongly convex loss with no hypothesis ball, as a caller's own
/// LossFunction may report; the built-in factories refuse to build one.
class UnconstrainedStronglyConvexLoss : public LossFunction {
 public:
  UnconstrainedStronglyConvexLoss() : LossFunction(0.0) {}
  double Value(double, double) const override { return 0.0; }
  double Derivative(double, double) const override { return 0.0; }
  double lipschitz() const override { return 1.0; }
  double smoothness() const override { return 1.25; }
  double strong_convexity() const override { return 0.01; }
  double radius() const override { return kInf; }
  std::string name() const override { return "unconstrained"; }
  std::unique_ptr<LossFunction> Clone() const override {
    return std::make_unique<UnconstrainedStronglyConvexLoss>();
  }
};

TEST(PrivatePsgdTest, StronglyConvexLossNeedsFiniteRadius) {
  // Lemma 8 holds for projected PSGD only; a noiseless run needs no radius.
  Dataset data = MakeData();
  UnconstrainedStronglyConvexLoss loss;
  BoltOnOptions options;
  options.privacy = PrivacyParams{1.0, 0.0};
  Rng rng(14);
  EXPECT_EQ(PrivatePsgd(data, loss, options, &rng).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(
      PlanBlackBoxRun(loss, data.size(), options, /*bolt_on=*/false).ok());
}

TEST(PrivatePsgdTest, EmptyDataRejected) {
  Dataset empty(5, 2);
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  BoltOnOptions options;
  options.privacy = PrivacyParams{1.0, 0.0};
  Rng rng(13);
  EXPECT_FALSE(PrivatePsgd(empty, *loss, options, &rng).ok());
}

}  // namespace
}  // namespace bolton
