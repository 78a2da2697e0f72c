#include "engine/driver.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/scs13.h"
#include "data/synthetic.h"
#include "engine/bolt_on_driver.h"
#include "engine/sgd_uda.h"
#include "ml/metrics.h"
#include "optim/schedule.h"
#include "random/dp_noise.h"

namespace bolton {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Dataset MakeData(size_t m = 400, uint64_t seed = 171) {
  SyntheticConfig config;
  config.num_examples = m;
  config.dim = 8;
  config.margin = 2.0;
  config.noise_stddev = 0.5;
  config.seed = seed;
  return GenerateSynthetic(config).MoveValue();
}

// ---------------------------------------------------------------------------
// SgdUda unit behavior.
// ---------------------------------------------------------------------------

TEST(SgdUdaTest, SingleTransitionMatchesManualUpdate) {
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.25).MoveValue();
  SgdUdaOptions options;  // batch 1
  SgdUda uda(*loss, *schedule, options);

  Vector w0{0.1, -0.2};
  uda.Initialize(w0);
  Example e{Vector{1.0, 0.0}, +1};
  uda.Transition(e);
  Vector w1 = uda.Terminate();

  Vector expected = w0 - 0.25 * loss->Gradient(w0, e.x, e.label);
  EXPECT_NEAR(Distance(w1, expected), 0.0, 1e-12);
}

TEST(SgdUdaTest, MiniBatchAveragesGradients) {
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.5).MoveValue();
  SgdUdaOptions options;
  options.batch_size = 2;
  SgdUda uda(*loss, *schedule, options);

  Vector w0(2);
  uda.Initialize(w0);
  Example a{Vector{1.0, 0.0}, +1};
  Example b{Vector{0.0, 1.0}, -1};
  uda.Transition(a);
  uda.Transition(b);
  Vector w1 = uda.Terminate();

  Vector grad = 0.5 * (loss->Gradient(w0, a.x, a.label) +
                       loss->Gradient(w0, b.x, b.label));
  Vector expected = w0 - 0.5 * grad;
  EXPECT_NEAR(Distance(w1, expected), 0.0, 1e-12);
}

TEST(SgdUdaTest, TerminateFlushesPartialBatch) {
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.5).MoveValue();
  SgdUdaOptions options;
  options.batch_size = 10;
  SgdUda uda(*loss, *schedule, options);
  uda.Initialize(Vector(2));
  uda.Transition(Example{Vector{1.0, 0.0}, +1});  // one row, batch of 10
  Vector w1 = uda.Terminate();
  EXPECT_GT(w1.Norm(), 0.0);  // the partial batch still produced an update
  EXPECT_EQ(uda.stats().updates, 1u);
}

TEST(SgdUdaTest, StepCounterPersistsAcrossEpochs) {
  // With a decreasing schedule, epoch 2 must continue at t = m+1, not t = 1.
  auto loss = MakeLogisticLoss(0.1, 10.0).MoveValue();
  auto schedule = MakeInverseTimeStep(0.1, kInf).MoveValue();
  SgdUdaOptions options;
  SgdUda uda(*loss, *schedule, options);

  Example e{Vector{1.0}, +1};
  uda.Initialize(Vector(1));
  uda.Transition(e);
  Vector after_first = uda.Terminate();
  uda.Initialize(after_first);
  uda.Transition(e);
  uda.Terminate();
  EXPECT_EQ(uda.stats().updates, 2u);
  // Indirect check: a second epoch with step 1/(γ·2) moves less than a
  // restarted schedule would; just assert the global counter advanced.
  EXPECT_EQ(uda.stats().gradient_evaluations, 2u);
}

TEST(SgdUdaTest, ProjectionApplied) {
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(10.0).MoveValue();
  SgdUdaOptions options;
  options.radius = 0.01;
  SgdUda uda(*loss, *schedule, options);
  uda.Initialize(Vector(2));
  uda.Transition(Example{Vector{1.0, 0.0}, +1});
  EXPECT_LE(uda.Terminate().Norm(), 0.01 + 1e-12);
}

// ---------------------------------------------------------------------------
// Driver (epoch loop + convergence test).
// ---------------------------------------------------------------------------

TEST(DriverTest, TrainsToHighAccuracy) {
  Dataset data = MakeData();
  auto table = MakeTable(data, StorageMode::kMemory).MoveValue();
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.3).MoveValue();
  DriverOptions options;
  options.max_epochs = 10;
  options.batch_size = 10;
  Rng rng(1);
  auto out = RunSgdDriver(table.get(), *loss, *schedule, options, &rng);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().epochs_run, 10u);
  EXPECT_EQ(out.value().epoch_seconds.size(), 10u);
  EXPECT_GT(BinaryAccuracy(out.value().model, data), 0.9);
  EXPECT_EQ(out.value().stats.gradient_evaluations, 10 * data.size());
}

TEST(DriverTest, ConvergenceTestStopsEarly) {
  Dataset data = MakeData();
  auto table = MakeTable(data, StorageMode::kMemory).MoveValue();
  const double lambda = 0.1;
  auto loss = MakeLogisticLoss(lambda, 1.0 / lambda).MoveValue();
  auto schedule =
      MakeInverseTimeStep(loss->strong_convexity(), loss->smoothness())
          .MoveValue();
  DriverOptions options;
  options.max_epochs = 100;
  options.tolerance = 0.05;  // loose: should stop well before 100 epochs
  options.batch_size = 10;
  options.radius = loss->radius();
  Rng rng(2);
  auto out = RunSgdDriver(table.get(), *loss, *schedule, options, &rng);
  ASSERT_TRUE(out.ok());
  EXPECT_LT(out.value().epochs_run, 100u);
}

TEST(DriverTest, WhiteBoxNoiseSampledPerUpdate) {
  Dataset data = MakeData(200, 172);
  auto table = MakeTable(data, StorageMode::kMemory).MoveValue();
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeInverseSqrtStep(1.0).MoveValue();

  // Run the SCS13-style noise through the engine's white-box path.
  class EngineNoise final : public GradientNoiseSource {
   public:
    Result<Vector> Sample(size_t, size_t dim, Rng* rng) override {
      return SampleSphericalLaplace(dim, 0.04, 1.0, rng);
    }
  } noise;

  DriverOptions options;
  options.max_epochs = 2;
  options.batch_size = 50;
  Rng rng(3);
  auto out =
      RunSgdDriver(table.get(), *loss, *schedule, options, &rng, &noise);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().stats.noise_samples, 8u);  // 2 epochs × 4 updates
}

TEST(DriverTest, DiskTableTrainsIdenticallyWell) {
  Dataset data = MakeData(300, 173);
  std::string path = ::testing::TempDir() + "driver_disk_test.bin";
  auto table = MakeTable(data, StorageMode::kDisk, path, 32).MoveValue();
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.3).MoveValue();
  DriverOptions options;
  options.max_epochs = 5;
  options.batch_size = 10;
  Rng rng(4);
  auto out = RunSgdDriver(table.get(), *loss, *schedule, options, &rng);
  ASSERT_TRUE(out.ok());
  EXPECT_GT(BinaryAccuracy(out.value().model, data), 0.85);
}

TEST(DriverTest, Validation) {
  Dataset data = MakeData(50, 174);
  auto table = MakeTable(data, StorageMode::kMemory).MoveValue();
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.1).MoveValue();
  Rng rng(5);
  DriverOptions options;
  EXPECT_FALSE(
      RunSgdDriver(nullptr, *loss, *schedule, options, &rng).ok());
  options.max_epochs = 0;
  EXPECT_FALSE(
      RunSgdDriver(table.get(), *loss, *schedule, options, &rng).ok());
  options = DriverOptions{};
  options.batch_size = 1000;
  EXPECT_FALSE(
      RunSgdDriver(table.get(), *loss, *schedule, options, &rng).ok());
}

// ---------------------------------------------------------------------------
// Bolt-on private driver (Figure 1B integration).
// ---------------------------------------------------------------------------

TEST(BoltOnDriverTest, ConvexPrivateModelIsDriverPlusNoise) {
  // m = 256, so Table 4's default η = 1/√m = 1/16 differs from the set
  // constant step 0.05 (at m = 400 the two would coincide).
  Dataset data = MakeData(256);
  auto table = MakeTable(data, StorageMode::kMemory).MoveValue();
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  for (double constant_step : {0.0, 0.05}) {
    BoltOnOptions options;
    options.privacy = PrivacyParams{1.0, 0.0};
    options.passes = 5;
    options.batch_size = 10;
    options.constant_step = constant_step;
    Rng rng(6);
    auto out = RunBoltOnPrivateDriver(table.get(), *loss, options,
                                      /*tolerance=*/0.0, &rng);
    ASSERT_TRUE(out.ok());
    const auto& priv = out.value().private_output;
    Vector kappa = priv.model - priv.noiseless_model;
    EXPECT_NEAR(kappa.Norm(), priv.noise_norm, 1e-12);
    EXPECT_EQ(out.value().driver.epochs_run, 5u);
    // Sensitivity matches Corollary 1 with the realized epoch count.
    const double eta =
        constant_step > 0.0
            ? constant_step
            : 1.0 / std::sqrt(static_cast<double>(data.size()));
    EXPECT_DOUBLE_EQ(priv.sensitivity,
                     2.0 * 5 * loss->lipschitz() * eta / 10.0)
        << "constant_step " << constant_step;
    // Zero white-box noise draws — black-box integration.
    EXPECT_EQ(out.value().driver.stats.noise_samples, 0u);
  }
}

TEST(BoltOnDriverTest, ConvexRejectsConvergenceStopping) {
  Dataset data = MakeData(100, 175);
  auto table = MakeTable(data, StorageMode::kMemory).MoveValue();
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  BoltOnOptions options;
  options.privacy = PrivacyParams{1.0, 0.0};
  Rng rng(7);
  EXPECT_EQ(RunBoltOnPrivateDriver(table.get(), *loss, options,
                                   /*tolerance=*/0.01, &rng)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(BoltOnDriverTest, StronglyConvexAllowsEarlyStopWithSameSensitivity) {
  Dataset data = MakeData();
  auto table = MakeTable(data, StorageMode::kMemory).MoveValue();
  const double lambda = 0.1;
  auto loss = MakeLogisticLoss(lambda, 1.0 / lambda).MoveValue();
  BoltOnOptions options;
  options.privacy = PrivacyParams{1.0, 0.0};
  options.passes = 100;
  options.batch_size = 10;
  Rng rng(8);
  auto out = RunBoltOnPrivateDriver(table.get(), *loss, options,
                                    /*tolerance=*/0.05, &rng);
  ASSERT_TRUE(out.ok());
  EXPECT_LT(out.value().driver.epochs_run, 100u);
  // Lemma 8's Δ₂ is pass-count independent, so early stopping is private.
  EXPECT_DOUBLE_EQ(
      out.value().private_output.sensitivity,
      2.0 * loss->lipschitz() / (lambda * data.size() * 10.0));
}

TEST(BoltOnDriverTest, IntegrationMatchesDirectAlgorithmStatistically) {
  // The engine path and the library path implement the same Algorithm 2;
  // their accuracies on the same data should be close at moderate ε.
  Dataset data = MakeData(1000, 176);
  auto table = MakeTable(data, StorageMode::kMemory).MoveValue();
  const double lambda = 0.01;
  auto loss = MakeLogisticLoss(lambda, 1.0 / lambda).MoveValue();
  BoltOnOptions options;
  options.privacy = PrivacyParams{4.0, 0.0};
  options.passes = 10;
  options.batch_size = 50;

  Rng rng_engine(9);
  auto engine_out = RunBoltOnPrivateDriver(table.get(), *loss, options, 0.0,
                                           &rng_engine);
  ASSERT_TRUE(engine_out.ok());
  Rng rng_direct(10);
  auto direct_out = PrivatePsgd(data, *loss, options, &rng_direct);
  ASSERT_TRUE(direct_out.ok());

  double engine_acc =
      BinaryAccuracy(engine_out.value().private_output.model, data);
  double direct_acc = BinaryAccuracy(direct_out.value().model, data);
  EXPECT_NEAR(engine_acc, direct_acc, 0.1);
  // And the sensitivities are identical by construction.
  EXPECT_DOUBLE_EQ(engine_out.value().private_output.sensitivity,
                   direct_out.value().sensitivity);
}

}  // namespace
}  // namespace bolton
