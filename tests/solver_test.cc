#include "core/solver.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/private_sgd.h"
#include "data/synthetic.h"
#include "ml/trainer.h"
#include "optim/parallel_executor.h"
#include "optim/schedule.h"

namespace bolton {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Dataset MakeTrainingSet(size_t m = 200, uint64_t seed = 77) {
  SyntheticConfig config;
  config.num_examples = m;
  config.dim = 6;
  config.margin = 2.0;
  config.noise_stddev = 0.5;
  config.seed = seed;
  return GenerateSynthetic(config).MoveValue();
}

TEST(AlgorithmNamesTest, RoundTripsEveryValue) {
  for (Algorithm algorithm : kAllAlgorithms) {
    const std::string name = AlgorithmName(algorithm);
    EXPECT_NE(name, "unknown");
    auto parsed = ParseAlgorithm(name);
    ASSERT_TRUE(parsed.ok()) << name;
    EXPECT_EQ(parsed.value(), algorithm) << name;
  }
}

TEST(AlgorithmNamesTest, BoltOnAliasesParse) {
  for (const char* alias : {"ours", "bolton", "bolt-on"}) {
    auto parsed = ParseAlgorithm(alias);
    ASSERT_TRUE(parsed.ok()) << alias;
    EXPECT_EQ(parsed.value(), Algorithm::kBoltOn);
  }
}

TEST(AlgorithmNamesTest, UnknownNameListsEveryChoice) {
  auto parsed = ParseAlgorithm("sgd-with-vibes");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kNotFound);
  const Status status = parsed.status();
  const std::string& message = status.message();
  EXPECT_NE(message.find("sgd-with-vibes"), std::string::npos);
  for (Algorithm algorithm : kAllAlgorithms) {
    EXPECT_NE(message.find(AlgorithmName(algorithm)), std::string::npos)
        << "error message does not list " << AlgorithmName(algorithm);
  }
}

TEST(RunPrivateSolverTest, MatchesTrainBinaryForEveryAlgorithm) {
  Dataset data = MakeTrainingSet();
  for (Algorithm algorithm : kAllAlgorithms) {
    TrainerConfig config;
    config.algorithm = algorithm;
    config.lambda = 0.1;
    config.passes = 2;
    config.batch_size = 5;
    // BST14 requires δ > 0; the others accept it too.
    config.privacy = PrivacyParams{0.5, 1e-4};
    if (algorithm == Algorithm::kObjective) {
      config.privacy = PrivacyParams{0.5, 0.0};  // pure DP only
    }
    auto loss = MakeLossForConfig(config);
    ASSERT_TRUE(loss.ok());

    Rng trainer_rng(51), solver_rng(51);
    auto trained = TrainBinary(data, config, &trainer_rng);
    auto solved =
        RunPrivateSolver(algorithm, data, *loss.value(), config, &solver_rng);
    ASSERT_TRUE(trained.ok()) << AlgorithmName(algorithm) << ": "
                              << trained.status().ToString();
    ASSERT_TRUE(solved.ok()) << AlgorithmName(algorithm) << ": "
                             << solved.status().ToString();
    EXPECT_EQ(trained.value(), solved.value().model)
        << AlgorithmName(algorithm);
  }
}

// The black-box release rebuilt from its public stages, with Table 4's
// constants written out here rather than taken from the library's planner:
// noiseless runs PSGD on the caller's rng; bolt-on calibrates Δ₂, splits
// the caller's rng for PSGD and perturbs from the caller's rng.
TEST(RunPrivateSolverTest, BlackBoxReleaseIsItsStagesComposedByHand) {
  Dataset data = MakeTrainingSet(203);
  const double m = static_cast<double>(data.size());
  const PrivacyParams privacy{0.5, 0.0};
  size_t cases = 0;
  for (Algorithm algorithm : {Algorithm::kNoiseless, Algorithm::kBoltOn}) {
    const bool bolt_on = algorithm == Algorithm::kBoltOn;
    for (double lambda : {0.0, 0.01}) {
      auto loss = lambda > 0.0 ? MakeLogisticLoss(lambda, 1.0 / lambda)
                               : MakeLogisticLoss(0.0, kInf);
      ASSERT_TRUE(loss.ok());
      const LossFunction& l = *loss.value();
      for (size_t shards : {1, 4}) {
        for (size_t batch : {1, 10}) {
          for (double constant_step : {0.0, 0.05}) {
            if (lambda > 0.0 && constant_step > 0.0) continue;
            SCOPED_TRACE(testing::Message()
                         << AlgorithmName(algorithm) << " lambda=" << lambda
                         << " shards=" << shards << " b=" << batch
                         << " constant_step=" << constant_step);
            SolverSpec spec;
            spec.passes = 2;
            spec.batch_size = batch;
            spec.shards = shards;
            spec.privacy = privacy;
            spec.constant_step = constant_step;
            Rng solver_rng(71);
            auto solved =
                RunPrivateSolver(algorithm, data, l, spec, &solver_rng);
            ASSERT_TRUE(solved.ok()) << solved.status().ToString();

            // Table 4: convex runs take η = 1/√m (Algorithm 1 takes the
            // caller's η when set); strongly convex ones take 1/(γt),
            // capped at 1/β for Algorithm 2.
            double eta = 0.0;
            std::unique_ptr<StepSizeSchedule> schedule;
            if (lambda > 0.0) {
              schedule = MakeInverseTimeStep(lambda, bolt_on ? l.smoothness()
                                                             : kInf)
                             .MoveValue();
            } else {
              eta = bolt_on && constant_step > 0.0 ? constant_step
                                                   : 1.0 / std::sqrt(m);
              schedule = MakeConstantStep(eta).MoveValue();
            }
            PsgdOptions psgd;
            psgd.run() = spec.run();
            psgd.radius = l.radius();
            Rng reference_rng(71);
            Vector model;
            double sensitivity = 0.0;
            if (bolt_on) {
              sensitivity =
                  BoltOnSensitivity(l, eta,
                                    SensitivitySetup{spec.passes, batch,
                                                     data.size()},
                                    shards, /*use_corrected_minibatch=*/false,
                                    privacy)
                      .MoveValue();
              Rng psgd_rng = reference_rng.Split();
              Vector noiseless =
                  RunShardedPsgd(data, l, *schedule, psgd, &psgd_rng)
                      .MoveValue()
                      .model;
              model = BoltOnPerturb(noiseless, sensitivity, privacy,
                                    &reference_rng)
                          .MoveValue()
                          .model;
            } else {
              model = RunShardedPsgd(data, l, *schedule, psgd, &reference_rng)
                          .MoveValue()
                          .model;
            }
            ASSERT_EQ(solved.value().model.dim(), model.dim());
            EXPECT_EQ(std::memcmp(solved.value().model.data(), model.data(),
                                  model.dim() * sizeof(double)),
                      0);
            EXPECT_EQ(solved.value().sensitivity, sensitivity);
            EXPECT_EQ(solver_rng.Next(), reference_rng.Next());
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 24u);
}

TEST(RunPrivateSolverTest, NoiselessShardedRunsAndReportsShards) {
  Dataset data = MakeTrainingSet(240);
  auto loss = MakeLogisticLoss(0.1, 10.0).MoveValue();
  SolverSpec spec;
  spec.passes = 2;
  spec.batch_size = 1;
  spec.shards = 4;
  Rng rng(53);
  auto run = RunPrivateSolver(Algorithm::kNoiseless, data, *loss, spec, &rng);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().shards, 4u);
  EXPECT_EQ(run.value().model.dim(), data.dim());
}

TEST(RunPrivateSolverTest, WhiteBoxAlgorithmsRejectSharding) {
  Dataset data = MakeTrainingSet();
  auto loss = MakeLogisticLoss(0.1, 10.0).MoveValue();
  for (Algorithm algorithm :
       {Algorithm::kScs13, Algorithm::kBst14, Algorithm::kObjective}) {
    SolverSpec spec;
    spec.passes = 1;
    spec.batch_size = 5;
    spec.shards = 2;
    spec.privacy = PrivacyParams{0.5, 1e-4};
    Rng rng(59);
    auto run = RunPrivateSolver(algorithm, data, *loss, spec, &rng);
    ASSERT_FALSE(run.ok()) << AlgorithmName(algorithm);
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument)
        << AlgorithmName(algorithm);
    EXPECT_NE(run.status().message().find("shards"), std::string::npos)
        << run.status().ToString();
  }
}

TEST(RunPrivateSolverTest, ObjectiveRequiresLogisticAndPureDp) {
  Dataset data = MakeTrainingSet();
  SolverSpec spec;
  spec.privacy = PrivacyParams{0.5, 0.0};

  auto huber = MakeHuberSvmLoss(0.1, 0.1, 10.0).MoveValue();
  Rng rng(61);
  EXPECT_FALSE(
      RunPrivateSolver(Algorithm::kObjective, data, *huber, spec, &rng).ok());

  auto logistic = MakeLogisticLoss(0.1, 10.0).MoveValue();
  spec.privacy = PrivacyParams{0.5, 1e-4};
  EXPECT_FALSE(
      RunPrivateSolver(Algorithm::kObjective, data, *logistic, spec, &rng)
          .ok());
}

}  // namespace
}  // namespace bolton
