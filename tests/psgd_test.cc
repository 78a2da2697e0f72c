#include "optim/psgd.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "ml/metrics.h"
#include "optim/schedule.h"
#include "random/permutation.h"

namespace bolton {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Dataset MakeTrainingSet(size_t m = 400, uint64_t seed = 81) {
  SyntheticConfig config;
  config.num_examples = m;
  config.dim = 10;
  config.margin = 2.0;
  config.noise_stddev = 0.5;
  config.seed = seed;
  return GenerateSynthetic(config).MoveValue();
}

TEST(PsgdTest, ReducesEmpiricalRisk) {
  Dataset data = MakeTrainingSet();
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule =
      MakeConstantStep(1.0 / std::sqrt(static_cast<double>(data.size())))
          .MoveValue();
  PsgdOptions options;
  options.passes = 5;
  Rng rng(1);
  auto run = RunPsgd(data, *loss, *schedule, options, &rng);
  ASSERT_TRUE(run.ok());
  double trained_risk = loss->EmpiricalRisk(run.value().model, data);
  double zero_risk = loss->EmpiricalRisk(Vector(data.dim()), data);
  EXPECT_LT(trained_risk, zero_risk);
}

TEST(PsgdTest, LearnsSeparableData) {
  Dataset data = MakeTrainingSet(1000);
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.5).MoveValue();
  PsgdOptions options;
  options.passes = 10;
  options.batch_size = 10;
  Rng rng(2);
  auto run = RunPsgd(data, *loss, *schedule, options, &rng);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(BinaryAccuracy(run.value().model, data), 0.9);
}

TEST(PsgdTest, StatsCountCorrectly) {
  Dataset data = MakeTrainingSet(100);
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.1).MoveValue();
  PsgdOptions options;
  options.passes = 3;
  options.batch_size = 7;  // 100 = 14*7 + 2: 15 updates per pass
  Rng rng(3);
  auto run = RunPsgd(data, *loss, *schedule, options, &rng);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value().stats.gradient_evaluations, 300u);
  EXPECT_EQ(run.value().stats.updates, 45u);
  EXPECT_EQ(run.value().stats.noise_samples, 0u);
}

TEST(PsgdTest, ProjectionKeepsIterateInBall) {
  Dataset data = MakeTrainingSet(200);
  auto loss = MakeLogisticLoss(0.1, 10.0).MoveValue();
  auto schedule = MakeConstantStep(0.5).MoveValue();
  PsgdOptions options;
  options.passes = 5;
  options.radius = 0.05;  // tiny ball; unconstrained training would escape
  Rng rng(4);
  auto run = RunPsgd(data, *loss, *schedule, options, &rng);
  ASSERT_TRUE(run.ok());
  EXPECT_LE(run.value().model.Norm(), 0.05 + 1e-12);
}

TEST(PsgdTest, DeterministicForFixedSeed) {
  Dataset data = MakeTrainingSet(150);
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.2).MoveValue();
  PsgdOptions options;
  options.passes = 2;
  Rng rng_a(5), rng_b(5);
  auto a = RunPsgd(data, *loss, *schedule, options, &rng_a);
  auto b = RunPsgd(data, *loss, *schedule, options, &rng_b);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().model, b.value().model);
}

TEST(PsgdTest, AveragingChangesOutput) {
  Dataset data = MakeTrainingSet(150);
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.2).MoveValue();
  PsgdOptions options;
  options.passes = 2;
  Rng rng_a(6), rng_b(6);
  options.output = OutputMode::kLastIterate;
  auto last = RunPsgd(data, *loss, *schedule, options, &rng_a);
  options.output = OutputMode::kAverageAll;
  auto averaged = RunPsgd(data, *loss, *schedule, options, &rng_b);
  ASSERT_TRUE(last.ok() && averaged.ok());
  EXPECT_GT(Distance(last.value().model, averaged.value().model), 0.0);
  // The average of iterates has smaller norm than the last (we start at 0
  // and move outward on this data).
  EXPECT_LT(averaged.value().model.Norm(), last.value().model.Norm());
}

TEST(PsgdTest, FullBatchEqualsGradientDescent) {
  // With b = m, each pass is one full-gradient step — verify the single
  // update against a hand-computed one.
  Dataset data = MakeTrainingSet(50);
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.3).MoveValue();
  PsgdOptions options;
  options.passes = 1;
  options.batch_size = data.size();
  Rng rng(7);
  auto run = RunPsgd(data, *loss, *schedule, options, &rng);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value().stats.updates, 1u);

  Vector w(data.dim());
  Vector grad(data.dim());
  for (size_t i = 0; i < data.size(); ++i) {
    loss->AddGradient(w, data[i], 1.0 / data.size(), &grad);
  }
  w.Axpy(-0.3, grad);
  EXPECT_NEAR(Distance(run.value().model, w), 0.0, 1e-12);
}

TEST(PsgdTest, PassCallbackFiresPerPass) {
  Dataset data = MakeTrainingSet(60);
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.1).MoveValue();
  PsgdOptions options;
  options.passes = 4;
  Rng rng(8);
  std::vector<size_t> passes_seen;
  auto run = RunPsgd(data, *loss, *schedule, options, &rng, nullptr,
                     [&](size_t pass, const Vector& w) {
                       passes_seen.push_back(pass);
                       EXPECT_EQ(w.dim(), data.dim());
                     });
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(passes_seen, (std::vector<size_t>{1, 2, 3, 4}));
}

TEST(PsgdTest, WithReplacementSamplingRuns) {
  Dataset data = MakeTrainingSet(200);
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeInverseSqrtStep(0.5).MoveValue();
  PsgdOptions options;
  options.passes = 3;
  options.batch_size = 10;
  options.sampling = SamplingMode::kWithReplacement;
  Rng rng(9);
  auto run = RunPsgd(data, *loss, *schedule, options, &rng);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value().stats.updates, 60u);
  EXPECT_GT(BinaryAccuracy(run.value().model, data), 0.8);
}

TEST(PsgdTest, FreshPermutationStillLearns) {
  Dataset data = MakeTrainingSet(300);
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.3).MoveValue();
  PsgdOptions options;
  options.passes = 5;
  options.fresh_permutation_each_pass = true;
  Rng rng(10);
  auto run = RunPsgd(data, *loss, *schedule, options, &rng);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(BinaryAccuracy(run.value().model, data), 0.9);
}

// A per-step noise hook must be sampled once per update and added to the
// gradient; a deterministic "noise" of zero must not change the output.
class CountingNoise final : public GradientNoiseSource {
 public:
  Result<Vector> Sample(size_t, size_t dim, Rng*) override {
    ++calls_;
    return Vector(dim);
  }
  size_t calls() const { return calls_; }

 private:
  size_t calls_ = 0;
};

TEST(PsgdTest, NoiseHookSampledPerUpdate) {
  Dataset data = MakeTrainingSet(100);
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.1).MoveValue();
  PsgdOptions options;
  options.passes = 2;
  options.batch_size = 10;
  CountingNoise noise;
  Rng rng_a(11), rng_b(11);
  auto noisy = RunPsgd(data, *loss, *schedule, options, &rng_a, &noise);
  auto clean = RunPsgd(data, *loss, *schedule, options, &rng_b);
  ASSERT_TRUE(noisy.ok() && clean.ok());
  EXPECT_EQ(noise.calls(), 20u);
  EXPECT_EQ(noisy.value().stats.noise_samples, 20u);
  EXPECT_EQ(noisy.value().model, clean.value().model);
}

class FailingNoise final : public GradientNoiseSource {
 public:
  Result<Vector> Sample(size_t, size_t, Rng*) override {
    return Status::Internal("noise sampler broke");
  }
};

TEST(PsgdTest, NoiseErrorPropagates) {
  Dataset data = MakeTrainingSet(50);
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.1).MoveValue();
  PsgdOptions options;
  FailingNoise noise;
  Rng rng(12);
  EXPECT_EQ(RunPsgd(data, *loss, *schedule, options, &rng, &noise)
                .status()
                .code(),
            StatusCode::kInternal);
}

TEST(PsgdTest, ValidationErrors) {
  Dataset data = MakeTrainingSet(50);
  Dataset empty(10, 2);
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.1).MoveValue();
  Rng rng(13);

  PsgdOptions options;
  EXPECT_FALSE(RunPsgd(empty, *loss, *schedule, options, &rng).ok());

  options = PsgdOptions{};
  options.passes = 0;
  EXPECT_FALSE(RunPsgd(data, *loss, *schedule, options, &rng).ok());

  options = PsgdOptions{};
  options.batch_size = 0;
  EXPECT_FALSE(RunPsgd(data, *loss, *schedule, options, &rng).ok());

  options = PsgdOptions{};
  options.batch_size = data.size() + 1;
  EXPECT_FALSE(RunPsgd(data, *loss, *schedule, options, &rng).ok());

  options = PsgdOptions{};
  options.radius = 0.0;
  EXPECT_FALSE(RunPsgd(data, *loss, *schedule, options, &rng).ok());
}

TEST(PsgdTest, RowSliceMatchesRunPsgdOverTheSubset) {
  Dataset data = MakeTrainingSet(120);
  auto loss = MakeLogisticLoss(0.1, 10.0).MoveValue();
  auto schedule = MakeInverseTimeStep(0.1, 1.1).MoveValue();
  // Unsorted, with a repeated row: the slice names rows in the order
  // Subset would copy them.
  Rng pick(14);
  std::vector<size_t> rows = RandomPermutation(data.size(), &pick);
  rows.resize(45);
  rows.push_back(rows[3]);
  const Dataset subset = data.Subset(rows);
  for (size_t batch : {1u, 4u}) {
    for (bool fresh : {false, true}) {
      for (OutputMode output :
           {OutputMode::kLastIterate, OutputMode::kAverageAll}) {
        PsgdOptions options;
        options.passes = 3;
        options.batch_size = batch;
        options.radius = 10.0;
        options.fresh_permutation_each_pass = fresh;
        options.output = output;
        Rng slice_rng(15), subset_rng(15);
        auto sliced =
            RunPsgdOnRows(data, rows, *loss, *schedule, options, &slice_rng);
        auto copied = RunPsgd(subset, *loss, *schedule, options, &subset_rng);
        ASSERT_TRUE(sliced.ok()) << sliced.status().ToString();
        ASSERT_TRUE(copied.ok()) << copied.status().ToString();
        EXPECT_EQ(sliced.value().model, copied.value().model)
            << "b=" << batch << " fresh=" << fresh;
        EXPECT_EQ(sliced.value().stats.gradient_evaluations,
                  copied.value().stats.gradient_evaluations);
        EXPECT_EQ(sliced.value().stats.updates, copied.value().stats.updates);
        // Both consume the rng identically.
        EXPECT_EQ(slice_rng.Next(), subset_rng.Next());
      }
    }
  }
}

TEST(PsgdTest, RowSliceValidation) {
  Dataset data = MakeTrainingSet(50);
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.1).MoveValue();
  const std::vector<size_t> rows = {4, 0, 9, 2};
  Rng rng(16);
  auto code = [&](std::span<const size_t> slice, const PsgdOptions& options) {
    return RunPsgdOnRows(data, slice, *loss, *schedule, options, &rng)
        .status()
        .code();
  };

  EXPECT_EQ(code({}, PsgdOptions{}), StatusCode::kInvalidArgument);

  PsgdOptions big_batch;
  big_batch.batch_size = rows.size() + 1;
  EXPECT_EQ(code(rows, big_batch), StatusCode::kInvalidArgument);

  PsgdOptions with_replacement;
  with_replacement.sampling = SamplingMode::kWithReplacement;
  EXPECT_EQ(code(rows, with_replacement), StatusCode::kInvalidArgument);

  const std::vector<size_t> out_of_range = {0, data.size()};
  EXPECT_EQ(code(out_of_range, PsgdOptions{}), StatusCode::kInvalidArgument);

  EXPECT_EQ(code(rows, PsgdOptions{}), StatusCode::kOk);
}

// PSGD over data[slice[k]], k < slice.size(), rebuilt from public pieces:
// a permutation of the slice for the run (or one per pass), a mini-batch
// gradient over each run of it, the scheduled step, the projection, then
// the last iterate or the average of all of them.
Vector HandRolledPsgd(const Dataset& data, std::span<const size_t> slice,
                      const LossFunction& loss,
                      const StepSizeSchedule& schedule,
                      const PsgdOptions& options, Rng* rng) {
  const size_t m = slice.size();
  Vector w(data.dim());
  Vector grad(data.dim());
  Vector iterate_sum(data.dim());
  std::vector<size_t> order;
  size_t t = 0;
  for (size_t pass = 1; pass <= options.passes; ++pass) {
    if (pass == 1 || options.fresh_permutation_each_pass) {
      order = RandomPermutation(m, rng);
    }
    for (size_t begin = 0; begin < m; begin += options.batch_size) {
      const size_t end = std::min(m, begin + options.batch_size);
      grad.SetZero();
      for (size_t k = begin; k < end; ++k) {
        loss.AddGradient(w, data[slice[order[k]]],
                         1.0 / static_cast<double>(end - begin), &grad);
      }
      w.Axpy(-schedule.StepSize(++t), grad);
      ProjectToL2BallInPlace(&w, options.radius);
      iterate_sum += w;
    }
  }
  if (options.output == OutputMode::kLastIterate) return w;
  iterate_sum *= 1.0 / static_cast<double>(t);
  return iterate_sum;
}

// The loop reads ahead of the row it updates on; at every size, including
// those shorter than its read-ahead, it must still be exactly the update
// rule above.
TEST(PsgdTest, LoopMatchesHandRolledUpdateRule) {
  const Dataset data = MakeTrainingSet(60);
  auto loss = MakeLogisticLoss(0.1, 0.5).MoveValue();
  auto schedule = MakeInverseSqrtStep(0.8).MoveValue();
  Rng pick(17);
  const std::vector<size_t> shuffled = RandomPermutation(data.size(), &pick);
  for (size_t m : {1u, 2u, 8u, 9u, 16u, 17u, 40u}) {
    std::vector<size_t> head(m);
    std::iota(head.begin(), head.end(), size_t{0});
    const Dataset first_m = data.Subset(head);
    const std::span<const size_t> slice(shuffled.data(), m);
    for (size_t batch : {1u, 3u}) {
      if (batch > m) continue;
      for (bool fresh : {false, true}) {
        for (OutputMode output :
             {OutputMode::kLastIterate, OutputMode::kAverageAll}) {
          PsgdOptions options;
          options.passes = 2;
          options.batch_size = batch;
          options.radius = 0.5;
          options.fresh_permutation_each_pass = fresh;
          options.output = output;
          const std::string where = "m=" + std::to_string(m) +
                                    " b=" + std::to_string(batch) +
                                    " fresh=" + std::to_string(fresh);

          Rng run_rng(18), ref_rng(18);
          auto run = RunPsgd(first_m, *loss, *schedule, options, &run_rng);
          ASSERT_TRUE(run.ok()) << run.status().ToString();
          EXPECT_EQ(run.value().model,
                    HandRolledPsgd(first_m, head, *loss, *schedule, options,
                                   &ref_rng))
              << where;
          EXPECT_EQ(run_rng.Next(), ref_rng.Next()) << where;

          Rng slice_rng(19), slice_ref_rng(19);
          auto sliced = RunPsgdOnRows(data, slice, *loss, *schedule, options,
                                      &slice_rng);
          ASSERT_TRUE(sliced.ok()) << sliced.status().ToString();
          EXPECT_EQ(sliced.value().model,
                    HandRolledPsgd(data, slice, *loss, *schedule, options,
                                   &slice_ref_rng))
              << where << " (slice)";
          EXPECT_EQ(slice_rng.Next(), slice_ref_rng.Next()) << where;
        }
      }
    }
  }
}

}  // namespace
}  // namespace bolton
