#include "optim/parallel_executor.h"

#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/private_sgd.h"
#include "core/sensitivity.h"
#include "data/synthetic.h"
#include "linalg/simd.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "optim/schedule.h"
#include "optim/thread_pool.h"
#include "random/permutation.h"
#include "util/failpoint.h"

namespace bolton {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Dataset MakeTrainingSet(size_t m, uint64_t seed = 91) {
  SyntheticConfig config;
  config.num_examples = m;
  config.dim = 8;
  config.margin = 2.0;
  config.noise_stddev = 0.5;
  config.seed = seed;
  return GenerateSynthetic(config).MoveValue();
}

/// A schedule whose very first step is invalid, so every shard's RunPsgd
/// fails — exercises the failure-surfacing contract.
class BadSchedule : public StepSizeSchedule {
 public:
  double StepSize(size_t) const override { return 0.0; }
  double MaxStepSize() const override { return 0.0; }
  std::string name() const override { return "bad"; }
  std::unique_ptr<StepSizeSchedule> Clone() const override {
    return std::make_unique<BadSchedule>();
  }
};

TEST(ShardSeedTest, CounterBasedAndDistinct) {
  std::set<uint64_t> seeds;
  for (size_t j = 0; j < 64; ++j) {
    // Depends only on (base, j): same inputs, same seed.
    EXPECT_EQ(ShardSeed(42, j), ShardSeed(42, j));
    seeds.insert(ShardSeed(42, j));
  }
  EXPECT_EQ(seeds.size(), 64u);
  EXPECT_NE(ShardSeed(42, 0), ShardSeed(43, 0));
}

TEST(ParallelExecutorTest, ShardsOneIsBitIdenticalToSerial) {
  Dataset data = MakeTrainingSet(150);
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.2).MoveValue();
  PsgdOptions options;
  options.passes = 3;
  options.batch_size = 4;

  Rng serial_rng(17), sharded_rng(17);
  auto serial = RunPsgd(data, *loss, *schedule, options, &serial_rng);
  auto sharded =
      RunShardedPsgd(data, *loss, *schedule, options, &sharded_rng);
  ASSERT_TRUE(serial.ok() && sharded.ok());
  EXPECT_EQ(serial.value().model, sharded.value().model);
  EXPECT_EQ(sharded.value().shards, 1u);
  ASSERT_EQ(sharded.value().shard_sizes.size(), 1u);
  EXPECT_EQ(sharded.value().shard_sizes[0], data.size());
  // The serial path must also consume the caller's rng identically.
  EXPECT_EQ(serial_rng.Next(), sharded_rng.Next());
}

TEST(ParallelExecutorTest, DeterministicAtAnyThreadCount) {
  Dataset data = MakeTrainingSet(203);
  auto loss = MakeLogisticLoss(0.1, 10.0).MoveValue();
  auto schedule = MakeInverseTimeStep(0.1, 1.1).MoveValue();
  PsgdOptions options;
  options.passes = 2;
  options.batch_size = 3;
  options.radius = 10.0;
  options.shards = 4;

  Vector reference;
  for (size_t max_threads : {1u, 2u, 4u, 0u}) {
    Rng rng(23);
    options.executor.max_threads = max_threads;
    auto run = RunShardedPsgd(data, *loss, *schedule, options, &rng);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    if (reference.empty()) {
      reference = run.value().model;
    } else {
      EXPECT_EQ(reference, run.value().model)
          << "model differs at max_threads=" << max_threads;
    }
  }
}

TEST(ParallelExecutorTest, BalancedPartitionAndSummedStats) {
  Dataset data = MakeTrainingSet(103);
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.1).MoveValue();
  PsgdOptions options;
  options.passes = 2;
  options.batch_size = 5;
  options.shards = 4;
  Rng rng(29);
  auto run = RunShardedPsgd(data, *loss, *schedule, options, &rng);
  ASSERT_TRUE(run.ok());
  // 103 = 26 + 26 + 26 + 25.
  ASSERT_EQ(run.value().shard_sizes.size(), 4u);
  EXPECT_EQ(run.value().shard_sizes[0], 26u);
  EXPECT_EQ(run.value().shard_sizes[1], 26u);
  EXPECT_EQ(run.value().shard_sizes[2], 26u);
  EXPECT_EQ(run.value().shard_sizes[3], 25u);
  // Every example is touched once per pass across all shards.
  EXPECT_EQ(run.value().stats.gradient_evaluations, 2u * 103u);
  // ⌈26/5⌉ = 6 updates per pass on the big shards, ⌈25/5⌉ = 5 on the last.
  EXPECT_EQ(run.value().stats.updates, 2u * (6u + 6u + 6u + 5u));
}

TEST(ParallelExecutorTest, ShardsRunTheSerialLoopOverTheirSlices) {
  // The released model rebuilt from public pieces: the partition
  // permutation, then the seed base, then serial RunPsgd over a copy of
  // each shard's rows, averaged in shard order.
  Dataset data = MakeTrainingSet(103);
  auto loss = MakeLogisticLoss(0.1, 10.0).MoveValue();
  auto schedule = MakeInverseTimeStep(0.1, 1.1).MoveValue();
  for (size_t shards : {2u, 3u, 4u}) {
    for (size_t batch : {1u, 5u}) {
      for (bool fresh : {false, true}) {
        for (OutputMode output :
             {OutputMode::kLastIterate, OutputMode::kAverageAll}) {
          PsgdOptions options;
          options.passes = 3;
          options.batch_size = batch;
          options.radius = 10.0;
          options.fresh_permutation_each_pass = fresh;
          options.output = output;
          options.shards = shards;
          Rng rng(47);
          auto run = RunShardedPsgd(data, *loss, *schedule, options, &rng);
          ASSERT_TRUE(run.ok()) << run.status().ToString();

          Rng reference_rng(47);
          const std::vector<size_t> order =
              RandomPermutation(data.size(), &reference_rng);
          const uint64_t seed_base = reference_rng.Next();
          PsgdOptions serial = options;
          serial.shards = 1;
          Vector expected(data.dim());
          size_t offset = 0;
          for (size_t j = 0; j < shards; ++j) {
            const size_t size_j =
                data.size() / shards + (j < data.size() % shards ? 1 : 0);
            const std::vector<size_t> slice(order.begin() + offset,
                                            order.begin() + offset + size_j);
            offset += size_j;
            Rng shard_rng(ShardSeed(seed_base, j));
            auto shard = RunPsgd(data.Subset(slice), *loss, *schedule,
                                 serial, &shard_rng);
            ASSERT_TRUE(shard.ok()) << shard.status().ToString();
            expected += shard.value().model;
          }
          expected *= 1.0 / static_cast<double>(shards);
          EXPECT_EQ(run.value().model, expected)
              << "shards=" << shards << " b=" << batch
              << " fresh=" << fresh
              << " averaged=" << (output == OutputMode::kAverageAll);
        }
      }
    }
  }
}

TEST(ParallelExecutorTest, ShardFailureSurfacesThroughResult) {
  Dataset data = MakeTrainingSet(40);
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  BadSchedule bad_schedule;
  auto good_schedule = MakeConstantStep(0.1).MoveValue();
  // Every shard rejects the schedule, or an injected worker fault fails
  // one shard while the other succeeds. Either way the whole run fails
  // with shard context: Lemma 10 calibrates the release to all shard
  // models, so a partial average is never produced.
  struct Case {
    const StepSizeSchedule* schedule;
    const char* failpoints;
    StatusCode code;
  };
  for (const Case& c :
       {Case{&bad_schedule, "", StatusCode::kInvalidArgument},
        Case{good_schedule.get(), "shard.worker:error@1",
             StatusCode::kIOError}}) {
    ASSERT_TRUE(FailpointRegistry::Default().Configure(c.failpoints).ok());
    PsgdOptions options;
    options.passes = 1;
    options.shards = 2;
    Rng rng(31);
    auto run = RunShardedPsgd(data, *loss, *c.schedule, options, &rng);
    FailpointRegistry::Default().Clear();
    ASSERT_FALSE(run.ok()) << c.failpoints;
    EXPECT_EQ(run.status().code(), c.code) << run.status().ToString();
    EXPECT_NE(run.status().message().find("psgd shard"), std::string::npos)
        << run.status().ToString();
  }
}

TEST(ParallelExecutorTest, RejectsInvalidShardConfigs) {
  Dataset data = MakeTrainingSet(10);
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.1).MoveValue();
  Rng rng(37);

  PsgdOptions too_many;
  too_many.shards = 11;
  EXPECT_FALSE(RunShardedPsgd(data, *loss, *schedule, too_many, &rng).ok());

  PsgdOptions big_batch;
  big_batch.shards = 3;  // smallest shard has ⌊10/3⌋ = 3 examples
  big_batch.batch_size = 4;
  EXPECT_FALSE(RunShardedPsgd(data, *loss, *schedule, big_batch, &rng).ok());

  PsgdOptions with_replacement;
  with_replacement.shards = 2;
  with_replacement.sampling = SamplingMode::kWithReplacement;
  EXPECT_FALSE(
      RunShardedPsgd(data, *loss, *schedule, with_replacement, &rng).ok());

  // The serial black box itself refuses shards > 1.
  PsgdOptions sharded_serial;
  sharded_serial.shards = 2;
  EXPECT_FALSE(RunPsgd(data, *loss, *schedule, sharded_serial, &rng).ok());
}

TEST(ParallelExecutorTest, ShardedSensitivityMatchesClosedForm) {
  // Strongly convex, λ = 0.1, R = 1/λ = 10 ⇒ L = 1 + λR = 2, γ = 0.1.
  auto strong = MakeLogisticLoss(0.1, 10.0).MoveValue();
  SensitivitySetup setup;
  setup.passes = 5;
  setup.batch_size = 2;
  setup.num_examples = 100;
  // m = 100, s = 4 ⇒ every shard sees 25 examples: Δ₂ = 2L/(γ·25·b).
  auto sharded = ShardedStronglyConvexDecreasingStepSensitivity(
      *strong, setup, /*shards=*/4, /*use_corrected_minibatch=*/false);
  ASSERT_TRUE(sharded.ok());
  EXPECT_DOUBLE_EQ(sharded.value(), 2.0 * 2.0 / (0.1 * 25.0 * 2.0));

  // Uneven split: m = 10, s = 3 ⇒ smallest shard ⌊10/3⌋ = 3 dominates.
  SensitivitySetup uneven = setup;
  uneven.num_examples = 10;
  uneven.batch_size = 1;
  auto smallest = ShardedStronglyConvexDecreasingStepSensitivity(
      *strong, uneven, /*shards=*/3, /*use_corrected_minibatch=*/false);
  ASSERT_TRUE(smallest.ok());
  EXPECT_DOUBLE_EQ(smallest.value(), 2.0 * 2.0 / (0.1 * 3.0 * 1.0));

  // shards = 1 degenerates to the serial Lemma 8 bound.
  auto serial = StronglyConvexDecreasingStepSensitivity(*strong, setup);
  auto one = ShardedStronglyConvexDecreasingStepSensitivity(
      *strong, setup, /*shards=*/1, /*use_corrected_minibatch=*/false);
  ASSERT_TRUE(serial.ok() && one.ok());
  EXPECT_DOUBLE_EQ(one.value(), serial.value());

  // Convex constant step: Δ₂ = 2kLη/b is m-oblivious, so sharding leaves
  // it unchanged.
  auto convex = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto convex_serial = ConvexConstantStepSensitivity(*convex, 0.05, setup);
  auto convex_sharded =
      ShardedConvexConstantStepSensitivity(*convex, 0.05, setup, 4);
  ASSERT_TRUE(convex_serial.ok() && convex_sharded.ok());
  EXPECT_DOUBLE_EQ(convex_sharded.value(), convex_serial.value());
  EXPECT_DOUBLE_EQ(convex_sharded.value(), 2.0 * 5.0 * 1.0 * 0.05 / 2.0);
}

TEST(ParallelExecutorTest, MinShardSizeValidates) {
  auto ok = MinShardSize(10, 3);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 3u);
  EXPECT_FALSE(MinShardSize(10, 0).ok());
  EXPECT_FALSE(MinShardSize(10, 11).ok());
}

TEST(ParallelExecutorTest, ShardMetricsRecorded) {
  obs::SetMetricsEnabled(true);
  obs::MetricsRegistry::Default().Reset();
  Dataset data = MakeTrainingSet(60);
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.1).MoveValue();
  PsgdOptions options;
  options.passes = 1;
  options.shards = 3;
  Rng rng(41);
  ASSERT_TRUE(RunShardedPsgd(data, *loss, *schedule, options, &rng).ok());
  obs::SetMetricsEnabled(false);
  EXPECT_EQ(
      obs::MetricsRegistry::Default().GetCounter("psgd.shard_runs")->Value(),
      3u);
  EXPECT_EQ(obs::MetricsRegistry::Default()
                .GetCounter("psgd.shard_failures")
                ->Value(),
            0u);
  EXPECT_EQ(
      obs::MetricsRegistry::Default().GetGauge("psgd.shard_count")->Value(),
      3.0);
}

TEST(ParallelExecutorTest, ShardedBoltOnRecordsLedgerAccounting) {
  obs::PrivacyLedger::Default().Clear();
  obs::PrivacyLedger::Default().SetEnabled(true);
  Dataset data = MakeTrainingSet(120);
  auto loss = MakeLogisticLoss(0.1, 10.0).MoveValue();
  BoltOnOptions options;
  options.privacy = PrivacyParams{1.0, 0.0};
  options.passes = 2;
  options.batch_size = 1;
  options.shards = 2;
  Rng rng(43);
  auto run = PrivatePsgd(data, *loss, options, &rng);
  obs::PrivacyLedger::Default().SetEnabled(false);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().shards, 2u);
  // The calibration Δ₂ must be the per-shard bound: 2L/(γ·(m/s)·b).
  EXPECT_DOUBLE_EQ(run.value().sensitivity,
                   2.0 * 2.0 / (0.1 * 60.0 * 1.0));

  bool found = false;
  for (const obs::LedgerEvent& event :
       obs::PrivacyLedger::Default().Snapshot()) {
    if (event.kind != "calibration") continue;
    EXPECT_EQ(event.label, "bolton.sharded_sensitivity");
    EXPECT_EQ(event.shards, 2u);
    EXPECT_DOUBLE_EQ(event.epsilon, 1.0);
    EXPECT_DOUBLE_EQ(event.sensitivity, run.value().sensitivity);
    found = true;
  }
  EXPECT_TRUE(found);
  obs::PrivacyLedger::Default().Clear();
}

TEST(ParallelExecutorTest, UtilizationAccountsEveryWorker) {
  Dataset data = MakeTrainingSet(300);
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.1).MoveValue();
  PsgdOptions options;
  options.passes = 2;
  options.shards = 4;
  options.executor.max_threads = 2;
  Rng rng(17);
  auto out = RunShardedPsgd(data, *loss, *schedule, options, &rng);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  const WorkerUtilization& util = out.value().utilization;
  ASSERT_EQ(util.workers.size(), 2u);
  size_t shards_total = 0;
  for (const WorkerStats& w : util.workers) {
    EXPECT_GT(w.busy_ns, 0u) << "worker " << w.worker;
    EXPECT_GE(w.shards_run, 1u);
    shards_total += w.shards_run;
  }
  EXPECT_EQ(shards_total, 4u);
  EXPECT_EQ(util.workers[0].worker, 0u);
  EXPECT_EQ(util.workers[1].worker, 1u);
  // busy_fraction is Σbusy/Σ(busy+idle): a real fraction, positive here.
  EXPECT_GT(util.busy_fraction, 0.0);
  EXPECT_LE(util.busy_fraction, 1.0);
  EXPECT_GT(util.average_ns, 0u);
}

TEST(ParallelExecutorTest, WorkersCarryPerfCounterDeltas) {
  obs::SetPerfCountersEnabled(true);
  Dataset data = MakeTrainingSet(300);
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.1).MoveValue();
  PsgdOptions options;
  options.passes = 2;
  options.shards = 2;
  options.executor.max_threads = 2;
  Rng rng(29);
  auto out = RunShardedPsgd(data, *loss, *schedule, options, &rng);
  obs::SetPerfCountersEnabled(false);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out.value().utilization.workers.size(), 2u);
  for (const WorkerStats& w : out.value().utilization.workers) {
    // task_clock_ns works at every degradation tier — a worker that did
    // shard work must show on-CPU time even without a PMU.
    EXPECT_GT(w.counters.task_clock_ns, 0u) << "worker " << w.worker;
    if (obs::PerfHardwareAvailable()) {
      EXPECT_TRUE(w.counters.available);
      EXPECT_GT(w.counters.cycles, 0u);
    }
  }
}

TEST(ParallelExecutorTest, SerialDelegationHasNoWorkerRows) {
  Dataset data = MakeTrainingSet(100);
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.1).MoveValue();
  PsgdOptions options;
  options.shards = 1;
  Rng rng(19);
  auto out = RunShardedPsgd(data, *loss, *schedule, options, &rng);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().utilization.workers.empty());
}

TEST(ParallelExecutorTest, WorkerMetricsRecorded) {
  obs::SetMetricsEnabled(true);
  obs::MetricsRegistry::Default().Reset();
  Dataset data = MakeTrainingSet(200);
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.1).MoveValue();
  PsgdOptions options;
  options.shards = 2;
  // Pin two slices: the auto policy (max_threads = 0) sizes to the pool's
  // capacity, which is machine-dependent.
  options.executor.max_threads = 2;
  Rng rng(23);
  ASSERT_TRUE(RunShardedPsgd(data, *loss, *schedule, options, &rng).ok());

  auto snapshot = obs::MetricsRegistry::Default().Snapshot();
  bool saw_busy = false, saw_count = false;
  for (const auto& h : snapshot.histograms) {
    if (h.name == "psgd.worker_busy_seconds") {
      saw_busy = true;
      EXPECT_EQ(h.count, 2u);
    }
  }
  for (const auto& [name, value] : snapshot.gauges) {
    if (name == "psgd.worker_count") {
      saw_count = true;
      EXPECT_EQ(value, 2.0);
    }
  }
  EXPECT_TRUE(saw_busy);
  EXPECT_TRUE(saw_count);
  obs::SetMetricsEnabled(false);
}

TEST(ParallelExecutorTest, PoolReuseIsDeterministicFreshVsWarm) {
  Dataset data = MakeTrainingSet(180);
  auto loss = MakeLogisticLoss(0.1, 10.0).MoveValue();
  auto schedule = MakeInverseTimeStep(0.1, 1.1).MoveValue();
  PsgdOptions options;
  options.passes = 2;
  options.batch_size = 3;
  options.radius = 10.0;
  options.shards = 4;

  // Reference: the global pool (whatever its warmth).
  Rng reference_rng(71);
  auto reference =
      RunShardedPsgd(data, *loss, *schedule, options, &reference_rng);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  for (size_t workers : {1u, 2u, 4u}) {
    // Fresh pool: first run pays worker spawn, second reuses warm parked
    // workers. Both must be bit-identical to the reference and each other
    // — results may depend only on (seed, shard count), never on pool
    // temperature or size.
    ThreadPoolOptions pool_options;
    pool_options.max_threads = workers;
    ThreadPool pool(pool_options);
    options.executor.pool = &pool;
    for (int repeat = 0; repeat < 2; ++repeat) {
      Rng rng(71);
      auto run = RunShardedPsgd(data, *loss, *schedule, options, &rng);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(reference.value().model, run.value().model)
          << "workers=" << workers << " repeat=" << repeat;
    }
    options.executor.pool = nullptr;
  }
}

TEST(ParallelExecutorTest, ExecutorSimdOverrideIsBitIdenticalToDefault) {
  Dataset data = MakeTrainingSet(120);
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.1).MoveValue();
  PsgdOptions options;
  options.passes = 2;
  options.batch_size = 2;
  options.shards = 2;

  Rng default_rng(83);
  auto with_default =
      RunShardedPsgd(data, *loss, *schedule, options, &default_rng);
  ASSERT_TRUE(with_default.ok());

  // Every supported tier must release the same bits (the kernel-level
  // contract, exercised end-to-end through a full sharded run).
  for (SimdTier tier : {SimdTier::kScalar, SimdTier::kSse2, SimdTier::kAvx2,
                        SimdTier::kAvx512}) {
    if (!SimdTierSupported(tier)) continue;
    ScopedSimdTier pinned(tier);
    Rng rng(83);
    auto run = RunShardedPsgd(data, *loss, *schedule, options, &rng);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(with_default.value().model, run.value().model)
        << "tier=" << SimdTierName(tier);
  }
  // Each scope restored the process default on exit.
  EXPECT_EQ(ActiveSimdTier(), DefaultSimdTier());
}

}  // namespace
}  // namespace bolton
