#include "core/checkpoint.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "core/private_sgd.h"
#include "data/synthetic.h"
#include "obs/ledger.h"
#include "util/failpoint.h"

namespace bolton {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Dataset MakeTrainingSet(size_t m = 120, uint64_t seed = 91) {
  SyntheticConfig config;
  config.num_examples = m;
  config.dim = 6;
  config.margin = 2.0;
  config.noise_stddev = 0.5;
  config.seed = seed;
  return GenerateSynthetic(config).MoveValue();
}

/// Fresh empty directory under the gtest temp root; stale checkpoint files
/// from a previous (crashed) test run are removed.
std::string MakeCheckpointDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + name;
  ::mkdir(dir.c_str(), 0700);
  std::remove((dir + "/bolton.ckpt").c_str());
  std::remove((dir + "/bolton.ckpt.tmp").c_str());
  return dir;
}

CheckpointData MakeSampleData() {
  CheckpointData data;
  data.spec_hash = 0xdeadbeefcafef00dull;
  data.algorithm = "ours";
  data.state.completed_passes = 3;
  data.state.step = 41;
  data.state.w = Vector({0.5, -1.25, 3e-17});
  data.state.iterate_sum = Vector({1.0, 2.0, -0.125});
  data.state.stats.gradient_evaluations = 360;
  data.state.stats.updates = 120;
  data.state.order = {2, 0, 1};
  Rng rng(7);
  rng.Gaussian();  // populate the cached-gaussian half of the state
  data.state.rng = rng.SaveState();
  data.has_outer_rng = true;
  Rng outer(11);
  data.outer_rng = outer.SaveState();
  data.sensitivity = 0.0625;
  obs::LedgerEvent event;
  event.seq = 1;
  event.kind = "calibration";
  event.mechanism = "laplace";
  event.label = "bolton.sensitivity";
  event.epsilon = 1.0;
  event.sensitivity = 0.0625;
  event.shards = 1;
  event.accepted = true;
  data.ledger.push_back(event);
  obs::LedgerEvent unlabeled;  // empty strings must round-trip too
  unlabeled.seq = 2;
  data.ledger.push_back(unlabeled);
  return data;
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::Default().Clear(); }
  void TearDown() override {
    FailpointRegistry::Default().Clear();
    obs::PrivacyLedger::Default().SetEnabled(false);
    obs::PrivacyLedger::Default().Clear();
  }
};

TEST_F(CheckpointTest, SaveLoadRoundTripsEveryField) {
  CheckpointManager manager(MakeCheckpointDir("ckpt_roundtrip"));
  CheckpointData data = MakeSampleData();
  ASSERT_TRUE(manager.Save(data).ok());
  EXPECT_TRUE(manager.Exists());

  auto loaded = manager.Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const CheckpointData& got = loaded.value();
  EXPECT_EQ(got.spec_hash, data.spec_hash);
  EXPECT_EQ(got.algorithm, data.algorithm);
  EXPECT_EQ(got.state.completed_passes, data.state.completed_passes);
  EXPECT_EQ(got.state.step, data.state.step);
  EXPECT_EQ(got.state.w, data.state.w);
  EXPECT_EQ(got.state.iterate_sum, data.state.iterate_sum);
  EXPECT_EQ(got.state.stats.gradient_evaluations,
            data.state.stats.gradient_evaluations);
  EXPECT_EQ(got.state.stats.updates, data.state.stats.updates);
  EXPECT_EQ(got.state.order, data.state.order);
  EXPECT_EQ(got.sensitivity, data.sensitivity);
  EXPECT_TRUE(got.has_outer_rng);

  // The rng states must restore to bit-identical streams.
  Rng expected(0), actual(0);
  expected.RestoreState(data.state.rng);
  actual.RestoreState(got.state.rng);
  EXPECT_EQ(expected.Next(), actual.Next());
  EXPECT_EQ(expected.Gaussian(), actual.Gaussian());
  expected.RestoreState(data.outer_rng);
  actual.RestoreState(got.outer_rng);
  EXPECT_EQ(expected.Gaussian(), actual.Gaussian());

  ASSERT_EQ(got.ledger.size(), 2u);
  EXPECT_EQ(got.ledger[0].kind, "calibration");
  EXPECT_EQ(got.ledger[0].mechanism, "laplace");
  EXPECT_EQ(got.ledger[0].label, "bolton.sensitivity");
  EXPECT_EQ(got.ledger[0].epsilon, 1.0);
  EXPECT_EQ(got.ledger[0].sensitivity, 0.0625);
  EXPECT_TRUE(got.ledger[0].accepted);
  EXPECT_EQ(got.ledger[1].kind, "");
  EXPECT_EQ(got.ledger[1].label, "");

  ASSERT_TRUE(manager.Remove().ok());
  EXPECT_FALSE(manager.Exists());
  // Remove is idempotent.
  EXPECT_TRUE(manager.Remove().ok());
}

TEST_F(CheckpointTest, FileIsPrivateAndCarriesPrivacyMarker) {
  CheckpointManager manager(MakeCheckpointDir("ckpt_perms"));
  ASSERT_TRUE(manager.Save(MakeSampleData()).ok());

  struct stat st{};
  ASSERT_EQ(::stat(manager.path().c_str(), &st), 0);
  EXPECT_EQ(st.st_mode & 0777, 0600u)
      << "pre-noise iterates must not be world-readable";

  std::ifstream in(manager.path());
  std::string magic, marker;
  ASSERT_TRUE(std::getline(in, magic));
  ASSERT_TRUE(std::getline(in, marker));
  EXPECT_EQ(magic, "bolton-checkpoint v1");
  EXPECT_EQ(marker.find("UNRELEASED_PRIVATE"), 0u);
  // The atomic write leaves no temp file behind.
  EXPECT_NE(::access((manager.path() + ".tmp").c_str(), F_OK), 0);
}

TEST_F(CheckpointTest, LoadRejectsCorruptionAndTruncation) {
  CheckpointManager manager(MakeCheckpointDir("ckpt_corrupt"));
  ASSERT_TRUE(manager.Save(MakeSampleData()).ok());

  std::ifstream in(manager.path());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();

  // Flip one payload byte: the checksum line must catch it.
  std::string corrupt = content;
  corrupt[corrupt.find("cursor") + 7] ^= 1;
  { std::ofstream out(manager.path(), std::ios::trunc); out << corrupt; }
  auto bad = manager.Load();
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("checksum"), std::string::npos);

  // Drop the tail (as a torn non-atomic write would): also rejected.
  { std::ofstream out(manager.path(), std::ios::trunc);
    out << content.substr(0, content.size() / 2); }
  EXPECT_FALSE(manager.Load().ok());

  // Not a checkpoint at all.
  { std::ofstream out(manager.path(), std::ios::trunc); out << "hello\n"; }
  EXPECT_FALSE(manager.Load().ok());

  ASSERT_TRUE(manager.Remove().ok());
}

TEST_F(CheckpointTest, SpecHashTracksTheResumeContract) {
  Dataset data = MakeTrainingSet();
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  SolverSpec spec;
  spec.passes = 4;
  spec.privacy = PrivacyParams{1.0, 0.0};
  const uint64_t base = SolverSpecHash(Algorithm::kBoltOn, spec, *loss, data);
  EXPECT_EQ(base, SolverSpecHash(Algorithm::kBoltOn, spec, *loss, data));
  EXPECT_NE(base, SolverSpecHash(Algorithm::kNoiseless, spec, *loss, data));

  SolverSpec changed = spec;
  changed.passes = 5;
  EXPECT_NE(base, SolverSpecHash(Algorithm::kBoltOn, changed, *loss, data));
  changed = spec;
  changed.privacy.epsilon = 2.0;
  EXPECT_NE(base, SolverSpecHash(Algorithm::kBoltOn, changed, *loss, data));

  auto strong = MakeLogisticLoss(0.1, 10.0).MoveValue();
  EXPECT_NE(base, SolverSpecHash(Algorithm::kBoltOn, spec, *strong, data));

  Dataset smaller = MakeTrainingSet(60);
  EXPECT_NE(base, SolverSpecHash(Algorithm::kBoltOn, spec, *loss, smaller));
}

TEST_F(CheckpointTest, OnDiskBytesAndSpecHashArePinned) {
  // Golden values from the v1 format as first shipped: any change to the
  // framing, the token codec or the hash behind SolverSpecHash shows up
  // here, and such a change needs a new magic version.
  CheckpointManager manager(MakeCheckpointDir("ckpt_golden"));
  ASSERT_TRUE(manager.Save(MakeSampleData()).ok());
  std::ifstream in(manager.path(), std::ios::binary);
  const std::string content((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  const std::string checksum_line = "checksum bdb356ff2affa8ca\n";
  EXPECT_EQ(content.size(), 630u);
  ASSERT_GE(content.size(), checksum_line.size());
  EXPECT_EQ(content.substr(content.size() - checksum_line.size()),
            checksum_line);
  ASSERT_TRUE(manager.Remove().ok());

  Dataset data = MakeTrainingSet();
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  SolverSpec spec;
  spec.passes = 4;
  spec.privacy = PrivacyParams{1.0, 0.0};
  EXPECT_EQ(SolverSpecHash(Algorithm::kBoltOn, spec, *loss, data),
            0x949e8523f956e5f4ull);
}

TEST_F(CheckpointTest, UninterruptedCheckpointedRunMatchesPlainSolver) {
  Dataset data = MakeTrainingSet();
  auto loss = MakeLogisticLoss(0.1, 10.0).MoveValue();
  SolverSpec spec;
  spec.passes = 3;
  spec.batch_size = 4;
  spec.privacy = PrivacyParams{1.0, 0.0};

  for (Algorithm algorithm : {Algorithm::kNoiseless, Algorithm::kBoltOn}) {
    Rng plain_rng(17), ckpt_rng(17);
    auto plain = RunPrivateSolver(algorithm, data, *loss, spec, &plain_rng);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();

    CheckpointOptions options;
    options.dir = MakeCheckpointDir("ckpt_uninterrupted");
    auto checkpointed = RunSolverWithCheckpoints(algorithm, data, *loss, spec,
                                                 &ckpt_rng, options);
    ASSERT_TRUE(checkpointed.ok()) << checkpointed.status().ToString();
    EXPECT_EQ(plain.value().model, checkpointed.value().model)
        << "algorithm " << AlgorithmName(algorithm);
    EXPECT_EQ(plain.value().sensitivity, checkpointed.value().sensitivity);
    // A successful run removes its checkpoint: it holds pre-noise state.
    EXPECT_FALSE(CheckpointManager(options.dir).Exists());
  }
}

TEST_F(CheckpointTest, ResumeAfterInjectedCrashIsBitIdentical) {
  Dataset data = MakeTrainingSet();
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  SolverSpec spec;
  spec.passes = 4;
  spec.batch_size = 4;
  spec.privacy = PrivacyParams{0.5, 0.0};

  for (Algorithm algorithm : {Algorithm::kNoiseless, Algorithm::kBoltOn}) {
    Rng plain_rng(23);
    auto plain = RunPrivateSolver(algorithm, data, *loss, spec, &plain_rng);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();

    CheckpointOptions options;
    options.dir = MakeCheckpointDir("ckpt_resume");

    // "Crash" when pass 3 begins: passes 1 and 2 are checkpointed.
    ASSERT_TRUE(
        FailpointRegistry::Default().Configure("psgd.pass:error@3").ok());
    Rng crash_rng(23);
    auto crashed = RunSolverWithCheckpoints(algorithm, data, *loss, spec,
                                            &crash_rng, options);
    FailpointRegistry::Default().Clear();
    ASSERT_FALSE(crashed.ok());
    EXPECT_NE(crashed.status().message().find("failpoint"),
              std::string::npos);
    ASSERT_TRUE(CheckpointManager(options.dir).Exists());

    // Resume in a fresh "process" (fresh rng object; its seed is irrelevant
    // because every stream is restored from the checkpoint).
    options.resume = true;
    Rng resume_rng(99);
    auto resumed = RunSolverWithCheckpoints(algorithm, data, *loss, spec,
                                            &resume_rng, options);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(plain.value().model, resumed.value().model)
        << "algorithm " << AlgorithmName(algorithm);
    EXPECT_FALSE(CheckpointManager(options.dir).Exists());
  }
}

TEST_F(CheckpointTest, ResumeKeepsLedgerContinuousWithOneNoiseDraw) {
  obs::PrivacyLedger::Default().Clear();
  obs::PrivacyLedger::Default().SetEnabled(true);

  Dataset data = MakeTrainingSet();
  auto loss = MakeLogisticLoss(0.1, 10.0).MoveValue();
  SolverSpec spec;
  spec.passes = 3;
  spec.batch_size = 4;
  spec.privacy = PrivacyParams{1.0, 0.0};

  CheckpointOptions options;
  options.dir = MakeCheckpointDir("ckpt_ledger");

  ASSERT_TRUE(
      FailpointRegistry::Default().Configure("psgd.pass:error@2").ok());
  Rng crash_rng(31);
  ASSERT_FALSE(RunSolverWithCheckpoints(Algorithm::kBoltOn, data, *loss, spec,
                                        &crash_rng, options)
                   .ok());
  FailpointRegistry::Default().Clear();

  options.resume = true;
  Rng resume_rng(31);
  auto resumed = RunSolverWithCheckpoints(Algorithm::kBoltOn, data, *loss,
                                          spec, &resume_rng, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();

  size_t calibrations = 0, noise_draws = 0, checkpoints = 0, resumes = 0;
  uint64_t last_seq = 0;
  for (const obs::LedgerEvent& event :
       obs::PrivacyLedger::Default().Snapshot()) {
    EXPECT_GT(event.seq, last_seq) << "ledger seq must stay monotone";
    last_seq = event.seq;
    if (event.kind == "calibration") ++calibrations;
    if (event.kind == "noise_draw") ++noise_draws;
    if (event.kind == "checkpoint") ++checkpoints;
    if (event.kind == "resume") ++resumes;
  }
  // One calibration (reused on resume, not re-recorded), exactly one noise
  // draw (the single release), and a continuous audit trail across the
  // crash.
  EXPECT_EQ(calibrations, 1u);
  EXPECT_EQ(noise_draws, 1u);
  EXPECT_GE(checkpoints, 1u);
  EXPECT_EQ(resumes, 1u);
}

TEST_F(CheckpointTest, ResumeRejectsChangedSpec) {
  Dataset data = MakeTrainingSet();
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  SolverSpec spec;
  spec.passes = 3;
  spec.batch_size = 4;
  spec.privacy = PrivacyParams{1.0, 0.0};

  CheckpointOptions options;
  options.dir = MakeCheckpointDir("ckpt_mismatch");

  ASSERT_TRUE(
      FailpointRegistry::Default().Configure("psgd.pass:error@2").ok());
  Rng crash_rng(37);
  ASSERT_FALSE(RunSolverWithCheckpoints(Algorithm::kBoltOn, data, *loss, spec,
                                        &crash_rng, options)
                   .ok());
  FailpointRegistry::Default().Clear();

  // Resuming under a different privacy budget would mis-calibrate the
  // release: hard FailedPrecondition, not a silent retrain.
  options.resume = true;
  SolverSpec changed = spec;
  changed.privacy.epsilon = 2.0;
  Rng resume_rng(37);
  auto mismatch = RunSolverWithCheckpoints(Algorithm::kBoltOn, data, *loss,
                                           changed, &resume_rng, options);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(mismatch.status().message().find("refusing to resume"),
            std::string::npos);

  // The original spec still resumes fine.
  auto resumed = RunSolverWithCheckpoints(Algorithm::kBoltOn, data, *loss,
                                          spec, &resume_rng, options);
  EXPECT_TRUE(resumed.ok()) << resumed.status().ToString();
}

TEST_F(CheckpointTest, ResumeWithoutCheckpointFails) {
  Dataset data = MakeTrainingSet();
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  SolverSpec spec;
  CheckpointOptions options;
  options.dir = MakeCheckpointDir("ckpt_missing");
  options.resume = true;
  Rng rng(41);
  EXPECT_FALSE(RunSolverWithCheckpoints(Algorithm::kNoiseless, data, *loss,
                                        spec, &rng, options)
                   .ok());
}

TEST_F(CheckpointTest, RejectsWhiteBoxAlgorithmsAndShardedRuns) {
  Dataset data = MakeTrainingSet();
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  SolverSpec spec;
  spec.privacy = PrivacyParams{1.0, 1e-6};
  CheckpointOptions options;
  options.dir = MakeCheckpointDir("ckpt_reject");
  Rng rng(43);

  for (Algorithm algorithm :
       {Algorithm::kScs13, Algorithm::kBst14, Algorithm::kObjective}) {
    auto run =
        RunSolverWithCheckpoints(algorithm, data, *loss, spec, &rng, options);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument)
        << AlgorithmName(algorithm);
  }

  SolverSpec sharded = spec;
  sharded.shards = 2;
  EXPECT_FALSE(RunSolverWithCheckpoints(Algorithm::kNoiseless, data, *loss,
                                        sharded, &rng, options)
                   .ok());
}

TEST_F(CheckpointTest, InjectedSaveFailureSurfacesWithContext) {
  Dataset data = MakeTrainingSet();
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  SolverSpec spec;
  spec.passes = 3;
  spec.batch_size = 4;
  CheckpointOptions options;
  options.dir = MakeCheckpointDir("ckpt_savefail");

  ASSERT_TRUE(
      FailpointRegistry::Default().Configure("checkpoint.save:error").ok());
  Rng rng(47);
  auto run = RunSolverWithCheckpoints(Algorithm::kNoiseless, data, *loss,
                                      spec, &rng, options);
  FailpointRegistry::Default().Clear();
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.status().message().find("checkpoint sink"), std::string::npos)
      << run.status().ToString();
}

}  // namespace
}  // namespace bolton
