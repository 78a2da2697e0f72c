#include "obs/ledger.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/bst14.h"
#include "core/scs13.h"
#include "data/synthetic.h"
#include "random/dp_noise.h"
#include "serve/budget.h"

namespace bolton {
namespace obs {
namespace {

// The ledger is off by default; every test opts in on a clean log and
// restores the documented disabled state afterwards.
class ObsLedgerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PrivacyLedger::Default().Clear();
    PrivacyLedger::Default().SetEnabled(true);
  }
  void TearDown() override {
    EXPECT_TRUE(PrivacyLedger::Default().CloseFile().ok());
    PrivacyLedger::Default().SetEnabled(false);
    PrivacyLedger::Default().Clear();
  }
};

/// A path under the gtest temp root, removed first so each test starts
/// without the file.
std::string FreshPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

Dataset MakeData(size_t m = 200) {
  SyntheticConfig config;
  config.num_examples = m;
  config.dim = 8;
  config.margin = 2.0;
  config.noise_stddev = 0.5;
  config.seed = 19;
  return GenerateSynthetic(config).MoveValue();
}

TEST_F(ObsLedgerTest, LaplaceDrawRecordsOneEventWithActualParameters) {
  Rng rng(5);
  const uint64_t fingerprint_before = rng.StateFingerprint();
  auto noise = SampleSphericalLaplace(16, 0.25, 2.0, &rng);
  ASSERT_TRUE(noise.ok());

  std::vector<LedgerEvent> events = PrivacyLedger::Default().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  const LedgerEvent& e = events[0];
  EXPECT_EQ(e.seq, 1u);
  EXPECT_EQ(e.kind, "noise_draw");
  EXPECT_EQ(e.mechanism, "laplace");
  EXPECT_EQ(e.label, "dp_noise.spherical_laplace");
  EXPECT_DOUBLE_EQ(e.epsilon, 2.0);
  EXPECT_DOUBLE_EQ(e.sensitivity, 0.25);
  EXPECT_DOUBLE_EQ(e.noise_scale, 0.25 / 2.0);
  EXPECT_EQ(e.dim, 16u);
  // The recorded norm is the norm of the vector actually returned, and the
  // fingerprint identifies the generator state that produced it.
  EXPECT_NEAR(e.noise_norm, noise.value().Norm(), 1e-9);
  EXPECT_EQ(e.rng_fingerprint, fingerprint_before);
  EXPECT_NE(e.rng_fingerprint, rng.StateFingerprint());
}

TEST_F(ObsLedgerTest, GaussianDrawRecordsSigmaAndNorm) {
  Rng rng(6);
  auto noise = SampleGaussianMechanism(16, 0.5, 0.5, 1e-6, &rng);
  ASSERT_TRUE(noise.ok());
  double sigma = GaussianMechanismSigma(0.5, 0.5, 1e-6).value();

  std::vector<LedgerEvent> events = PrivacyLedger::Default().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  const LedgerEvent& e = events[0];
  EXPECT_EQ(e.kind, "noise_draw");
  EXPECT_EQ(e.mechanism, "gaussian");
  EXPECT_DOUBLE_EQ(e.epsilon, 0.5);
  EXPECT_DOUBLE_EQ(e.delta, 1e-6);
  EXPECT_DOUBLE_EQ(e.noise_scale, sigma);
  EXPECT_NEAR(e.noise_norm, noise.value().Norm(), 1e-9);
}

TEST_F(ObsLedgerTest, ZeroSensitivityStillAudited) {
  Rng rng(7);
  ASSERT_TRUE(SampleSphericalLaplace(4, 0.0, 1.0, &rng).ok());
  std::vector<LedgerEvent> events = PrivacyLedger::Default().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_DOUBLE_EQ(events[0].sensitivity, 0.0);
  EXPECT_DOUBLE_EQ(events[0].noise_norm, 0.0);
}

TEST_F(ObsLedgerTest, DisabledLedgerRecordsNothing) {
  PrivacyLedger::Default().SetEnabled(false);
  Rng rng(8);
  ASSERT_TRUE(SampleSphericalLaplace(4, 0.1, 1.0, &rng).ok());
  EXPECT_EQ(PrivacyLedger::Default().Snapshot().size(), 0u);
}

TEST_F(ObsLedgerTest, BudgetChargesAreAudited) {
  serve::TenantBudgetOptions options;
  options.default_budget = PrivacyParams{1.0, 0.0};
  auto budget = serve::TenantBudgetManager::Open(options).MoveValue();
  auto first = budget->Reserve("t", {0.4, 0.0}, "query-1");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(budget->Commit(first.value()).ok());
  ASSERT_FALSE(budget->Reserve("t", {0.8, 0.0}, "query-2").ok());
  auto third = budget->Reserve("t", {0.6, 0.0}, "query-3");
  ASSERT_TRUE(third.ok());
  ASSERT_TRUE(budget->Commit(third.value()).ok());

  // reserve + commit, refusal, reserve + commit.
  std::vector<LedgerEvent> events = PrivacyLedger::Default().Snapshot();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[1].kind, "budget_commit");
  EXPECT_EQ(events[1].label, "query-1");
  EXPECT_DOUBLE_EQ(events[1].epsilon, 0.4);
  EXPECT_TRUE(events[1].accepted);
  EXPECT_EQ(events[2].label, "query-2");
  EXPECT_FALSE(events[2].accepted);
  EXPECT_TRUE(events[4].accepted);
  // Sequence numbers are assigned in record order.
  EXPECT_EQ(events[2].seq, 3u);
  EXPECT_EQ(events[4].seq, 5u);
}

TEST_F(ObsLedgerTest, Scs13RunLogsCalibrationPlusEveryDraw) {
  Dataset data = MakeData();
  auto loss = MakeLogisticLoss(0.01, 100.0).MoveValue();
  Scs13Options options;
  options.privacy = PrivacyParams{1.0, 0.0};
  options.passes = 2;
  options.batch_size = 20;
  Rng rng(9);
  auto out = RunScs13(data, *loss, options, &rng);
  ASSERT_TRUE(out.ok());

  size_t calibrations = 0, draws = 0;
  for (const LedgerEvent& e : PrivacyLedger::Default().Snapshot()) {
    if (e.kind == "calibration") ++calibrations;
    if (e.kind == "noise_draw") ++draws;
  }
  EXPECT_EQ(calibrations, 1u);
  EXPECT_EQ(draws, out.value().stats.noise_samples);
  EXPECT_GT(draws, 0u);
}

TEST_F(ObsLedgerTest, Bst14RunLogsCalibrationPlusEveryDraw) {
  Dataset data = MakeData();
  auto loss = MakeLogisticLoss(0.01, 100.0).MoveValue();
  Bst14Options options;
  options.privacy = PrivacyParams{0.5, 1e-6};
  options.passes = 2;
  options.batch_size = 20;
  Rng rng(10);
  auto out = RunBst14StronglyConvex(data, *loss, options, &rng);
  ASSERT_TRUE(out.ok());

  size_t calibrations = 0, draws = 0;
  for (const LedgerEvent& e : PrivacyLedger::Default().Snapshot()) {
    if (e.kind == "calibration") ++calibrations;
    if (e.kind == "noise_draw") {
      ++draws;
      EXPECT_EQ(e.mechanism, "gaussian_per_step");
      EXPECT_GT(e.step, 0u);
    }
  }
  EXPECT_EQ(calibrations, 1u);
  EXPECT_EQ(draws, out.value().stats.noise_samples);
  EXPECT_GT(draws, 0u);
}

TEST_F(ObsLedgerTest, JsonlHasOneObjectPerEvent) {
  const std::string path = FreshPath("ledger_jsonl.jsonl");
  ASSERT_TRUE(PrivacyLedger::Default().OpenFile(path).ok());
  Rng rng(11);
  ASSERT_TRUE(SampleSphericalLaplace(4, 0.1, 1.0, &rng).ok());
  ASSERT_TRUE(SampleGaussianMechanism(4, 0.1, 0.5, 1e-6, &rng).ok());
  // Each line is on disk as its event is recorded, before any close.
  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind("{\"seq\":1,", 0), 0u);
  EXPECT_EQ(lines[1].rfind("{\"seq\":2,", 0), 0u);
  EXPECT_NE(lines[0].find("\"kind\":\"noise_draw\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"mechanism\":\"laplace\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"mechanism\":\"gaussian\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"rng_fingerprint\":"), std::string::npos);
  EXPECT_TRUE(PrivacyLedger::Default().CloseFile().ok());
}

TEST_F(ObsLedgerTest, RingKeepsTheNewestSlotsWhileTotalsCountEveryEvent) {
  constexpr size_t kSlots = PrivacyLedger::kLedgerSlots;
  for (size_t i = 0; i < kSlots + 10; ++i) {
    LedgerEvent event;
    event.kind = "budget_commit";
    event.epsilon = 0.5;
    PrivacyLedger::Default().Record(std::move(event));
  }
  const std::vector<LedgerEvent> events = PrivacyLedger::Default().Snapshot();
  ASSERT_EQ(events.size(), kSlots);
  EXPECT_EQ(events.front().seq, 11u);  // the ten oldest were overwritten
  EXPECT_EQ(events.back().seq, kSlots + 10);  // newest last
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
  const std::vector<LedgerEvent> tail = PrivacyLedger::Default().Snapshot(3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail.front().seq, kSlots + 8);
  const LedgerTotals totals = PrivacyLedger::Default().Totals();
  EXPECT_EQ(totals.events, kSlots + 10);
  EXPECT_EQ(totals.charges, kSlots + 10);
  EXPECT_DOUBLE_EQ(totals.epsilon_charged, 0.5 * (kSlots + 10));
}

TEST_F(ObsLedgerTest, FileOpenedTwiceIsAppendedNotTruncated) {
  const std::string path = FreshPath("ledger_twice.jsonl");
  Rng rng(13);
  ASSERT_TRUE(PrivacyLedger::Default().OpenFile(path).ok());
  ASSERT_TRUE(SampleSphericalLaplace(4, 0.1, 1.0, &rng).ok());
  ASSERT_TRUE(PrivacyLedger::Default().CloseFile().ok());
  // Closed: later events stay in memory only.
  ASSERT_TRUE(SampleSphericalLaplace(4, 0.1, 1.0, &rng).ok());
  ASSERT_EQ(ReadLines(path).size(), 1u);

  // A second process (here: a second open after a Clear) continues the
  // file, numbering its own events from 1 again.
  PrivacyLedger::Default().Clear();
  ASSERT_TRUE(PrivacyLedger::Default().OpenFile(path).ok());
  ASSERT_TRUE(SampleSphericalLaplace(4, 0.1, 1.0, &rng).ok());
  ASSERT_TRUE(PrivacyLedger::Default().CloseFile().ok());
  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind("{\"seq\":1,", 0), 0u);
  EXPECT_EQ(lines[1].rfind("{\"seq\":1,", 0), 0u);
}

TEST_F(ObsLedgerTest, FailedWritesFailTheClose) {
  // Every write to /dev/full fails with ENOSPC.
  ASSERT_TRUE(PrivacyLedger::Default().OpenFile("/dev/full").ok());
  Rng rng(14);
  ASSERT_TRUE(SampleSphericalLaplace(4, 0.1, 1.0, &rng).ok());
  // The event is still kept in memory.
  EXPECT_EQ(PrivacyLedger::Default().Snapshot().size(), 1u);
  const Status closed = PrivacyLedger::Default().CloseFile();
  EXPECT_EQ(closed.code(), StatusCode::kIOError);
  EXPECT_NE(closed.message().find("1 ledger lines failed to write to "
                                  "/dev/full"),
            std::string::npos)
      << closed.ToString();
  // Nothing is open any more.
  EXPECT_TRUE(PrivacyLedger::Default().CloseFile().ok());
}

TEST_F(ObsLedgerTest, UnopenableFileIsRefusedAtOpen) {
  const Status opened = PrivacyLedger::Default().OpenFile(
      ::testing::TempDir() + "no_such_dir/ledger.jsonl");
  EXPECT_EQ(opened.code(), StatusCode::kIOError);
  EXPECT_NE(opened.message().find("cannot open ledger file"),
            std::string::npos);
}

TEST_F(ObsLedgerTest, ClearEmptiesAndRestartsSequence) {
  Rng rng(12);
  ASSERT_TRUE(SampleSphericalLaplace(4, 0.1, 1.0, &rng).ok());
  PrivacyLedger::Default().Clear();
  EXPECT_EQ(PrivacyLedger::Default().Snapshot().size(), 0u);
  ASSERT_TRUE(SampleSphericalLaplace(4, 0.1, 1.0, &rng).ok());
  ASSERT_EQ(PrivacyLedger::Default().Snapshot().size(), 1u);
  EXPECT_EQ(PrivacyLedger::Default().Snapshot()[0].seq, 1u);
}

}  // namespace
}  // namespace obs
}  // namespace bolton
