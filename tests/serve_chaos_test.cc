// Deterministic fault injection across the serve subsystem's failpoint
// sites (serve.budget_reserve, serve.budget_commit, serve.persist,
// serve.admit), checking the two invariants the budget protocol promises
// under faults:
//   * spend-exactly-once — a committed charge appears once, whether the
//     persist succeeded, failed, or the process "crashed" between the
//     in-memory charge and the disk write;
//   * never-negative — no fault sequence drives spent or reserved below
//     zero or above the budget.
#include <sys/stat.h>

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "serve/admission.h"
#include "serve/budget.h"
#include "util/failpoint.h"

namespace bolton {
namespace serve {
namespace {

std::string MakeStateDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + name;
  ::mkdir(dir.c_str(), 0700);
  std::remove((dir + "/bolton.budget").c_str());
  std::remove((dir + "/bolton.budget.tmp").c_str());
  return dir;
}

TenantBudgetOptions DiskOptions(const std::string& dir_name) {
  TenantBudgetOptions options;
  options.default_budget = PrivacyParams{1.0, 0.0};
  options.state_dir = MakeStateDir(dir_name);
  return options;
}

class ServeChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { FailpointRegistry::Default().Clear(); }
};

TEST_F(ServeChaosTest, ReserveFaultRefusesCleanlyAndRecovers) {
  auto manager =
      TenantBudgetManager::Open(DiskOptions("chaos_reserve")).MoveValue();
  ASSERT_TRUE(FailpointRegistry::Default()
                  .Configure("serve.budget_reserve:error@1")
                  .ok());
  auto failed = manager->Reserve("alice", {0.3, 0.0}, "x");
  ASSERT_FALSE(failed.ok());
  // Nothing held, nothing spent.
  TenantAccountView view = manager->Account("alice");
  EXPECT_DOUBLE_EQ(view.reserved.epsilon, 0.0);
  EXPECT_DOUBLE_EQ(view.spent.epsilon, 0.0);
  // The next attempt (failpoint disarmed after hit 1) succeeds.
  EXPECT_TRUE(manager->Reserve("alice", {0.3, 0.0}, "x").ok());
}

TEST_F(ServeChaosTest, PersistFaultFailsReserveAfterBoundedRetries) {
  auto manager =
      TenantBudgetManager::Open(DiskOptions("chaos_persist_hard")).MoveValue();
  const uint64_t hits_before =
      FailpointRegistry::Default().Stats("serve.persist").hits;
  ASSERT_TRUE(
      FailpointRegistry::Default().Configure("serve.persist:error").ok());
  auto failed = manager->Reserve("alice", {0.3, 0.0}, "x");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError);
  // All three attempts consumed by the write-ahead persist.
  EXPECT_EQ(FailpointRegistry::Default().Stats("serve.persist").hits -
                hits_before,
            3u);
  // The rolled-back hold left no trace.
  TenantAccountView view = manager->Account("alice");
  EXPECT_DOUBLE_EQ(view.reserved.epsilon, 0.0);
  FailpointRegistry::Default().Clear();
  EXPECT_TRUE(manager->Reserve("alice", {0.3, 0.0}, "x").ok());
}

TEST_F(ServeChaosTest, TransientPersistFaultMaskedByRetry) {
  auto manager =
      TenantBudgetManager::Open(DiskOptions("chaos_persist_soft")).MoveValue();
  // First persist attempt fails, retry succeeds — caller never notices.
  ASSERT_TRUE(
      FailpointRegistry::Default().Configure("serve.persist:error@1").ok());
  auto hold = manager->Reserve("alice", {0.3, 0.0}, "x");
  ASSERT_TRUE(hold.ok()) << hold.status().ToString();
  EXPECT_TRUE(manager->Commit(hold.value()).ok());
}

TEST_F(ServeChaosTest, CommitPersistFaultStillSpendsExactlyOnce) {
  TenantBudgetOptions options = DiskOptions("chaos_commit");
  uint64_t hold = 0;
  {
    auto manager = TenantBudgetManager::Open(options).MoveValue();
    hold = manager->Reserve("alice", {0.4, 0.0}, "train").MoveValue();
    // Every persist from here on fails: the commit's in-memory charge must
    // land anyway (the noisy model is already released by commit time).
    ASSERT_TRUE(
        FailpointRegistry::Default().Configure("serve.budget_commit:error")
            .ok());
    ASSERT_TRUE(manager->Commit(hold).ok());
    TenantAccountView view = manager->Account("alice");
    EXPECT_DOUBLE_EQ(view.spent.epsilon, 0.4);
    EXPECT_DOUBLE_EQ(view.reserved.epsilon, 0.0);
    FailpointRegistry::Default().Clear();
    // Process "crashes" here: the state file still shows the hold pending.
  }
  // Restart: recovery promotes the pending hold — same 0.4, exactly once.
  auto recovered = TenantBudgetManager::Open(options).MoveValue();
  EXPECT_EQ(recovered->recovered_holds(), 1u);
  TenantAccountView view = recovered->Account("alice");
  EXPECT_DOUBLE_EQ(view.spent.epsilon, 0.4);
  EXPECT_DOUBLE_EQ(view.reserved.epsilon, 0.0);
}

TEST_F(ServeChaosTest, RefundPersistFaultReChargesConservativelyAtRestart) {
  TenantBudgetOptions options = DiskOptions("chaos_refund");
  {
    auto manager = TenantBudgetManager::Open(options).MoveValue();
    uint64_t hold = manager->Reserve("alice", {0.2, 0.0}, "x").MoveValue();
    ASSERT_TRUE(
        FailpointRegistry::Default().Configure("serve.persist:error").ok());
    // Refund succeeds in memory but cannot persist.
    ASSERT_TRUE(manager->Refund(hold).ok());
    EXPECT_DOUBLE_EQ(manager->Account("alice").spent.epsilon, 0.0);
    FailpointRegistry::Default().Clear();
  }
  // Restart from the stale file: the hold is still pending there and is
  // conservatively promoted. Over-charging ε is the safe direction — a
  // crash must never UNDER-count spend.
  auto recovered = TenantBudgetManager::Open(options).MoveValue();
  EXPECT_EQ(recovered->recovered_holds(), 1u);
  EXPECT_DOUBLE_EQ(recovered->Account("alice").spent.epsilon, 0.2);
}

TEST_F(ServeChaosTest, FaultStormKeepsAccountsSane) {
  auto manager =
      TenantBudgetManager::Open(DiskOptions("chaos_storm")).MoveValue();
  // Every 3rd persist fails, every 5th reserve gate fires.
  ASSERT_TRUE(FailpointRegistry::Default()
                  .Configure("serve.persist:1in3;serve.budget_reserve:1in5")
                  .ok());
  int commits = 0, refunds = 0, failures = 0;
  for (int i = 0; i < 40; ++i) {
    auto hold = manager->Reserve("alice", {0.01, 0.0}, "storm");
    if (!hold.ok()) {
      ++failures;
      continue;
    }
    if (i % 2 == 0) {
      if (manager->Commit(hold.value()).ok()) ++commits;
    } else {
      if (manager->Refund(hold.value()).ok()) ++refunds;
    }
  }
  FailpointRegistry::Default().Clear();
  EXPECT_GT(failures, 0);  // the storm actually fired
  TenantAccountView view = manager->Account("alice");
  // Never-negative / never-over-budget invariants.
  EXPECT_GE(view.spent.epsilon, 0.0);
  EXPECT_GE(view.reserved.epsilon, -1e-12);
  EXPECT_LE(view.spent.epsilon, 1.0 + 1e-9);
  // Exactly the committed holds are spent, to float tolerance.
  EXPECT_NEAR(view.spent.epsilon, commits * 0.01, 1e-9);
  EXPECT_EQ(view.commits, static_cast<uint64_t>(commits));
  EXPECT_EQ(view.refunds, static_cast<uint64_t>(refunds));
}

TEST_F(ServeChaosTest, AdmitFaultRefusesWithoutLeakingSlots) {
  AdmissionController admission(AdmissionOptions{4, 2});
  ASSERT_TRUE(
      FailpointRegistry::Default().Configure("serve.admit:error@1").ok());
  auto refused = admission.Admit("alice");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(admission.inflight(), 0u);
  // Disarmed after the first hit: normal admission resumes and caps hold.
  auto t1 = admission.Admit("alice");
  auto t2 = admission.Admit("alice");
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  auto busy = admission.Admit("alice");
  ASSERT_FALSE(busy.ok());
  EXPECT_EQ(busy.status().code(), StatusCode::kFailedPrecondition);
  auto other = admission.Admit("bob");
  EXPECT_TRUE(other.ok());  // per-tenant cap, not global
  auto third = admission.Admit("carol");
  auto overload = admission.Admit("dave");
  ASSERT_TRUE(third.ok());
  ASSERT_FALSE(overload.ok());  // global cap of 4
  EXPECT_EQ(overload.status().code(), StatusCode::kOutOfRange);
  // RAII release: dropping a ticket frees its slot.
  t2.value().Release();
  EXPECT_EQ(admission.inflight(), 3u);
  EXPECT_TRUE(admission.Admit("dave").ok());
}

}  // namespace
}  // namespace serve
}  // namespace bolton
