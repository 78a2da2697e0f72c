#include "serve/budget.h"

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/ledger.h"
#include "util/failpoint.h"

namespace bolton {
namespace serve {
namespace {

/// Fresh empty state directory under the gtest temp root.
std::string MakeStateDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + name;
  ::mkdir(dir.c_str(), 0700);
  std::remove((dir + "/bolton.budget").c_str());
  std::remove((dir + "/bolton.budget.tmp").c_str());
  return dir;
}

TenantBudgetOptions InMemory(double epsilon = 1.0, double delta = 1e-6) {
  TenantBudgetOptions options;
  options.default_budget = PrivacyParams{epsilon, delta};
  return options;
}

TEST(TenantBudgetTest, FreshTenantReportsDefaultBudgetAndZeroSpend) {
  auto manager = TenantBudgetManager::Open(InMemory(2.0, 1e-5)).MoveValue();
  TenantAccountView view = manager->Account("alice");
  EXPECT_EQ(view.tenant, "alice");
  EXPECT_DOUBLE_EQ(view.budget.epsilon, 2.0);
  EXPECT_DOUBLE_EQ(view.spent.epsilon, 0.0);
  EXPECT_DOUBLE_EQ(view.reserved.epsilon, 0.0);
  EXPECT_EQ(view.commits, 0u);
}

TEST(TenantBudgetTest, ReserveCommitSpends) {
  auto manager = TenantBudgetManager::Open(InMemory()).MoveValue();
  uint64_t hold =
      manager->Reserve("alice", {0.4, 1e-7}, "train").MoveValue();
  TenantAccountView held = manager->Account("alice");
  EXPECT_DOUBLE_EQ(held.reserved.epsilon, 0.4);
  EXPECT_DOUBLE_EQ(held.spent.epsilon, 0.0);

  ASSERT_TRUE(manager->Commit(hold).ok());
  TenantAccountView committed = manager->Account("alice");
  EXPECT_DOUBLE_EQ(committed.spent.epsilon, 0.4);
  EXPECT_DOUBLE_EQ(committed.spent.delta, 1e-7);
  EXPECT_DOUBLE_EQ(committed.reserved.epsilon, 0.0);
  EXPECT_EQ(committed.commits, 1u);
}

TEST(TenantBudgetTest, RefundRestoresCapacity) {
  auto manager = TenantBudgetManager::Open(InMemory()).MoveValue();
  uint64_t hold = manager->Reserve("bob", {0.9, 0.0}, "t").MoveValue();
  ASSERT_TRUE(manager->Refund(hold).ok());
  TenantAccountView view = manager->Account("bob");
  EXPECT_DOUBLE_EQ(view.spent.epsilon, 0.0);
  EXPECT_DOUBLE_EQ(view.reserved.epsilon, 0.0);
  EXPECT_EQ(view.refunds, 1u);
  // The freed budget is reusable.
  EXPECT_TRUE(manager->Reserve("bob", {0.9, 0.0}, "t2").ok());
}

TEST(TenantBudgetTest, OverspendRefusedWithFailedPrecondition) {
  auto manager = TenantBudgetManager::Open(InMemory(1.0, 0.0)).MoveValue();
  auto refused = manager->Reserve("alice", {1.5, 0.0}, "big");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.status().message().find("budget_exhausted"),
            std::string::npos);
  TenantAccountView view = manager->Account("alice");
  EXPECT_EQ(view.refusals, 1u);
  EXPECT_DOUBLE_EQ(view.reserved.epsilon, 0.0);
}

TEST(TenantBudgetTest, PendingHoldsCountAgainstCapacity) {
  auto manager = TenantBudgetManager::Open(InMemory(1.0, 0.0)).MoveValue();
  ASSERT_TRUE(manager->Reserve("alice", {0.6, 0.0}, "a").ok());
  // spent = 0 but 0.6 is held, so another 0.6 must refuse.
  auto second = manager->Reserve("alice", {0.6, 0.0}, "b");
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
}

TEST(TenantBudgetTest, ExactBudgetFits) {
  auto manager = TenantBudgetManager::Open(InMemory(1.0, 0.0)).MoveValue();
  // Ten charges of exactly 0.1 must not be refused on rounding noise.
  for (int i = 0; i < 10; ++i) {
    auto hold = manager->Reserve("alice", {0.1, 0.0}, "slice");
    ASSERT_TRUE(hold.ok()) << "slice " << i << ": "
                           << hold.status().ToString();
    ASSERT_TRUE(manager->Commit(hold.value()).ok());
  }
  auto over = manager->Reserve("alice", {0.1, 0.0}, "one too many");
  EXPECT_FALSE(over.ok());
}

TEST(TenantBudgetTest, TenantsAreIsolated) {
  auto manager = TenantBudgetManager::Open(InMemory(1.0, 0.0)).MoveValue();
  uint64_t hold = manager->Reserve("alice", {1.0, 0.0}, "all").MoveValue();
  ASSERT_TRUE(manager->Commit(hold).ok());
  // Alice is exhausted; Bob is untouched.
  EXPECT_FALSE(manager->Reserve("alice", {0.1, 0.0}, "x").ok());
  EXPECT_TRUE(manager->Reserve("bob", {0.1, 0.0}, "y").ok());
}

TEST(TenantBudgetTest, InvalidCostAndUnknownHolds) {
  auto manager = TenantBudgetManager::Open(InMemory()).MoveValue();
  // Ids the state file cannot store intact: "-" reloads as "", "a b" as
  // "a_b", and a NUL cuts the id short.
  for (const std::string& tenant :
       std::vector<std::string>{"", "-", "a b", "a%20b", {"a\0b", 3}}) {
    EXPECT_EQ(manager->Reserve(tenant, {0.1, 0.0}, "x").status().code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_TRUE(manager->Reserve("t-1.a_B", {0.1, 0.0}, "x").ok());
  EXPECT_EQ(manager->Reserve("a", {-1.0, 0.0}, "x").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(manager->Commit(999).code(), StatusCode::kNotFound);
  EXPECT_EQ(manager->Refund(999).code(), StatusCode::kNotFound);
}

TEST(TenantBudgetTest, StatePersistsAcrossReopen) {
  TenantBudgetOptions options = InMemory(1.0, 1e-6);
  options.state_dir = MakeStateDir("budget_reopen");
  {
    auto manager = TenantBudgetManager::Open(options).MoveValue();
    uint64_t hold =
        manager->Reserve("alice", {0.3, 1e-7}, "train").MoveValue();
    ASSERT_TRUE(manager->Commit(hold).ok());
  }
  auto reopened = TenantBudgetManager::Open(options).MoveValue();
  TenantAccountView view = reopened->Account("alice");
  EXPECT_DOUBLE_EQ(view.spent.epsilon, 0.3);
  EXPECT_DOUBLE_EQ(view.spent.delta, 1e-7);
  EXPECT_EQ(view.commits, 1u);
  EXPECT_EQ(reopened->recovered_holds(), 0u);
}

TEST(TenantBudgetTest, PendingHoldPromotedToSpendAtRecovery) {
  TenantBudgetOptions options = InMemory(1.0, 0.0);
  options.state_dir = MakeStateDir("budget_recover");
  {
    auto manager = TenantBudgetManager::Open(options).MoveValue();
    // Reserve persists the hold write-ahead; "crash" before Commit.
    ASSERT_TRUE(manager->Reserve("alice", {0.5, 0.0}, "doomed").ok());
  }
  auto recovered = TenantBudgetManager::Open(options).MoveValue();
  EXPECT_EQ(recovered->recovered_holds(), 1u);
  TenantAccountView view = recovered->Account("alice");
  // Promoted exactly once: spent the held 0.5, nothing still reserved.
  EXPECT_DOUBLE_EQ(view.spent.epsilon, 0.5);
  EXPECT_DOUBLE_EQ(view.reserved.epsilon, 0.0);
  EXPECT_EQ(view.recovered, 1u);

  // A THIRD open sees the promotion persisted as plain spend — the hold
  // must not promote again (that would double-charge).
  auto third = TenantBudgetManager::Open(options).MoveValue();
  EXPECT_EQ(third->recovered_holds(), 0u);
  EXPECT_DOUBLE_EQ(third->Account("alice").spent.epsilon, 0.5);
}

TEST(TenantBudgetTest, CorruptedStateRefusedAtOpen) {
  TenantBudgetOptions options = InMemory();
  options.state_dir = MakeStateDir("budget_corrupt");
  {
    auto manager = TenantBudgetManager::Open(options).MoveValue();
    uint64_t hold = manager->Reserve("a", {0.1, 0.0}, "x").MoveValue();
    ASSERT_TRUE(manager->Commit(hold).ok());
  }
  {
    // Flip spend bytes without updating the checksum.
    const std::string path = options.state_dir + "/bolton.budget";
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    in.close();
    const size_t at = content.find("account a");
    ASSERT_NE(at, std::string::npos);
    content[at + 8] = 'b';  // tenant "a" -> "b"
    std::ofstream out(path, std::ios::trunc);
    out << content;
  }
  auto reopened = TenantBudgetManager::Open(options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_NE(reopened.status().message().find("checksum"), std::string::npos)
      << reopened.status().ToString();
}

TEST(TenantBudgetTest, OlderFormatVersionRefusedByNameAndLeftUntouched) {
  TenantBudgetOptions options = InMemory();
  options.state_dir = MakeStateDir("budget_v1");
  const std::string path = options.state_dir + "/bolton.budget";
  // A valid v1 state file, checksum included, holding one committed
  // 0.3-ε spend. v1 seeded FNV-1a with a mistyped offset basis, so its
  // checksums differ from v2's.
  const std::string v1 =
      "bolton-budget v1\n"
      "next_hold 2\n"
      "accounts 1\n"
      "account alice 1 9.9999999999999995e-07 0.29999999999999999 0 1 0 0 0\n"
      "holds 0\n"
      "checksum 695de7b2633505eb\n";
  { std::ofstream out(path, std::ios::binary); out << v1; }

  auto opened = TenantBudgetManager::Open(options);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
  const std::string message = opened.status().message();
  EXPECT_NE(message.find("bolton-budget v2"), std::string::npos) << message;
  EXPECT_NE(message.find("bolton-budget v1"), std::string::npos) << message;
  EXPECT_EQ(message.find("checksum"), std::string::npos) << message;

  // Refused before anything is persisted: the recorded spend survives.
  std::ifstream in(path, std::ios::binary);
  const std::string after((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(after, v1);
}

TEST(TenantBudgetTest, BudgetEventsAreTenantKeyed) {
  obs::PrivacyLedger& ledger = obs::PrivacyLedger::Default();
  ledger.Clear();
  ledger.SetEnabled(true);
  auto manager = TenantBudgetManager::Open(InMemory(1.0, 0.0)).MoveValue();
  uint64_t hold = manager->Reserve("alice", {0.4, 0.0}, "train").MoveValue();
  ASSERT_TRUE(manager->Commit(hold).ok());
  ASSERT_FALSE(manager->Reserve("alice", {0.7, 0.0}, "too much").ok());
  ledger.SetEnabled(false);

  int reserves = 0, commits = 0, refusals = 0;
  for (const obs::LedgerEvent& event : ledger.Snapshot()) {
    if (event.kind == "budget_reserve") {
      ++reserves;
      EXPECT_EQ(event.tenant, "alice");
      EXPECT_DOUBLE_EQ(event.epsilon, 0.4);
      EXPECT_TRUE(event.accepted);
    } else if (event.kind == "budget_commit") {
      ++commits;
      EXPECT_EQ(event.tenant, "alice");
    } else if (event.kind == "budget_refusal") {
      ++refusals;
      EXPECT_EQ(event.tenant, "alice");
      EXPECT_FALSE(event.accepted);
      EXPECT_DOUBLE_EQ(event.epsilon, 0.7);
    }
  }
  EXPECT_EQ(reserves, 1);
  EXPECT_EQ(commits, 1);
  EXPECT_EQ(refusals, 1);
  ledger.Clear();
}

TEST(TenantBudgetTest, SnapshotListsEveryTenant) {
  auto manager = TenantBudgetManager::Open(InMemory()).MoveValue();
  ASSERT_TRUE(manager->Reserve("a", {0.1, 0.0}, "x").ok());
  ASSERT_TRUE(manager->Reserve("b", {0.2, 0.0}, "y").ok());
  auto views = manager->Snapshot();
  ASSERT_EQ(views.size(), 2u);
  EXPECT_EQ(views[0].tenant, "a");
  EXPECT_EQ(views[1].tenant, "b");
}

}  // namespace
}  // namespace serve
}  // namespace bolton
