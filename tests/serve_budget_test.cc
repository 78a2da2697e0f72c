#include "serve/budget.h"

#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/export.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "random/rng.h"
#include "util/atomic_file.h"
#include "util/failpoint.h"
#include "util/strings.h"

namespace bolton {
namespace serve {
namespace {

/// Fresh empty state directory under the gtest temp root.
std::string MakeStateDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + name;
  ::mkdir(dir.c_str(), 0700);
  std::remove((dir + "/bolton.budget").c_str());
  std::remove((dir + "/bolton.budget.tmp").c_str());
  std::remove((dir + "/bolton.journal").c_str());
  return dir;
}

TenantBudgetOptions InMemory(double epsilon = 1.0, double delta = 1e-6) {
  TenantBudgetOptions options;
  options.default_budget = PrivacyParams{epsilon, delta};
  return options;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

void AppendFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << content;
}

size_t FileSize(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<size_t>(st.st_size) : 0;
}

/// One step of a fixed-seed workload over 16 tenants: a hold that is then
/// committed or refunded, or now and then a request for more than the
/// 10-ε budget, which is refused.
void RandomStep(TenantBudgetManager* manager, Rng* rng) {
  const std::string tenant =
      StrFormat("t%02d", static_cast<int>(rng->UniformInt(16)));
  if (rng->UniformInt(10) == 0) {
    ASSERT_FALSE(manager->Reserve(tenant, {11.0, 0.0}, "big").ok());
    return;
  }
  const PrivacyParams cost{rng->UniformDouble(1e-5, 1e-3),
                           rng->UniformDouble(0.0, 1e-9)};
  auto hold = manager->Reserve(tenant, cost, "step");
  ASSERT_TRUE(hold.ok()) << hold.status().ToString();
  if (rng->UniformInt(4) == 0) {
    ASSERT_TRUE(manager->Refund(hold.value()).ok());
  } else {
    ASSERT_TRUE(manager->Commit(hold.value()).ok());
  }
}

/// Same spend bits and counters, tenant by tenant.
void ExpectSameAccounts(const std::vector<TenantAccountView>& live,
                        const std::vector<TenantAccountView>& reopened) {
  ASSERT_EQ(live.size(), reopened.size());
  for (size_t i = 0; i < live.size(); ++i) {
    SCOPED_TRACE(live[i].tenant);
    EXPECT_EQ(live[i].tenant, reopened[i].tenant);
    EXPECT_EQ(live[i].budget.epsilon, reopened[i].budget.epsilon);
    EXPECT_EQ(live[i].budget.delta, reopened[i].budget.delta);
    EXPECT_EQ(live[i].spent.epsilon, reopened[i].spent.epsilon);
    EXPECT_EQ(live[i].spent.delta, reopened[i].spent.delta);
    EXPECT_EQ(live[i].reserved.epsilon, reopened[i].reserved.epsilon);
    EXPECT_EQ(live[i].commits, reopened[i].commits);
    EXPECT_EQ(live[i].refunds, reopened[i].refunds);
    EXPECT_EQ(live[i].refusals, reopened[i].refusals);
    EXPECT_EQ(live[i].recovered, reopened[i].recovered);
  }
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
  obs::SetMetricsEnabled(true);
  const obs::Counter* refunds =
      obs::MetricsRegistry::Default().GetCounter("serve.budget_refunds");
  const uint64_t refunds_before = refunds->Value();
  auto manager = TenantBudgetManager::Open(InMemory()).MoveValue();
  uint64_t hold = manager->Reserve("bob", {0.9, 0.0}, "t").MoveValue();
  ASSERT_TRUE(manager->Refund(hold).ok());
  obs::SetMetricsEnabled(false);
  EXPECT_EQ(refunds->Value() - refunds_before, 1u);
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

TEST(TenantBudgetTest, ReserveWithinToleranceCommitsAndReopens) {
  TenantBudgetOptions options = InMemory(1.0, 1e-6);
  options.state_dir = MakeStateDir("budget_tolerance");
  const double within = 1.0 + 5e-10;  // inside one part in 10⁹ of the budget
  std::vector<TenantAccountView> live;
  {
    auto manager = TenantBudgetManager::Open(options).MoveValue();
    auto hold = manager->Reserve("a", {within, 0.0}, "edge");
    ASSERT_TRUE(hold.ok()) << hold.status().ToString();
    ASSERT_TRUE(manager->Commit(hold.value()).ok());
    EXPECT_EQ(manager->Account("a").spent.epsilon, within);
    EXPECT_EQ(manager->Account("a").reserved.epsilon, 0.0);
    live = manager->Snapshot();
  }
  {
    auto reopened = TenantBudgetManager::Open(options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ExpectSameAccounts(live, reopened.value()->Snapshot());
    // A hold of the same size left pending promotes at the next Open.
    ASSERT_TRUE(reopened.value()->Reserve("b", {within, 0.0}, "edge").ok());
  }
  auto promoted = TenantBudgetManager::Open(options);
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ(promoted.value()->recovered_holds(), 1u);
  EXPECT_EQ(promoted.value()->Account("b").spent.epsilon, within);
  EXPECT_EQ(promoted.value()->Account("a").spent.epsilon, within);
}

TEST(TenantBudgetTest, ExhaustedTenantStopsAtTolerance) {
  auto manager = TenantBudgetManager::Open(InMemory(1.0, 1e-6)).MoveValue();
  ASSERT_TRUE(
      manager->Commit(manager->Reserve("a", {1.0, 0.0}, "all").MoveValue())
          .ok());
  // 1 + 4e-10 and 1 + 8e-10 stay within 1 + 10⁻⁹; 1 + 1.2e-9 does not.
  double spent = 1.0;
  for (int i = 0; i < 2; ++i) {
    auto hold = manager->Reserve("a", {4e-10, 0.0}, "crumb");
    ASSERT_TRUE(hold.ok()) << i << ": " << hold.status().ToString();
    ASSERT_TRUE(manager->Commit(hold.value()).ok()) << i;
    spent += 4e-10;
  }
  auto refused = manager->Reserve("a", {4e-10, 0.0}, "crumb");
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  const TenantAccountView view = manager->Account("a");
  EXPECT_EQ(view.spent.epsilon, spent);
  EXPECT_EQ(view.reserved.epsilon, 0.0);
  EXPECT_EQ(view.commits, 3u);
  EXPECT_EQ(view.refusals, 1u);
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
  obs::SetMetricsEnabled(true);
  const obs::Counter* promoted =
      obs::MetricsRegistry::Default().GetCounter("serve.budget_recovered");
  const uint64_t promoted_before = promoted->Value();
  auto recovered = TenantBudgetManager::Open(options).MoveValue();
  obs::SetMetricsEnabled(false);
  EXPECT_EQ(recovered->recovered_holds(), 1u);
  EXPECT_EQ(promoted->Value() - promoted_before, 1u);
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
    // A new tenant's account reaches the snapshot at the next Open; two
    // more transitions leave two records in the journal.
    auto manager = TenantBudgetManager::Open(options).MoveValue();
    uint64_t hold = manager->Reserve("a", {0.1, 0.0}, "x").MoveValue();
    ASSERT_TRUE(manager->Commit(hold).ok());
  }
  {
    // A journal record that fails its checksum, followed by an intact one.
    const std::string journal_path = options.state_dir + "/bolton.journal";
    const std::string journal = ReadFile(journal_path);
    const size_t at = journal.find(" reserve a ");
    ASSERT_NE(at, std::string::npos);
    std::string corrupted = journal;
    corrupted[at + 11] = '7';  // budget ε 1 -> 7
    WriteFile(journal_path, corrupted);
    auto reopened = TenantBudgetManager::Open(options);
    ASSERT_FALSE(reopened.ok());
    EXPECT_NE(reopened.status().message().find("corrupted"),
              std::string::npos)
        << reopened.status().ToString();
    WriteFile(journal_path, journal);
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

TEST(TenantBudgetTest, MissingStateDirRefusedAtOpen) {
  TenantBudgetOptions options = InMemory();
  options.state_dir = ::testing::TempDir() + "budget_no_such_dir/missing";
  auto opened = TenantBudgetManager::Open(options);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kIOError);
  EXPECT_NE(opened.status().message().find(options.state_dir),
            std::string::npos)
      << opened.status().ToString();
}

TEST(TenantBudgetTest, TornLastRecordDroppedAndNextAppendClean) {
  // An append cut short (no newline), and a whole last line whose checksum
  // does not match: neither was acknowledged, so both are dropped.
  for (const std::string& torn :
       {std::string("9 reserve a 1 1e-06 0.2 0 tor"),
        std::string("9 commit 1 0123456789abcdef\n")}) {
    SCOPED_TRACE(torn);
    TenantBudgetOptions options = InMemory(1.0, 1e-6);
    options.state_dir = MakeStateDir("budget_torn");
    const std::string journal_path = options.state_dir + "/bolton.journal";
    {
      auto manager = TenantBudgetManager::Open(options).MoveValue();
      uint64_t hold = manager->Reserve("a", {0.3, 1e-7}, "x").MoveValue();
      ASSERT_TRUE(manager->Commit(hold).ok());
    }
    AppendFile(journal_path, torn);
    {
      auto reopened = TenantBudgetManager::Open(options).MoveValue();
      EXPECT_EQ(reopened->recovered_holds(), 0u);
      EXPECT_DOUBLE_EQ(reopened->Account("a").spent.epsilon, 0.3);
      // The torn bytes are gone before anything is appended.
      EXPECT_EQ(ReadFile(journal_path), "bolton-journal v1\n");
      uint64_t hold = reopened->Reserve("a", {0.2, 0.0}, "y").MoveValue();
      ASSERT_TRUE(reopened->Commit(hold).ok());
    }
    const std::string journal = ReadFile(journal_path);
    EXPECT_EQ(journal.find("tor"), std::string::npos);
    EXPECT_EQ(journal.back(), '\n');
    auto third = TenantBudgetManager::Open(options).MoveValue();
    EXPECT_EQ(third->recovered_holds(), 0u);
    EXPECT_DOUBLE_EQ(third->Account("a").spent.epsilon, 0.5);
    EXPECT_EQ(third->Account("a").commits, 2u);
  }
}

TEST(TenantBudgetTest, FailedWriteIsFollowedBySnapshotNotAppend) {
  TenantBudgetOptions options = InMemory(1.0, 1e-6);
  options.state_dir = MakeStateDir("budget_after_failure");
  const std::string journal_path = options.state_dir + "/bolton.journal";
  uint64_t first = 0, second = 0;
  {
    auto manager = TenantBudgetManager::Open(options).MoveValue();
    first = manager->Reserve("a", {0.1, 0.0}, "x").MoveValue();
    EXPECT_NE(ReadFile(journal_path), "bolton-journal v1\n");
    // The first attempt fails as if the append tore; the retry must not
    // append after it, so it writes a snapshot and a fresh journal.
    ASSERT_TRUE(
        FailpointRegistry::Default().Configure("serve.persist:error@1").ok());
    second = manager->Reserve("b", {0.2, 0.0}, "y").MoveValue();
    FailpointRegistry::Default().Clear();
    EXPECT_EQ(ReadFile(journal_path), "bolton-journal v1\n");
    const std::string snapshot = ReadFile(options.state_dir + "/bolton.budget");
    EXPECT_NE(snapshot.find(StrFormat("hold %llu a ",
                                      static_cast<unsigned long long>(first))),
              std::string::npos);
    EXPECT_NE(snapshot.find(StrFormat("hold %llu b ",
                                      static_cast<unsigned long long>(second))),
              std::string::npos);
  }
  auto reopened = TenantBudgetManager::Open(options).MoveValue();
  EXPECT_EQ(reopened->recovered_holds(), 2u);
  EXPECT_DOUBLE_EQ(reopened->Account("b").spent.epsilon, 0.2);
}

TEST(TenantBudgetTest, MidJournalCorruptionRefusedWithBothFilesUntouched) {
  TenantBudgetOptions options = InMemory(1.0, 1e-6);
  options.state_dir = MakeStateDir("budget_mid_corrupt");
  const std::string snapshot_path = options.state_dir + "/bolton.budget";
  const std::string journal_path = options.state_dir + "/bolton.journal";
  {
    auto manager = TenantBudgetManager::Open(options).MoveValue();
    for (int i = 0; i < 3; ++i) {
      uint64_t hold = manager->Reserve("a", {0.1, 0.0}, "x").MoveValue();
      ASSERT_TRUE(manager->Commit(hold).ok());
    }
  }
  const std::string snapshot = ReadFile(snapshot_path);
  std::string journal = ReadFile(journal_path);
  // Cut the middle of the second record out: a bad line, then good ones.
  const size_t second = journal.find('\n', journal.find('\n') + 1) + 1;
  journal.erase(second + 4, 6);
  WriteFile(journal_path, journal);

  auto opened = TenantBudgetManager::Open(options);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kIOError);
  EXPECT_NE(opened.status().message().find("line 3"), std::string::npos)
      << opened.status().ToString();
  EXPECT_EQ(ReadFile(snapshot_path), snapshot);
  EXPECT_EQ(ReadFile(journal_path), journal);

  // A journal without its snapshot is refused too, and left as it is.
  std::remove(snapshot_path.c_str());
  WriteFile(journal_path, "bolton-journal v1\n");
  opened = TenantBudgetManager::Open(options);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(FileSize(snapshot_path), 0u);
  EXPECT_EQ(ReadFile(journal_path), "bolton-journal v1\n");
}

TEST(TenantBudgetTest, PreCompactionJournalBesideNewerSnapshotReplaysNothing) {
  TenantBudgetOptions options = InMemory(10.0, 1e-3);
  options.state_dir = MakeStateDir("budget_stale_journal");
  const std::string snapshot_path = options.state_dir + "/bolton.budget";
  const std::string journal_path = options.state_dir + "/bolton.journal";
  std::string stale;
  {
    auto manager = TenantBudgetManager::Open(options).MoveValue();
    // Reserves and commits, one flush each, until a flush writes a
    // snapshot and starts a fresh journal; `stale` is the journal just
    // before that flush.
    Rng rng(21);
    uint64_t hold = 0;
    for (size_t size = FileSize(journal_path);;) {
      if (size >= TenantBudgetManager::kJournalCompactBytes) {
        stale = ReadFile(journal_path);
      }
      if (hold == 0) {
        const std::string tenant =
            StrFormat("t%02d", static_cast<int>(rng.UniformInt(16)));
        hold = manager->Reserve(tenant, {rng.UniformDouble(1e-5, 1e-3), 0.0},
                                "x")
                   .MoveValue();
      } else {
        ASSERT_TRUE(manager->Commit(hold).ok());
        hold = 0;
      }
      const size_t now = FileSize(journal_path);
      if (now < size) break;
      size = now;
    }
    ASSERT_FALSE(stale.empty());
    ASSERT_EQ(ReadFile(journal_path), "bolton-journal v1\n");
  }
  const std::string snapshot = ReadFile(snapshot_path);
  std::vector<TenantAccountView> expected;
  uint64_t expected_recovered = 0;
  {
    auto reopened = TenantBudgetManager::Open(options).MoveValue();
    expected = reopened->Snapshot();
    expected_recovered = reopened->recovered_holds();
  }
  // As if the crash came between writing the snapshot and resetting the
  // journal: every stale record is below the snapshot's next_hold.
  WriteFile(snapshot_path, snapshot);
  WriteFile(journal_path, stale);
  auto reopened = TenantBudgetManager::Open(options).MoveValue();
  EXPECT_EQ(reopened->recovered_holds(), expected_recovered);
  ExpectSameAccounts(expected, reopened->Snapshot());
}

TEST(TenantBudgetTest, SpendBitsAndCountersSurviveReopen) {
  TenantBudgetOptions options = InMemory(10.0, 1e-3);
  options.state_dir = MakeStateDir("budget_bits");
  const std::string journal_path = options.state_dir + "/bolton.journal";
  std::vector<TenantAccountView> live;
  int compactions = 0;
  {
    auto manager = TenantBudgetManager::Open(options).MoveValue();
    Rng rng(7);
    size_t size = FileSize(journal_path);
    // Each step appends at least 64 bytes, so this crosses the compaction
    // threshold and ends with records past the last snapshot.
    for (size_t step = 0;
         step < TenantBudgetManager::kJournalCompactBytes / 48; ++step) {
      RandomStep(manager.get(), &rng);
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
      const size_t now = FileSize(journal_path);
      if (now < size) ++compactions;
      size = now;
    }
    EXPECT_GT(size, std::string("bolton-journal v1\n").size());
    live = manager->Snapshot();
  }
  EXPECT_GE(compactions, 1);
  ASSERT_EQ(live.size(), 16u);
  auto reopened = TenantBudgetManager::Open(options).MoveValue();
  EXPECT_EQ(reopened->recovered_holds(), 0u);
  ExpectSameAccounts(live, reopened->Snapshot());
}

TEST(TenantBudgetTest, GroupCommitBatchesRecords) {
  TenantBudgetOptions options = InMemory(1.0, 1e-6);
  options.state_dir = MakeStateDir("budget_group_commit");
  auto manager = TenantBudgetManager::Open(options).MoveValue();
  // Every flush sleeps 1 ms, so records queue up behind a running one.
  ASSERT_TRUE(
      FailpointRegistry::Default().Configure("serve.persist:delay@1").ok());
  constexpr int kThreads = 8, kPairs = 100;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string tenant = StrFormat("g%d", t);
      for (int i = 0; i < kPairs; ++i) {
        auto hold = manager->Reserve(tenant, {0.001, 1e-9}, "pair");
        if (!hold.ok() || !manager->Commit(hold.value()).ok()) ++failures[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const uint64_t flushes =
      FailpointRegistry::Default().Stats("serve.persist").hits;
  FailpointRegistry::Default().Clear();

  double epsilon = 0.0, delta = 0.0;
  for (int i = 0; i < kPairs; ++i) {
    epsilon += 0.001;
    delta += 1e-9;
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0);
    const TenantAccountView view = manager->Account(StrFormat("g%d", t));
    EXPECT_EQ(view.spent.epsilon, epsilon);
    EXPECT_EQ(view.spent.delta, delta);
    EXPECT_EQ(view.commits, static_cast<uint64_t>(kPairs));
  }
  EXPECT_LT(flushes, static_cast<uint64_t>(2 * kThreads * kPairs));
  const std::vector<TenantAccountView> live = manager->Snapshot();
  manager.reset();
  ExpectSameAccounts(live,
                     TenantBudgetManager::Open(options).MoveValue()->Snapshot());
}

TEST(TenantBudgetTest, NoLockHeldAcrossPersist) {
  TenantBudgetOptions options = InMemory(1.0, 1e-6);
  options.state_dir = MakeStateDir("budget_no_lock_io");
  auto manager = TenantBudgetManager::Open(options).MoveValue();
  ASSERT_TRUE(manager->Reserve("b", {0.1, 0.0}, "x").ok());
  ASSERT_TRUE(
      FailpointRegistry::Default().Configure("serve.persist:delay@300").ok());
  std::thread writer(
      [&] { EXPECT_TRUE(manager->Reserve("a", {0.1, 0.0}, "x").ok()); });
  // Wait until the writer's flush is sleeping in the persist.
  for (int i = 0; i < 1000 &&
                  FailpointRegistry::Default().Stats("serve.persist").hits == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto start = std::chrono::steady_clock::now();
  const TenantAccountView view = manager->Account("b");
  const auto after_account = std::chrono::steady_clock::now();
  const std::vector<TenantAccountView> views = manager->Snapshot();
  const auto after_snapshot = std::chrono::steady_clock::now();
  writer.join();
  FailpointRegistry::Default().Clear();
  EXPECT_DOUBLE_EQ(view.reserved.epsilon, 0.1);
  EXPECT_EQ(views.size(), 2u);
  EXPECT_LT(after_account - start, std::chrono::milliseconds(50));
  EXPECT_LT(after_snapshot - after_account, std::chrono::milliseconds(50));
}

TEST(TenantBudgetTest, HeadFormatStateWithPendingHoldLoadsAndPromotesOnce) {
  TenantBudgetOptions options = InMemory(1.0, 1e-6);
  options.state_dir = MakeStateDir("budget_head_format");
  // A state dir as the snapshot-only store wrote it: no journal, one
  // committed 0.3-ε spend and a pending 0.2-ε hold.
  WriteFile(options.state_dir + "/bolton.budget",
            "bolton-budget v2\n"
            "next_hold 3\n"
            "accounts 1\n"
            "account alice 1 9.9999999999999995e-07 0.29999999999999999 "
            "9.9999999999999995e-08 1 0 0 0\n"
            "holds 1\n"
            "hold 2 alice 0.20000000000000001 0 train\n"
            "checksum aa6ba26d79017993\n");
  double spent = 0.0;
  {
    auto opened = TenantBudgetManager::Open(options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto manager = opened.MoveValue();
    EXPECT_EQ(manager->recovered_holds(), 1u);
    const TenantAccountView view = manager->Account("alice");
    spent = view.spent.epsilon;
    EXPECT_DOUBLE_EQ(spent, 0.5);
    EXPECT_DOUBLE_EQ(view.spent.delta, 1e-7);
    EXPECT_DOUBLE_EQ(view.reserved.epsilon, 0.0);
    EXPECT_EQ(view.commits, 1u);
    EXPECT_EQ(view.recovered, 1u);
    // Sequence numbers continue from the file's next_hold.
    EXPECT_GE(manager->Reserve("bob", {0.1, 0.0}, "x").MoveValue(), 3u);
  }
  auto third = TenantBudgetManager::Open(options).MoveValue();
  EXPECT_EQ(third->recovered_holds(), 1u);  // bob's hold, never committed
  EXPECT_EQ(third->Account("alice").spent.epsilon, spent);
  EXPECT_EQ(third->Account("alice").recovered, 1u);
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

TEST(TenantBudgetTest, ReopenRecordsNoCharges) {
  obs::PrivacyLedger& ledger = obs::PrivacyLedger::Default();
  ledger.SetEnabled(false);
  TenantBudgetOptions options = InMemory(1.0, 1e-6);
  options.state_dir = MakeStateDir("budget_reopen_ledger");
  for (const char* tenant : {"a", "b"}) {
    // "a"'s commit reaches the snapshot at the second Open; "b"'s stays in
    // the journal.
    auto manager = TenantBudgetManager::Open(options).MoveValue();
    ASSERT_TRUE(
        manager->Commit(manager->Reserve(tenant, {0.1, 0.0}, "x").MoveValue())
            .ok());
  }
  ledger.Clear();
  ledger.SetEnabled(true);
  {
    auto reopened = TenantBudgetManager::Open(options).MoveValue();
    EXPECT_EQ(ledger.Snapshot().size(), 0u)
        << obs::RenderLedgerJsonl(ledger.Snapshot());
    EXPECT_EQ(reopened->Account("a").spent.epsilon, 0.1);
    EXPECT_EQ(reopened->Account("b").spent.epsilon, 0.1);
    ASSERT_TRUE(reopened->Reserve("c", {0.2, 1e-7}, "pending").ok());
  }
  ledger.Clear();
  auto recovered = TenantBudgetManager::Open(options).MoveValue();
  const std::vector<obs::LedgerEvent> events = ledger.Snapshot();
  ledger.SetEnabled(false);
  ledger.Clear();
  ASSERT_EQ(events.size(), 1u) << obs::RenderLedgerJsonl(events);
  EXPECT_EQ(events[0].kind, "budget_recover");
  EXPECT_EQ(events[0].tenant, "c");
  EXPECT_EQ(events[0].label, "pending");
  EXPECT_EQ(events[0].epsilon, 0.2);
  EXPECT_EQ(events[0].delta, 1e-7);
  EXPECT_EQ(recovered->recovered_holds(), 1u);
}

TEST(TenantBudgetTest, NegativeOrNonFiniteSpendRefusedAtOpen) {
  TenantBudgetOptions options = InMemory(1.0, 1e-6);
  options.state_dir = MakeStateDir("budget_bad_spend");
  for (const char* spent : {"-0.25 0", "nan 0", "0.25 inf"}) {
    SCOPED_TRACE(spent);
    std::string snapshot = StrFormat(
        "bolton-budget v2\n"
        "next_hold 2\n"
        "accounts 1\n"
        "account alice 1 1e-06 %s 1 0 0 0\n"
        "holds 0\n",
        spent);
    AppendChecksumLine(&snapshot);
    WriteFile(options.state_dir + "/bolton.budget", snapshot);
    auto opened = TenantBudgetManager::Open(options);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(opened.status().message().find("negative or not finite"),
              std::string::npos)
        << opened.status().ToString();
  }
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
