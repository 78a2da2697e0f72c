#include "serve/budget.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>
#include <utility>

#include "obs/ledger.h"
#include "obs/metrics.h"
#include "util/atomic_file.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/strings.h"

namespace bolton {
namespace serve {

namespace {

constexpr char kMagic[] = "bolton-budget v2";

/// The journal is a record log (util/atomic_file) of one record per
/// transition, each led by its sequence number:
///
///   <seq> reserve <tenant> <budget ε> <budget δ> <ε> <δ> <label>
///   <seq> commit <hold>
///   <seq> refund <hold>
///   <seq> refusal <tenant> <budget ε> <budget δ>
///
/// A reserve's hold id is its sequence number. Reserve and refusal records
/// carry the tenant's budget, so that replay grants an account the budget
/// it was created with. Doubles are printed shortest-round-trip.
constexpr char kJournalMagic[] = "bolton-journal v1";

/// Persist retry on I/O failure: up to kPersistAttempts writes; retry r
/// (1-based) first sleeps kPersistBackoffMs·2^(r−1) ms, stretched by a
/// uniform factor in [1, 1 + kPersistJitter]. Retries are counted on the
/// serve.persist_retries metric.
constexpr size_t kPersistAttempts = 3;
constexpr double kPersistBackoffMs = 5.0;
constexpr double kPersistJitter = 0.5;

/// Ids the state file stores intact (EncodeToken leaves them unchanged, and
/// none is its "-" stand-in for "") and /v1/budget?tenant= needs no
/// percent-decoding for.
bool ValidTenantId(const std::string& tenant) {
  return !tenant.empty() && tenant != "-" &&
         tenant.find_first_not_of("abcdefghijklmnopqrstuvwxyz"
                                  "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-") ==
             std::string::npos;
}

void SleepBeforeRetry(size_t retry, Rng* jitter_rng) {
  const double ms = kPersistBackoffMs *
                    static_cast<double>(uint64_t{1} << (retry - 1)) *
                    (1.0 + jitter_rng->UniformDouble(0.0, kPersistJitter));
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

/// Appends ' ' and the shortest text that parses back to `value`.
void AppendField(double value, std::string* out) {
  char buf[32];
  const std::to_chars_result result =
      std::to_chars(buf, buf + sizeof(buf), value);
  *out += ' ';
  out->append(buf, result.ptr);
}

/// "<kind> <tenant> <budget ε> <budget δ>", the head of a reserve or
/// refusal record.
std::string AccountRecord(const char* kind, const std::string& tenant,
                          const PrivacyParams& budget) {
  std::string out = StrFormat("%s %s", kind, tenant.c_str());
  AppendField(budget.epsilon, &out);
  AppendField(budget.delta, &out);
  return out;
}

/// Parses the (ε, δ) of a recorded spend or hold, which Reserve() only
/// ever admits finite and non-negative.
Result<PrivacyParams> ParseAmounts(const std::string& epsilon,
                                   const std::string& delta) {
  PrivacyParams amounts;
  BOLTON_ASSIGN_OR_RETURN(amounts.epsilon, ParseDouble(epsilon));
  BOLTON_ASSIGN_OR_RETURN(amounts.delta, ParseDouble(delta));
  if (!(amounts.epsilon >= 0.0 && amounts.delta >= 0.0) ||
      !std::isfinite(amounts.epsilon) || !std::isfinite(amounts.delta)) {
    return Status::InvalidArgument(
        StrFormat("amount (%s, %s) is negative or not finite",
                  epsilon.c_str(), delta.c_str()));
  }
  return amounts;
}

/// Basic composition, one running sum: `sum` += `cost` in ε and in δ.
void AddTo(const PrivacyParams& cost, PrivacyParams* sum) {
  sum->epsilon += cost.epsilon;
  sum->delta += cost.delta;
}

enum class Transition { kReserve, kCommit, kRefund, kRefusal, kRecover };

/// Counts `transition` on its serve.budget_* counter and records its one
/// tenant-keyed ledger event; only a refusal is not accepted. Called with
/// the state mutex released: the event's line is written to the ledger
/// file, and no lock shared across tenants is held across that write.
void Note(Transition transition, const std::string& tenant,
          const PrivacyParams& cost, const std::string& label) {
  struct Kind {
    const char* event;
    obs::Counter* counter;
  };
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  static const Kind kKinds[] = {
      {"budget_reserve", registry.GetCounter("serve.budget_reserves")},
      {"budget_commit", registry.GetCounter("serve.budget_commits")},
      {"budget_refund", registry.GetCounter("serve.budget_refunds")},
      {"budget_refusal", registry.GetCounter("serve.budget_refusals")},
      {"budget_recover", registry.GetCounter("serve.budget_recovered")},
  };
  const Kind& kind = kKinds[static_cast<int>(transition)];
  kind.counter->Increment();
  obs::PrivacyLedger& ledger = obs::PrivacyLedger::Default();
  if (!ledger.enabled()) return;
  ledger.Record({.kind = kind.event, .label = label, .tenant = tenant,
                 .epsilon = cost.epsilon, .delta = cost.delta,
                 .accepted = transition != Transition::kRefusal});
}

struct PersistMetrics {
  obs::Counter* retries;
  obs::Counter* errors;
};

PersistMetrics& Metrics() {
  static PersistMetrics* m = new PersistMetrics{
      obs::MetricsRegistry::Default().GetCounter("serve.persist_retries"),
      obs::MetricsRegistry::Default().GetCounter("serve.persist_errors"),
  };
  return *m;
}

}  // namespace

TenantBudgetManager::TenantBudgetManager(const TenantBudgetOptions& options)
    : options_(options) {
  if (!options_.state_dir.empty()) {
    path_ = options_.state_dir + "/bolton.budget";
    journal_path_ = options_.state_dir + "/bolton.journal";
  }
}

TenantBudgetManager::~TenantBudgetManager() {
  if (journal_fd_ >= 0) ::close(journal_fd_);
}

Result<std::unique_ptr<TenantBudgetManager>> TenantBudgetManager::Open(
    const TenantBudgetOptions& options) {
  BOLTON_RETURN_IF_ERROR(options.default_budget.Validate().WithContext(
      "tenant default budget"));
  std::unique_ptr<TenantBudgetManager> manager(
      new TenantBudgetManager(options));
  if (manager->path_.empty()) return manager;

  // Both files are read and checked before anything is written, so a
  // refused snapshot or journal stays on disk untouched for the operator.
  auto snapshot = ReadChecksummedFile(manager->path_, kMagic);
  if (!snapshot.ok() && snapshot.status().code() != StatusCode::kNotFound) {
    return snapshot.status().WithContext("budget state");
  }
  auto journal = ReadRecordLog(manager->journal_path_, kJournalMagic);
  if (!journal.ok() && journal.status().code() != StatusCode::kNotFound) {
    return journal.status().WithContext("budget journal");
  }
  if (!snapshot.ok() && journal.ok()) {
    // The first boot writes the snapshot before it creates the journal, so
    // this is a state dir missing its snapshot; replaying the journal over
    // an empty state would forget the spend the snapshot held.
    return Status::FailedPrecondition(StrFormat(
        "budget journal %s has no snapshot %s beside it",
        manager->journal_path_.c_str(), manager->path_.c_str()));
  }

  std::unique_lock<std::mutex> lock(manager->mu_);
  if (snapshot.ok()) {
    BOLTON_RETURN_IF_ERROR(
        manager->RestoreLocked(snapshot.value())
            .WithContext(StrFormat("budget state %s", manager->path_.c_str())));
  }
  if (journal.ok()) {
    if (journal.value().torn_bytes > 0) {
      // A torn append was never acknowledged, so no caller acted on it.
      BOLTON_LOG(kWarning) << "budget journal " << manager->journal_path_
                           << ": dropped a torn last record ("
                           << journal.value().torn_bytes << " bytes)";
    }
    BOLTON_RETURN_IF_ERROR(manager->ReplayLocked(journal.value().records)
                               .WithContext(StrFormat(
                                   "budget journal %s",
                                   manager->journal_path_.c_str())));
  }

  // Crash recovery: every hold still pending on disk may have released
  // noise before the commit persisted — promote it to spend. Charging an
  // unreleased run over-counts ε (safe); forgetting a released one would
  // under-count (a privacy violation), so pending always promotes. Reserve()
  // admitted the hold, so its promotion is not checked again.
  std::map<uint64_t, Hold> recovered;
  recovered.swap(manager->holds_);
  for (const auto& entry : recovered) {
    const Hold& hold = entry.second;
    AccountState& account = manager->accounts_.at(hold.tenant);
    AddTo(hold.cost, &account.spent);
    account.recovered += 1;
    manager->recovered_holds_ += 1;
    BOLTON_LOG(kWarning) << "budget recovery: promoted pending hold ("
                         << hold.tenant << ", eps=" << hold.cost.epsilon
                         << ") to committed spend";
  }
  for (auto& entry : manager->accounts_) {
    entry.second.reserved = PrivacyParams{0.0, 0.0};
  }
  // The recovered state goes out as a fresh snapshot beside an empty
  // journal (snapshot_due_ starts true), so a dropped torn record is gone
  // before anything is appended; a dir that cannot be written fails here.
  BOLTON_RETURN_IF_ERROR(manager->FlushLocked(&lock));
  lock.unlock();
  for (const auto& entry : recovered) {
    const Hold& hold = entry.second;
    Note(Transition::kRecover, hold.tenant, hold.cost, hold.label);
  }
  return manager;
}

TenantBudgetManager::AccountState& TenantBudgetManager::GetOrCreateLocked(
    const std::string& tenant, const PrivacyParams& budget) {
  auto it = accounts_.find(tenant);
  if (it == accounts_.end()) {
    it = accounts_.emplace(tenant, AccountState(budget)).first;
  }
  return it->second;
}

void TenantBudgetManager::HoldLocked(uint64_t id, Hold hold) {
  AddTo(hold.cost, &accounts_.at(hold.tenant).reserved);
  holds_[id] = std::move(hold);
}

void TenantBudgetManager::CommitLocked(
    std::map<uint64_t, Hold>::iterator hold) {
  AccountState& account = accounts_.at(hold->second.tenant);
  AddTo(hold->second.cost, &account.spent);
  account.commits += 1;
  ReleaseLocked(hold);
}

void TenantBudgetManager::ReleaseLocked(
    std::map<uint64_t, Hold>::iterator hold) {
  AccountState& account = accounts_.at(hold->second.tenant);
  account.reserved.epsilon -= hold->second.cost.epsilon;
  account.reserved.delta -= hold->second.cost.delta;
  holds_.erase(hold);
}

uint64_t TenantBudgetManager::AppendLocked(const std::string& record,
                                           Waiter* waiter) {
  const uint64_t seq = next_seq_++;
  if (path_.empty()) {
    if (waiter != nullptr) waiter->done = true;
    return seq;
  }
  AppendLogRecord(StrFormat("%llu %s", static_cast<unsigned long long>(seq),
                            record.c_str()),
                  &queue_);
  if (waiter != nullptr) queue_waiters_.push_back(waiter);
  return seq;
}

Status TenantBudgetManager::AwaitLocked(Waiter* waiter,
                                        std::unique_lock<std::mutex>* lock) {
  while (!waiter->done) {
    flushed_.wait(*lock, [&] { return waiter->done || !flushing_; });
    // Not done and no flush running, so none has taken this record.
    if (!waiter->done) FlushLocked(lock);
  }
  return waiter->status;
}

Status TenantBudgetManager::FlushLocked(std::unique_lock<std::mutex>* lock) {
  flushing_ = true;
  std::vector<Waiter*> waiters;
  Status status;
  for (size_t attempt = 1; attempt <= kPersistAttempts; ++attempt) {
    if (attempt > 1) {
      Metrics().retries->Increment();
      lock->unlock();
      SleepBeforeRetry(attempt - 1, &jitter_rng_);
      lock->lock();
    }
    // Whoever flushes takes the whole queue, records queued during an
    // earlier attempt's backoff included.
    std::string content;
    content.swap(queue_);
    waiters.insert(waiters.end(), queue_waiters_.begin(),
                   queue_waiters_.end());
    queue_waiters_.clear();
    const bool snapshot =
        snapshot_due_ || journal_bytes_ >= kJournalCompactBytes;
    // A snapshot covers every record applied so far, the ones just taken
    // included, so those never reach the journal.
    if (snapshot) content = RenderLocked();
    lock->unlock();
    status = FailpointRegistry::Default().Evaluate("serve.persist");
    if (status.ok()) {
      status = snapshot ? WriteSnapshot(content)
                        : AppendAndSync(journal_fd_, content, journal_path_);
    }
    lock->lock();
    if (status.ok()) {
      journal_bytes_ = snapshot ? std::strlen(kJournalMagic) + 1
                                : journal_bytes_ + content.size();
      snapshot_due_ = false;
      break;
    }
    // The journal may now end in a torn record, or in pages the kernel
    // dropped: the next attempt starts a fresh one instead of appending.
    snapshot_due_ = true;
  }
  if (!status.ok()) {
    status = status.WithContext(StrFormat(
        "budget persist failed after %zu attempts", kPersistAttempts));
    // Write-ahead: a hold that is not durable is not granted. Rolled back
    // here, under the mutex, so that the next snapshot never shows it.
    for (const Waiter* waiter : waiters) {
      if (waiter->hold != 0) ReleaseLocked(holds_.find(waiter->hold));
    }
  }
  for (Waiter* waiter : waiters) {
    waiter->status = status;
    waiter->done = true;
  }
  flushing_ = false;
  flushed_.notify_all();
  return status;
}

Status TenantBudgetManager::WriteSnapshot(const std::string& snapshot) {
  // Snapshot first, then a fresh journal: after a crash between the two,
  // the old journal's records all lie below the new snapshot's next_hold,
  // so replay skips them.
  BOLTON_RETURN_IF_ERROR(AtomicWriteFile(path_, snapshot, 0600));
  if (journal_fd_ >= 0) ::close(journal_fd_);
  journal_fd_ = -1;
  BOLTON_RETURN_IF_ERROR(AtomicWriteFile(
      journal_path_, std::string(kJournalMagic) + "\n", 0600));
  journal_fd_ = ::open(journal_path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (journal_fd_ < 0) {
    return Status::IOError(StrFormat("cannot open %s: %s",
                                     journal_path_.c_str(),
                                     std::strerror(errno)));
  }
  return Status::OK();
}

Result<uint64_t> TenantBudgetManager::Reserve(const std::string& tenant,
                                              const PrivacyParams& cost,
                                              const std::string& label) {
  if (!ValidTenantId(tenant)) {
    return Status::InvalidArgument(
        "tenant id must be one or more of [A-Za-z0-9._-], and not \"-\"");
  }
  BOLTON_RETURN_IF_ERROR(cost.Validate().WithContext(
      StrFormat("budget reserve for tenant '%s'", tenant.c_str())));
  // Fault gate before any mutation: an injected reserve error refuses the
  // request cleanly (nothing held, nothing persisted). Evaluated before the
  // mutex, so an injected delay never stalls other tenants.
  BOLTON_FAILPOINT("serve.budget_reserve");

  std::unique_lock<std::mutex> lock(mu_);
  AccountState& account = GetOrCreateLocked(tenant, options_.default_budget);
  PrivacyParams committed = account.spent;
  AddTo(account.reserved, &committed);
  if (!FitsBudget(committed, cost, account.budget)) {
    account.refusals += 1;
    // A refusal holds no spend, so nobody waits for its record: it reaches
    // disk with the next flush, or now if refusals alone fill the queue.
    AppendLocked(AccountRecord("refusal", tenant, account.budget), nullptr);
    if (queue_.size() >= kJournalCompactBytes && !flushing_) {
      FlushLocked(&lock);
    }
    Status refused = Status::FailedPrecondition(StrFormat(
        "budget_exhausted: tenant '%s' asked for (ε=%g, δ=%g) with only "
        "(ε=%g, δ=%g) uncommitted",
        tenant.c_str(), cost.epsilon, cost.delta,
        std::max(0.0, account.budget.epsilon - committed.epsilon),
        std::max(0.0, account.budget.delta - committed.delta)));
    lock.unlock();
    Note(Transition::kRefusal, tenant, cost, label);
    return refused;
  }

  std::string record = AccountRecord("reserve", tenant, account.budget);
  AppendField(cost.epsilon, &record);
  AppendField(cost.delta, &record);
  record += ' ';
  record += EncodeToken(label);
  Waiter waiter;
  waiter.hold = AppendLocked(record, &waiter);
  HoldLocked(waiter.hold, Hold{tenant, cost, label});

  // Write-ahead: the hold must be durable before any training work (and
  // certainly before any noise) happens under it. A failed flush has
  // already rolled the hold back.
  BOLTON_RETURN_IF_ERROR(AwaitLocked(&waiter, &lock).WithContext(
      "budget reserve write-ahead"));
  lock.unlock();
  Note(Transition::kReserve, tenant, cost, label);
  return waiter.hold;
}

Status TenantBudgetManager::Commit(uint64_t hold_id) {
  // Fault gate on the commit persist path (chaos tests arm error/panic
  // here: error = the record is queued but not waited for, as if its
  // flush failed; panic = crash between the spend and its record reaching
  // disk, resolved by recovery promotion). Evaluated before the mutex, so
  // an injected delay never stalls other tenants.
  const Status inject =
      FailpointRegistry::Default().Evaluate("serve.budget_commit");
  std::unique_lock<std::mutex> lock(mu_);
  auto it = holds_.find(hold_id);
  if (it == holds_.end()) {
    return Status::NotFound(
        StrFormat("unknown budget hold %llu",
                  static_cast<unsigned long long>(hold_id)));
  }
  const Hold hold = it->second;

  // The in-memory transition happens unconditionally: by commit time the
  // noisy model has been (or is about to be) released, so the spend is a
  // fact, and Reserve() admitted it. Only the persist below can fail, and
  // that failure is tolerable — the disk still shows the hold as pending
  // and recovery promotes it.
  CommitLocked(it);
  Waiter waiter;
  AppendLocked(StrFormat("commit %llu",
                         static_cast<unsigned long long>(hold_id)),
               inject.ok() ? &waiter : nullptr);

  Status persisted = inject.ok() ? AwaitLocked(&waiter, &lock) : inject;
  lock.unlock();
  Note(Transition::kCommit, hold.tenant, hold.cost, hold.label);
  if (!persisted.ok()) {
    Metrics().errors->Increment();
    BOLTON_LOG(kWarning)
        << "budget commit persisted lazily (state file still shows the "
        << "hold; recovery would promote it): " << persisted.ToString();
  }
  return Status::OK();
}

Status TenantBudgetManager::Refund(uint64_t hold_id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = holds_.find(hold_id);
  if (it == holds_.end()) {
    return Status::NotFound(
        StrFormat("unknown budget hold %llu",
                  static_cast<unsigned long long>(hold_id)));
  }
  const Hold hold = it->second;
  accounts_.at(hold.tenant).refunds += 1;
  ReleaseLocked(it);
  Waiter waiter;
  AppendLocked(StrFormat("refund %llu",
                         static_cast<unsigned long long>(hold_id)),
               &waiter);
  // Best-effort persist: a failure leaves the hold pending on disk, and a
  // later crash would conservatively promote it — an over-charge, never an
  // under-charge.
  Status persisted = AwaitLocked(&waiter, &lock);
  lock.unlock();
  Note(Transition::kRefund, hold.tenant, hold.cost, hold.label);
  if (!persisted.ok()) {
    Metrics().errors->Increment();
    BOLTON_LOG(kWarning) << "budget refund persist failed (refund stands "
                         << "in memory; a crash before the next persist "
                         << "re-charges it): " << persisted.ToString();
  }
  return Status::OK();
}

TenantAccountView TenantBudgetManager::ViewLocked(
    const std::string& tenant, const AccountState& account) const {
  TenantAccountView view;
  view.tenant = tenant;
  view.budget = account.budget;
  view.spent = account.spent;
  view.reserved = account.reserved;
  view.commits = account.commits;
  view.refunds = account.refunds;
  view.refusals = account.refusals;
  view.recovered = account.recovered;
  return view;
}

TenantAccountView TenantBudgetManager::Account(
    const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = accounts_.find(tenant);
  if (it == accounts_.end()) {
    TenantAccountView view;
    view.tenant = tenant;
    view.budget = options_.default_budget;
    return view;
  }
  return ViewLocked(tenant, it->second);
}

std::vector<TenantAccountView> TenantBudgetManager::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TenantAccountView> out;
  out.reserve(accounts_.size());
  for (const auto& entry : accounts_) {
    out.push_back(ViewLocked(entry.first, entry.second));
  }
  return out;
}

std::string TenantBudgetManager::RenderLocked() const {
  std::string out = kMagic;
  out += "\n";
  out += StrFormat("next_hold %llu\n",
                   static_cast<unsigned long long>(next_seq_));
  out += StrFormat("accounts %zu\n", accounts_.size());
  for (const auto& entry : accounts_) {
    const AccountState& a = entry.second;
    out += StrFormat(
        "account %s %.17g %.17g %.17g %.17g %llu %llu %llu %llu\n",
        EncodeToken(entry.first).c_str(), a.budget.epsilon, a.budget.delta,
        a.spent.epsilon, a.spent.delta,
        static_cast<unsigned long long>(a.commits),
        static_cast<unsigned long long>(a.refunds),
        static_cast<unsigned long long>(a.refusals),
        static_cast<unsigned long long>(a.recovered));
  }
  out += StrFormat("holds %zu\n", holds_.size());
  for (const auto& entry : holds_) {
    const Hold& hold = entry.second;
    out += StrFormat("hold %llu %s %.17g %.17g %s\n",
                     static_cast<unsigned long long>(entry.first),
                     EncodeToken(hold.tenant).c_str(), hold.cost.epsilon,
                     hold.cost.delta, EncodeToken(hold.label).c_str());
  }
  AppendChecksumLine(&out);
  return out;
}

Status TenantBudgetManager::RestoreLocked(const std::string& body) {
  std::vector<std::string> lines;
  for (const std::string& line : StrSplit(body, '\n')) {
    if (!std::string(StripWhitespace(line)).empty()) lines.push_back(line);
  }
  size_t at = 0;
  auto next_tokens = [&](const char* want) -> Result<std::vector<std::string>> {
    if (at >= lines.size()) {
      return Status::InvalidArgument(
          StrFormat("truncated state: expected '%s' line", want));
    }
    std::vector<std::string> tokens = StrSplit(lines[at++], ' ');
    if (tokens.empty() || tokens[0] != want) {
      return Status::InvalidArgument(
          StrFormat("expected '%s' line, got '%s'", want,
                    lines[at - 1].c_str()));
    }
    return tokens;
  };

  {
    BOLTON_ASSIGN_OR_RETURN(auto tokens, next_tokens("next_hold"));
    if (tokens.size() != 2) return Status::InvalidArgument("bad next_hold");
    BOLTON_ASSIGN_OR_RETURN(next_seq_, ParseU64(tokens[1]));
  }
  uint64_t account_count = 0;
  {
    BOLTON_ASSIGN_OR_RETURN(auto tokens, next_tokens("accounts"));
    if (tokens.size() != 2) return Status::InvalidArgument("bad accounts");
    BOLTON_ASSIGN_OR_RETURN(account_count, ParseU64(tokens[1]));
  }
  accounts_.clear();
  for (uint64_t i = 0; i < account_count; ++i) {
    BOLTON_ASSIGN_OR_RETURN(auto tokens, next_tokens("account"));
    if (tokens.size() != 10) {
      return Status::InvalidArgument("bad account line");
    }
    const std::string tenant = DecodeToken(tokens[1]);
    PrivacyParams budget;
    BOLTON_ASSIGN_OR_RETURN(budget.epsilon, ParseDouble(tokens[2]));
    BOLTON_ASSIGN_OR_RETURN(budget.delta, ParseDouble(tokens[3]));
    BOLTON_ASSIGN_OR_RETURN(const PrivacyParams spent,
                            ParseAmounts(tokens[4], tokens[5]));
    auto account = accounts_.emplace(tenant, AccountState(budget)).first;
    AddTo(spent, &account->second.spent);
    BOLTON_ASSIGN_OR_RETURN(account->second.commits,
                            ParseU64(tokens[6]));
    BOLTON_ASSIGN_OR_RETURN(account->second.refunds,
                            ParseU64(tokens[7]));
    BOLTON_ASSIGN_OR_RETURN(account->second.refusals,
                            ParseU64(tokens[8]));
    BOLTON_ASSIGN_OR_RETURN(account->second.recovered,
                            ParseU64(tokens[9]));
  }
  uint64_t hold_count = 0;
  {
    BOLTON_ASSIGN_OR_RETURN(auto tokens, next_tokens("holds"));
    if (tokens.size() != 2) return Status::InvalidArgument("bad holds");
    BOLTON_ASSIGN_OR_RETURN(hold_count, ParseU64(tokens[1]));
  }
  holds_.clear();
  for (uint64_t i = 0; i < hold_count; ++i) {
    BOLTON_ASSIGN_OR_RETURN(auto tokens, next_tokens("hold"));
    if (tokens.size() != 6) return Status::InvalidArgument("bad hold line");
    BOLTON_ASSIGN_OR_RETURN(const uint64_t id, ParseU64(tokens[1]));
    BOLTON_ASSIGN_OR_RETURN(const PrivacyParams cost,
                            ParseAmounts(tokens[3], tokens[4]));
    Hold hold{DecodeToken(tokens[2]), cost, DecodeToken(tokens[5])};
    if (accounts_.find(hold.tenant) == accounts_.end()) {
      return Status::InvalidArgument(
          StrFormat("hold for unknown tenant '%s'", hold.tenant.c_str()));
    }
    HoldLocked(id, std::move(hold));
  }
  return Status::OK();
}

Status TenantBudgetManager::ReplayLocked(
    const std::vector<std::string>& records) {
  // Records below the snapshot's next_hold are already in it: a snapshot
  // written just before a crash sits beside the journal it replaced.
  const uint64_t covered = next_seq_;
  uint64_t expected = 0;  // the sequence number the next record must carry
  for (const std::string& record : records) {
    const std::vector<std::string> fields = StrSplit(record, ' ');
    BOLTON_ASSIGN_OR_RETURN(const uint64_t seq, ParseU64(fields[0]));
    if (expected == 0 ? seq > covered : seq != expected) {
      return Status::InvalidArgument(StrFormat(
          "record %llu follows %llu: records are missing",
          static_cast<unsigned long long>(seq),
          static_cast<unsigned long long>(expected == 0 ? covered - 1
                                                        : expected - 1)));
    }
    expected = seq + 1;
    if (seq < covered) continue;
    next_seq_ = seq + 1;
    const std::string kind = fields.size() > 1 ? fields[1] : "";
    if ((kind == "reserve" && fields.size() == 8) ||
        (kind == "refusal" && fields.size() == 5)) {
      PrivacyParams budget;
      BOLTON_ASSIGN_OR_RETURN(budget.epsilon, ParseDouble(fields[3]));
      BOLTON_ASSIGN_OR_RETURN(budget.delta, ParseDouble(fields[4]));
      AccountState& account = GetOrCreateLocked(fields[2], budget);
      if (kind == "refusal") {
        account.refusals += 1;
        continue;
      }
      BOLTON_ASSIGN_OR_RETURN(const PrivacyParams cost,
                              ParseAmounts(fields[5], fields[6]));
      HoldLocked(seq, Hold{fields[2], cost, DecodeToken(fields[7])});
    } else if ((kind == "commit" || kind == "refund") && fields.size() == 3) {
      BOLTON_ASSIGN_OR_RETURN(const uint64_t hold_id, ParseU64(fields[2]));
      auto hold = holds_.find(hold_id);
      if (hold == holds_.end()) {
        return Status::InvalidArgument(StrFormat(
            "record %llu settles unknown hold %llu",
            static_cast<unsigned long long>(seq),
            static_cast<unsigned long long>(hold_id)));
      }
      if (kind == "commit") {
        CommitLocked(hold);
      } else {
        accounts_.at(hold->second.tenant).refunds += 1;
        ReleaseLocked(hold);
      }
    } else {
      return Status::InvalidArgument(
          StrFormat("bad journal record '%s'", record.c_str()));
    }
  }
  return Status::OK();
}

}  // namespace serve
}  // namespace bolton
