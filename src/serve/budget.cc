#include "serve/budget.h"

#include <algorithm>
#include <chrono>
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

/// Tolerance for the over-budget comparison: ε/δ sums accumulate float
/// error across many holds; a request within one part in 10⁹ of the line
/// is admitted rather than refused on rounding noise.
constexpr double kBudgetSlack = 1e-9;

/// Persist retry on I/O failure: up to kPersistAttempts writes; retry r
/// (1-based) first sleeps kPersistBackoffMs·2^(r−1) ms, stretched by a
/// uniform factor in [1, 1 + kPersistJitter]. Retries are counted on the
/// serve.persist_retries metric.
constexpr size_t kPersistAttempts = 3;
constexpr double kPersistBackoffMs = 5.0;
constexpr double kPersistJitter = 0.5;

void SleepBeforeRetry(size_t retry, Rng* jitter_rng) {
  const double ms = kPersistBackoffMs *
                    static_cast<double>(uint64_t{1} << (retry - 1)) *
                    (1.0 + jitter_rng->UniformDouble(0.0, kPersistJitter));
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

void RecordBudgetEvent(const std::string& kind, const std::string& tenant,
                       const std::string& label, const PrivacyParams& cost,
                       bool accepted) {
  obs::PrivacyLedger& ledger = obs::PrivacyLedger::Default();
  if (!ledger.enabled()) return;
  obs::LedgerEvent event;
  event.kind = kind;
  event.label = label;
  event.tenant = tenant;
  event.epsilon = cost.epsilon;
  event.delta = cost.delta;
  event.accepted = accepted;
  ledger.Record(std::move(event));
}

struct BudgetMetrics {
  obs::Counter* reserves;
  obs::Counter* commits;
  obs::Counter* refunds;
  obs::Counter* refusals;
  obs::Counter* recovered;
  obs::Counter* persist_retries;
  obs::Counter* persist_errors;
};

BudgetMetrics& Metrics() {
  static BudgetMetrics* m = new BudgetMetrics{
      obs::MetricsRegistry::Default().GetCounter("serve.budget_reserves"),
      obs::MetricsRegistry::Default().GetCounter("serve.budget_commits"),
      obs::MetricsRegistry::Default().GetCounter("serve.budget_refunds"),
      obs::MetricsRegistry::Default().GetCounter("serve.budget_refusals"),
      obs::MetricsRegistry::Default().GetCounter("serve.budget_recovered"),
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
    tmp_path_ = path_ + ".tmp";
  }
}

Result<std::unique_ptr<TenantBudgetManager>> TenantBudgetManager::Open(
    const TenantBudgetOptions& options) {
  BOLTON_RETURN_IF_ERROR(options.default_budget.Validate().WithContext(
      "tenant default budget"));
  std::unique_ptr<TenantBudgetManager> manager(
      new TenantBudgetManager(options));
  if (manager->path_.empty()) return manager;

  // A file from another format version is refused here, before anything
  // is persisted, so it stays on disk untouched for the operator.
  auto body = ReadChecksummedFile(manager->path_, kMagic);
  if (body.status().code() == StatusCode::kNotFound) {
    return manager;  // first boot: empty state
  }
  BOLTON_RETURN_IF_ERROR(body.status().WithContext("budget state"));

  std::lock_guard<std::mutex> lock(manager->mu_);
  BOLTON_RETURN_IF_ERROR(
      manager->RestoreLocked(body.value())
          .WithContext(StrFormat("budget state %s", manager->path_.c_str())));

  // Crash recovery: every hold still pending on disk may have released
  // noise before the commit persisted — promote it to spend. Charging an
  // unreleased run over-counts ε (safe); forgetting a released one would
  // under-count (a privacy violation), so pending always promotes.
  for (const auto& entry : manager->holds_) {
    const Hold& hold = entry.second;
    auto account = manager->accounts_.find(hold.tenant);
    if (account == manager->accounts_.end()) continue;  // unreachable
    Status charged = account->second.accountant.Charge(
        hold.cost, hold.label + " (recovered)");
    if (!charged.ok()) {
      // A reserve was only ever admitted within budget, so this means the
      // state file is inconsistent; surface it rather than dropping spend.
      return charged.WithContext(
          StrFormat("promoting recovered hold for tenant '%s'",
                    hold.tenant.c_str()));
    }
    account->second.reserved.epsilon -= hold.cost.epsilon;
    account->second.reserved.delta -= hold.cost.delta;
    account->second.recovered += 1;
    manager->recovered_holds_ += 1;
    Metrics().recovered->Increment();
    RecordBudgetEvent("budget_recover", hold.tenant, hold.label, hold.cost,
                      true);
    BOLTON_LOG(kWarning) << "budget recovery: promoted pending hold ("
                         << hold.tenant << ", eps=" << hold.cost.epsilon
                         << ") to committed spend";
  }
  manager->holds_.clear();
  for (auto& entry : manager->accounts_) {
    entry.second.reserved = PrivacyParams{0.0, 0.0};
  }
  BOLTON_RETURN_IF_ERROR(manager->PersistLocked());
  return manager;
}

TenantBudgetManager::AccountState& TenantBudgetManager::GetOrCreateLocked(
    const std::string& tenant) {
  auto it = accounts_.find(tenant);
  if (it == accounts_.end()) {
    it = accounts_.emplace(tenant, AccountState(options_.default_budget)).first;
  }
  return it->second;
}

Result<uint64_t> TenantBudgetManager::Reserve(const std::string& tenant,
                                              const PrivacyParams& cost,
                                              const std::string& label) {
  if (tenant.empty()) {
    return Status::InvalidArgument("tenant id must be non-empty");
  }
  BOLTON_RETURN_IF_ERROR(cost.Validate().WithContext(
      StrFormat("budget reserve for tenant '%s'", tenant.c_str())));

  std::lock_guard<std::mutex> lock(mu_);
  AccountState& account = GetOrCreateLocked(tenant);
  const PrivacyParams remaining = account.accountant.Remaining();
  const double epsilon_free = remaining.epsilon - account.reserved.epsilon;
  const double delta_free = remaining.delta - account.reserved.delta;
  if (cost.epsilon > epsilon_free + kBudgetSlack ||
      cost.delta > delta_free + kBudgetSlack) {
    account.refusals += 1;
    Metrics().refusals->Increment();
    RecordBudgetEvent("budget_refusal", tenant, label, cost, false);
    return Status::FailedPrecondition(StrFormat(
        "budget_exhausted: tenant '%s' asked for (ε=%g, δ=%g) with only "
        "(ε=%g, δ=%g) uncommitted",
        tenant.c_str(), cost.epsilon, cost.delta, std::max(0.0, epsilon_free),
        std::max(0.0, delta_free)));
  }

  // Fault gate before any mutation: an injected reserve error refuses the
  // request cleanly (nothing held, nothing persisted).
  BOLTON_FAILPOINT("serve.budget_reserve");

  const uint64_t hold_id = next_hold_id_++;
  holds_[hold_id] = Hold{tenant, cost, label};
  account.reserved.epsilon += cost.epsilon;
  account.reserved.delta += cost.delta;

  // Write-ahead: the hold must be durable before any training work (and
  // certainly before any noise) happens under it.
  Status persisted = PersistLocked();
  if (!persisted.ok()) {
    holds_.erase(hold_id);
    account.reserved.epsilon -= cost.epsilon;
    account.reserved.delta -= cost.delta;
    return persisted.WithContext("budget reserve write-ahead");
  }
  Metrics().reserves->Increment();
  RecordBudgetEvent("budget_reserve", tenant, label, cost, true);
  return hold_id;
}

Status TenantBudgetManager::Commit(uint64_t hold_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = holds_.find(hold_id);
  if (it == holds_.end()) {
    return Status::NotFound(
        StrFormat("unknown budget hold %llu",
                  static_cast<unsigned long long>(hold_id)));
  }
  const Hold hold = it->second;
  AccountState& account = GetOrCreateLocked(hold.tenant);

  // The in-memory transition happens unconditionally: by commit time the
  // noisy model has been (or is about to be) released, so the spend is a
  // fact. Only the persist below can fail, and that failure is tolerable —
  // the disk still shows the hold as pending and recovery promotes it.
  Status charged = account.accountant.Charge(hold.cost, hold.label);
  if (!charged.ok()) {
    // Reserve guaranteed capacity; this is bookkeeping corruption.
    return charged.WithContext("budget commit");
  }
  account.reserved.epsilon -= hold.cost.epsilon;
  account.reserved.delta -= hold.cost.delta;
  account.commits += 1;
  holds_.erase(it);
  Metrics().commits->Increment();
  RecordBudgetEvent("budget_commit", hold.tenant, hold.label, hold.cost,
                    true);

  // Fault gate on the commit persist path (chaos tests arm error/panic
  // here: error = persist failure tolerated; panic = crash between spend
  // and persist, resolved by recovery promotion).
  Status inject = FailpointRegistry::Default().Evaluate("serve.budget_commit");
  Status persisted = inject.ok() ? PersistLocked() : inject;
  if (!persisted.ok()) {
    Metrics().persist_errors->Increment();
    BOLTON_LOG(kWarning)
        << "budget commit persisted lazily (state file still shows the "
        << "hold; recovery would promote it): " << persisted.ToString();
  }
  return Status::OK();
}

Status TenantBudgetManager::Refund(uint64_t hold_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = holds_.find(hold_id);
  if (it == holds_.end()) {
    return Status::NotFound(
        StrFormat("unknown budget hold %llu",
                  static_cast<unsigned long long>(hold_id)));
  }
  const Hold hold = it->second;
  AccountState& account = GetOrCreateLocked(hold.tenant);
  account.reserved.epsilon -= hold.cost.epsilon;
  account.reserved.delta -= hold.cost.delta;
  account.refunds += 1;
  holds_.erase(it);
  Metrics().refunds->Increment();
  RecordBudgetEvent("budget_refund", hold.tenant, hold.label, hold.cost,
                    true);
  // Best-effort persist: a failure leaves the hold pending on disk, and a
  // later crash would conservatively promote it — an over-charge, never an
  // under-charge.
  Status persisted = PersistLocked();
  if (!persisted.ok()) {
    Metrics().persist_errors->Increment();
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
  view.spent = account.accountant.Spent();
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
                   static_cast<unsigned long long>(next_hold_id_));
  out += StrFormat("accounts %zu\n", accounts_.size());
  for (const auto& entry : accounts_) {
    const AccountState& a = entry.second;
    const PrivacyParams spent = a.accountant.Spent();
    out += StrFormat(
        "account %s %.17g %.17g %.17g %.17g %llu %llu %llu %llu\n",
        EncodeToken(entry.first).c_str(), a.budget.epsilon, a.budget.delta,
        spent.epsilon, spent.delta,
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
    BOLTON_ASSIGN_OR_RETURN(next_hold_id_, ParseU64(tokens[1]));
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
    PrivacyParams budget, spent;
    BOLTON_ASSIGN_OR_RETURN(budget.epsilon, ParseDouble(tokens[2]));
    BOLTON_ASSIGN_OR_RETURN(budget.delta, ParseDouble(tokens[3]));
    BOLTON_ASSIGN_OR_RETURN(spent.epsilon, ParseDouble(tokens[4]));
    BOLTON_ASSIGN_OR_RETURN(spent.delta, ParseDouble(tokens[5]));
    auto account = accounts_.emplace(tenant, AccountState(budget)).first;
    if (spent.epsilon > 0.0 || spent.delta > 0.0) {
      BOLTON_RETURN_IF_ERROR(
          account->second.accountant.Charge(spent, "restored")
              .WithContext(StrFormat("restoring spend for tenant '%s'",
                                     tenant.c_str())));
    }
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
    uint64_t id = 0;
    BOLTON_ASSIGN_OR_RETURN(id, ParseU64(tokens[1]));
    Hold hold;
    hold.tenant = DecodeToken(tokens[2]);
    BOLTON_ASSIGN_OR_RETURN(hold.cost.epsilon, ParseDouble(tokens[3]));
    BOLTON_ASSIGN_OR_RETURN(hold.cost.delta, ParseDouble(tokens[4]));
    hold.label = DecodeToken(tokens[5]);
    if (accounts_.find(hold.tenant) == accounts_.end()) {
      return Status::InvalidArgument(
          StrFormat("hold for unknown tenant '%s'", hold.tenant.c_str()));
    }
    accounts_.at(hold.tenant).reserved.epsilon += hold.cost.epsilon;
    accounts_.at(hold.tenant).reserved.delta += hold.cost.delta;
    holds_[id] = std::move(hold);
  }
  return Status::OK();
}

Status TenantBudgetManager::PersistLocked() {
  if (path_.empty()) return Status::OK();
  const std::string content = RenderLocked();
  Status last;
  for (size_t attempt = 1; attempt <= kPersistAttempts; ++attempt) {
    if (attempt > 1) {
      Metrics().persist_retries->Increment();
      SleepBeforeRetry(attempt - 1, &jitter_rng_);
    }
    Status inject = FailpointRegistry::Default().Evaluate("serve.persist");
    last = inject.ok()
               ? AtomicWriteFile(tmp_path_, path_, options_.state_dir,
                                 content)
               : inject;
    if (last.ok()) return last;
  }
  return last.WithContext(StrFormat("budget persist failed after %zu attempts",
                                    kPersistAttempts));
}

}  // namespace serve
}  // namespace bolton
