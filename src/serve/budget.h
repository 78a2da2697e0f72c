#ifndef BOLTON_SERVE_BUDGET_H_
#define BOLTON_SERVE_BUDGET_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/accountant.h"
#include "core/privacy.h"
#include "random/rng.h"
#include "util/result.h"

namespace bolton {
namespace serve {

/// Shape of the per-tenant budget store.
struct TenantBudgetOptions {
  /// Budget granted to a tenant on first contact. Existing accounts loaded
  /// from the state file keep their recorded budget even if this changes.
  PrivacyParams default_budget{1.0, 1e-6};
  /// Directory for the persisted budget state ("" = in-memory only; spend
  /// then dies with the process — tests and benches only). The state file
  /// is written with the checkpoint-style atomic tmp+fsync+rename, so a
  /// crashed daemon never forgets spend. A persist that fails on I/O is
  /// retried a bounded number of times with jittered exponential backoff,
  /// counted on the serve.persist_retries metric.
  std::string state_dir;
};

/// Read-only view of one tenant's account.
struct TenantAccountView {
  std::string tenant;
  PrivacyParams budget;
  PrivacyParams spent{0.0, 0.0};     // committed + recovered charges
  PrivacyParams reserved{0.0, 0.0};  // in-flight holds
  uint64_t commits = 0;
  uint64_t refunds = 0;
  uint64_t refusals = 0;
  uint64_t recovered = 0;
};

/// Per-tenant (ε, δ) accounts with an atomic reserve → commit/refund
/// protocol, the serve daemon's enforcement point for the paper's
/// one-account-per-dataset-owner contract (Theorem 1's calibration assumes
/// the budget it spends was actually available).
///
/// Exactly-once spend across crashes:
///   * Reserve() persists the hold (write-ahead) BEFORE any work runs —
///     a crash after the noise draw can never forget the charge;
///   * Commit() converts the hold to spend on the tenant's
///     PrivacyAccountant (core/accountant). A persist failure at commit is
///     tolerated: the disk still shows the hold, and recovery promotes it;
///   * Refund() releases a hold — callers may only refund when provably no
///     noise was drawn (the black-box algorithms draw noise only at
///     release; a run cancelled or failed before release is refundable);
///   * Open() promotes any pending holds found on disk to spend
///     ("budget_recover" ledger events): the crash may have happened after
///     the noise draw but before the commit persisted, so the conservative
///     resolution is to charge. Over-counting ε is safe; under-counting is
///     a privacy violation.
///
/// Every transition is recorded on the privacy ledger keyed by tenant
/// (budget_reserve / budget_commit / budget_refund / budget_refusal /
/// budget_recover). An over-budget Reserve() refuses with
/// FailedPrecondition and records a refusal (accepted=false).
///
/// Thread-safe; all methods may be called from concurrent handler threads.
class TenantBudgetManager {
 public:
  /// Loads (or initializes) the state under options.state_dir, promoting
  /// pending holds as described above, and persists the recovered state.
  /// A state file of another format version, or one that fails its
  /// checksum, is refused and left on disk untouched.
  static Result<std::unique_ptr<TenantBudgetManager>> Open(
      const TenantBudgetOptions& options);

  /// Places a write-ahead hold of `cost` against `tenant`'s remaining
  /// budget (basic composition over spend + existing holds). Returns the
  /// hold id for Commit/Refund. InvalidArgument for a bad cost, or for a
  /// tenant id outside [A-Za-z0-9._-]+ or equal to "-" (the state file
  /// could not store it intact). FailedPrecondition when the hold would
  /// overspend (the refusal is ledgered and counted); IOError when the
  /// write-ahead persist fails after retries (nothing is held).
  Result<uint64_t> Reserve(const std::string& tenant,
                           const PrivacyParams& cost,
                           const std::string& label);

  /// Converts a hold to committed spend. NotFound for an unknown id.
  Status Commit(uint64_t hold_id);

  /// Releases a hold without spending. Only legal when no noise was drawn
  /// under it. NotFound for an unknown id.
  Status Refund(uint64_t hold_id);

  /// The account view for `tenant`; a never-seen tenant reports the
  /// default budget with zero spend.
  TenantAccountView Account(const std::string& tenant) const;

  /// All known accounts, tenant-sorted.
  std::vector<TenantAccountView> Snapshot() const;

  /// Holds promoted to spend by Open() — the crash-recovery telltale.
  uint64_t recovered_holds() const { return recovered_holds_; }

  TenantBudgetManager(const TenantBudgetManager&) = delete;
  TenantBudgetManager& operator=(const TenantBudgetManager&) = delete;

 private:
  struct AccountState {
    explicit AccountState(const PrivacyParams& budget)
        : budget(budget), accountant(budget) {}
    PrivacyParams budget;
    PrivacyAccountant accountant;  // committed spend + refusal bookkeeping
    /// Sum of this tenant's pending holds. NB: PrivacyParams defaults to
    /// ε=1, so the zero must be explicit.
    PrivacyParams reserved{0.0, 0.0};
    uint64_t commits = 0;
    uint64_t refunds = 0;
    uint64_t refusals = 0;
    uint64_t recovered = 0;
  };

  struct Hold {
    std::string tenant;
    PrivacyParams cost;
    std::string label;
  };

  explicit TenantBudgetManager(const TenantBudgetOptions& options);

  AccountState& GetOrCreateLocked(const std::string& tenant);
  TenantAccountView ViewLocked(const std::string& tenant,
                               const AccountState& account) const;
  /// Serializes and atomically replaces the state file, with bounded
  /// jittered retry. No-op without a state_dir.
  Status PersistLocked();
  std::string RenderLocked() const;
  /// Loads accounts and holds from the verified body of the state file.
  Status RestoreLocked(const std::string& body);

  TenantBudgetOptions options_;
  std::string path_;      // "" when in-memory only
  std::string tmp_path_;

  mutable std::mutex mu_;
  std::map<std::string, AccountState> accounts_;
  std::map<uint64_t, Hold> holds_;
  uint64_t next_hold_id_ = 1;
  uint64_t recovered_holds_ = 0;
  Rng jitter_rng_{0x73657276656a6974ull};  // persist-backoff jitter stream
};

}  // namespace serve
}  // namespace bolton

#endif  // BOLTON_SERVE_BUDGET_H_
