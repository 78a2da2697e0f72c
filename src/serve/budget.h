#ifndef BOLTON_SERVE_BUDGET_H_
#define BOLTON_SERVE_BUDGET_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

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
  /// Existing directory for the persisted budget state ("" = in-memory
  /// only; spend then dies with the process — tests and benches only). It
  /// holds two files that belong together: the snapshot `bolton.budget`,
  /// replaced by atomic tmp+fsync+rename, and the append-only journal
  /// `bolton.journal`, one checksummed record per transition, each made
  /// durable (fdatasync) before the caller is answered. A crashed daemon
  /// never forgets spend. A write that fails on I/O is retried a bounded
  /// number of times with jittered exponential backoff, counted on the
  /// serve.persist_retries metric. Open() refuses a directory it cannot
  /// write.
  std::string state_dir;
};

/// Read-only view of one tenant's account.
struct TenantAccountView {
  std::string tenant;
  PrivacyParams budget;
  PrivacyParams spent{0.0, 0.0};     // committed + recovered holds
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
/// Reserve() is the only budget check (`FitsBudget`, core/privacy.h); every
/// later transition of an admitted hold applies it unchecked, so none can
/// refuse.
///
/// Exactly-once spend across crashes:
///   * Reserve() makes the hold durable (write-ahead) BEFORE any work
///     runs — a crash after the noise draw can never forget the charge;
///   * Commit() adds the hold to the tenant's spend. A persist failure at
///     commit is tolerated: the disk still shows the hold, and recovery
///     promotes it;
///   * Refund() releases a hold — callers may only refund when provably no
///     noise was drawn (the black-box algorithms draw noise only at
///     release; a run cancelled or failed before release is refundable);
///   * Open() promotes any pending holds found on disk to spend
///     ("budget_recover" ledger events): the crash may have happened after
///     the noise draw but before the commit persisted, so the conservative
///     resolution is to charge. Over-counting ε is safe; under-counting is
///     a privacy violation.
///
/// Durable state is a snapshot plus an append-only journal with group
/// commit. Each reserve, commit, refund or refusal appends one record to
/// an in-memory queue while holding the state mutex; the caller then
/// waits, outside that mutex, until one flusher — whichever waiting caller
/// finds no flush running — has written and fdatasync'd the whole queue.
/// No lock is held across a write, an fsync or a retry sleep, so a
/// persist costs one append whatever the tenant count. The snapshot is
/// rewritten only by Open() and when the journal passes
/// kJournalCompactBytes, and after a failed write, which may have left a
/// torn record behind: the journal is never appended to after a failure.
///
/// Every transition bumps its serve.budget_* counter and records one ledger
/// event keyed by tenant (budget_reserve / budget_commit / budget_refund /
/// budget_refusal, with accepted=false / budget_recover) once the state
/// mutex is released, so no tenant waits on another's ledger-file write.
/// Open() records only its budget_recover events.
///
/// Thread-safe; all methods may be called from concurrent handler threads.
class TenantBudgetManager {
 public:
  /// Journal size at which the next flush writes a snapshot and starts a
  /// fresh journal instead of appending.
  static constexpr size_t kJournalCompactBytes = size_t{256} << 10;

  /// Loads (or initializes) the state under options.state_dir: reads the
  /// snapshot, replays the journal records it does not cover, promotes
  /// pending holds as described above, then writes a fresh snapshot and
  /// an empty journal. A torn last journal record (never acknowledged) is
  /// dropped with a warning. A snapshot of another format version, one
  /// that fails its checksum, a negative or non-finite spend or hold, a
  /// bad journal record before the last line, a gap in the record
  /// sequence and a journal without a snapshot are refused, with both
  /// files left on disk untouched. IOError naming the path when the
  /// directory cannot be written.
  static Result<std::unique_ptr<TenantBudgetManager>> Open(
      const TenantBudgetOptions& options);

  /// Closes the journal and writes nothing: records still queued (only
  /// refusals and unwaited commits can be) are lost, as in a crash.
  ~TenantBudgetManager();

  /// Places a write-ahead hold of `cost` against `tenant`'s budget if it
  /// fits on top of the spend and the pending holds (`FitsBudget`).
  /// Returns the hold id for Commit/Refund. InvalidArgument for a bad cost,
  /// or for a tenant id outside [A-Za-z0-9._-]+ or equal to "-" (the state
  /// file could not store it intact). FailedPrecondition when the hold would
  /// overspend (the refusal is ledgered and counted); IOError when the
  /// write-ahead persist fails after retries (nothing is held).
  Result<uint64_t> Reserve(const std::string& tenant,
                           const PrivacyParams& cost,
                           const std::string& label);

  /// Converts a hold to committed spend; Reserve() admitted it, so this
  /// never refuses. NotFound for an unknown id.
  Status Commit(uint64_t hold_id);

  /// Releases a hold without spending. Only legal when no noise was drawn
  /// under it. NotFound for an unknown id.
  Status Refund(uint64_t hold_id);

  /// The account view for `tenant`; a never-seen tenant reports the
  /// default budget with zero spend. Never waits on I/O.
  TenantAccountView Account(const std::string& tenant) const;

  /// All known accounts, tenant-sorted. Never waits on I/O.
  std::vector<TenantAccountView> Snapshot() const;

  /// Holds promoted to spend by Open() — the crash-recovery telltale.
  uint64_t recovered_holds() const { return recovered_holds_; }

  TenantBudgetManager(const TenantBudgetManager&) = delete;
  TenantBudgetManager& operator=(const TenantBudgetManager&) = delete;

 private:
  struct AccountState {
    explicit AccountState(const PrivacyParams& budget) : budget(budget) {}
    PrivacyParams budget;
    /// Running sums, in commit order, of the committed and recovered holds
    /// and of the pending ones. NB: PrivacyParams defaults to ε=1, so the
    /// zeros must be explicit.
    PrivacyParams spent{0.0, 0.0};
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

  /// A caller waiting for its journal record to become durable.
  struct Waiter {
    uint64_t hold = 0;  // a reserve's hold, rolled back if the flush fails
    bool done = false;
    Status status;
  };

  explicit TenantBudgetManager(const TenantBudgetOptions& options);

  AccountState& GetOrCreateLocked(const std::string& tenant,
                                  const PrivacyParams& budget);
  TenantAccountView ViewLocked(const std::string& tenant,
                               const AccountState& account) const;
  /// The transitions of a hold, shared by the live calls and journal
  /// replay, so that replay repeats the live arithmetic bit for bit.
  void HoldLocked(uint64_t id, Hold hold);
  void CommitLocked(std::map<uint64_t, Hold>::iterator hold);
  void ReleaseLocked(std::map<uint64_t, Hold>::iterator hold);
  /// Takes the next sequence number and returns it; with a state_dir,
  /// queues `record` (the fields after the sequence number) for the next
  /// flush, which completes `waiter` (null when nobody waits).
  uint64_t AppendLocked(const std::string& record, Waiter* waiter);
  /// Waits, with `lock` released, until `waiter`'s record is durable or
  /// its flush failed; flushes the queue itself when no flush is running.
  Status AwaitLocked(Waiter* waiter, std::unique_lock<std::mutex>* lock);
  /// The group commit: takes the whole queue, then appends it to the
  /// journal — or, after a failed write or once the journal has passed
  /// kJournalCompactBytes, writes a snapshot covering it and starts a
  /// fresh journal — with `lock` released, retrying with jittered backoff.
  /// If every attempt fails, the holds of waiting reserves are rolled
  /// back. Completes every waiter it took.
  Status FlushLocked(std::unique_lock<std::mutex>* lock);
  /// Writes `snapshot` over the state file, then replaces the journal
  /// with an empty one; outside the mutex.
  Status WriteSnapshot(const std::string& snapshot);
  std::string RenderLocked() const;
  /// Loads accounts and holds from the verified body of the snapshot.
  Status RestoreLocked(const std::string& body);
  /// Applies the journal records the snapshot does not cover, in order.
  Status ReplayLocked(const std::vector<std::string>& records);

  TenantBudgetOptions options_;
  std::string path_;  // snapshot; "" when in-memory only
  std::string journal_path_;

  mutable std::mutex mu_;
  std::map<std::string, AccountState> accounts_;
  std::map<uint64_t, Hold> holds_;
  /// Sequence number of the next record, and so the next hold id; the
  /// snapshot's `next_hold` line.
  uint64_t next_seq_ = 1;
  uint64_t recovered_holds_ = 0;

  // Group commit, under mu_.
  std::string queue_;  // rendered records no flush has taken yet
  std::vector<Waiter*> queue_waiters_;
  bool flushing_ = false;
  bool snapshot_due_ = true;  // the next write must be a snapshot
  size_t journal_bytes_ = 0;
  std::condition_variable flushed_;

  // Owned by the one running flush.
  int journal_fd_ = -1;
  Rng jitter_rng_{0x73657276656a6974ull};  // persist-backoff jitter stream
};

}  // namespace serve
}  // namespace bolton

#endif  // BOLTON_SERVE_BUDGET_H_
