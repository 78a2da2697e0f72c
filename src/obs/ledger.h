#ifndef BOLTON_OBS_LEDGER_H_
#define BOLTON_OBS_LEDGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace bolton {
namespace obs {

/// The privacy-spend ledger: a structured record of every privacy-relevant
/// action the library takes — each DP noise draw (bolt-on output
/// perturbation, SCS13/BST14 per-iteration noise), every budget
/// transition, and the per-run noise calibrations — with the parameters
/// that were actually used. The complete record is the JSONL file opened with
/// OpenFile (`--ledger-out`), appended to as each event happens; memory
/// keeps only the newest kLedgerSlots events plus running totals. See
/// DESIGN.md "Observability" for the event schema.
///
/// Off by default; a disabled call site pays one relaxed load + branch.

/// One auditable event. Call sites name the fields they set
/// (`Record({.kind = "fault", .label = site})`); every member has a default
/// initializer, so the ones left out compile without a warning.
struct LedgerEvent {
  /// Assigned by the ledger: 1-based sequence number and monotonic time,
  /// both counting this process's events only.
  uint64_t seq = 0;
  uint64_t time_ns = 0;

  /// "noise_draw" | "calibration" — the privacy events proper — plus the
  /// robustness audit trail: "fault" (an injected or real fault observed
  /// at a failpoint site), "checkpoint" (pass-boundary state persisted),
  /// "resume" (a run continued from a checkpoint) — plus the serve budget
  /// lifecycle: "budget_reserve" (write-ahead hold before a private
  /// release), "budget_commit" (hold converted to spend), "budget_refund"
  /// (hold released, provably no noise drawn), "budget_refusal" (request
  /// refused as over budget; accepted=false), "budget_recover" (a pending
  /// hold found at restart, conservatively promoted to spend).
  std::string kind{};
  /// "laplace" | "gaussian" | "gaussian_per_step" | "" (charges).
  std::string mechanism{};
  /// Call-site tag ("dp_noise.spherical_laplace", "bst14.per_step", …) or
  /// the budget hold's label.
  std::string label{};
  /// Owning tenant for multi-tenant serve traffic ("" for single-run CLI
  /// events). Budget events (budget_reserve/commit/refund/refusal/recover)
  /// always carry it, so a dump can be audited per account.
  std::string tenant{};

  double epsilon = 0.0;
  double delta = 0.0;
  double sensitivity = 0.0;
  /// Δ₂/ε for the Laplace mechanism, σ for Gaussian mechanisms.
  double noise_scale = 0.0;
  /// ‖κ‖₂ of the noise vector actually drawn (0 for non-draw events).
  double noise_norm = 0.0;

  uint64_t dim = 0;
  /// 1-based update index for per-iteration draws; 0 otherwise.
  uint64_t step = 0;
  /// Shard count a sharded-run calibration was computed for (Lemma 10
  /// model averaging); 1 for serial calibrations, 0 when not applicable.
  uint64_t shards = 0;
  /// Rng::StateFingerprint() captured immediately before the draw, so a
  /// dump identifies which generator state produced each noise vector.
  uint64_t rng_fingerprint = 0;

  /// False only for a budget_refusal.
  bool accepted = true;
};

/// Spend totals over every event recorded since the last Clear; the
/// /healthz liveness payload reports these so the budget is visible while
/// the process runs.
struct LedgerTotals {
  uint64_t events = 0;
  uint64_t noise_draws = 0;
  uint64_t charges = 0;
  uint64_t rejected = 0;
  uint64_t calibrations = 0;
  /// `charges` counts budget commits and recoveries;
  /// the sums cover the accepted ones only — draws describe noise that was
  /// added, charges describe budget that was spent.
  double epsilon_charged = 0.0;
  double delta_charged = 0.0;

  /// Folds one event in.
  void Add(const LedgerEvent& event);
};

/// Thread-safe event log: a fixed ring in memory, an append-only file on
/// disk.
class PrivacyLedger {
 public:
  /// Events kept in memory for /ledger; older ones live only in the file.
  static constexpr size_t kLedgerSlots = 4096;

  static PrivacyLedger& Default();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Assigns seq and time_ns, keeps `event` in the ring, folds it into the
  /// totals, and appends its JSONL line to the open file with one write(2)
  /// after the ring's mutex is released. No-op while disabled.
  void Record(LedgerEvent event);

  /// The newest `max` events in the ring, oldest first.
  std::vector<LedgerEvent> Snapshot(size_t max = kLedgerSlots) const;
  LedgerTotals Totals() const;
  /// Empties the ring and the totals and restarts seq at 1; the open file,
  /// if any, stays open.
  void Clear();

  /// Enables the ledger and appends every later event to `path` (created
  /// 0666 less the umask, never truncated, so a resumed run continues the
  /// file its interrupted run wrote). Replaces a file opened before.
  Status OpenFile(const std::string& path);
  /// Stops appending. IOError naming the file when any line failed to
  /// write in full since OpenFile; OK when no file was open.
  Status CloseFile();

 private:
  /// Closes its descriptor when the last Record writing to it is done.
  struct File {
    int fd;
    std::string path;
    std::atomic<uint64_t> failed_writes{0};
    ~File();
  };

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  /// Grows to kLedgerSlots, then event `seq` overwrites slot
  /// (seq - 1) % kLedgerSlots.
  std::vector<LedgerEvent> ring_;
  LedgerTotals totals_;
  uint64_t next_seq_ = 1;
  std::shared_ptr<File> file_;
};

}  // namespace obs
}  // namespace bolton

#endif  // BOLTON_OBS_LEDGER_H_
