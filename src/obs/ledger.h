#ifndef BOLTON_OBS_LEDGER_H_
#define BOLTON_OBS_LEDGER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace bolton {
namespace obs {

/// The privacy-spend ledger: a structured, append-only record of every
/// privacy-relevant action the library takes — each DP noise draw (bolt-on
/// output perturbation, SCS13/BST14 per-iteration noise), every accountant
/// charge, and the per-run noise calibrations — with the parameters that
/// were actually used. Dump to JSONL for offline audit; see DESIGN.md
/// "Observability" for the event schema.
///
/// Off by default; a disabled call site pays one relaxed load + branch.

/// One auditable event.
struct LedgerEvent {
  /// Assigned by the ledger: 1-based sequence number and monotonic time.
  uint64_t seq = 0;
  uint64_t time_ns = 0;

  /// "noise_draw" | "accountant_charge" (a library PrivacyAccountant
  /// charge) | "calibration" — the privacy events proper — plus the
  /// robustness audit trail: "fault" (an injected or real fault observed
  /// at a failpoint site), "checkpoint" (pass-boundary state persisted),
  /// "resume" (a run continued from a checkpoint) — plus the serve budget
  /// lifecycle: "budget_reserve" (write-ahead hold before a private
  /// release), "budget_commit" (hold converted to spend), "budget_refund"
  /// (hold released, provably no noise drawn), "budget_refusal" (request
  /// refused as over budget; accepted=false), "budget_recover" (a pending
  /// hold found at restart, conservatively promoted to spend).
  std::string kind;
  /// "laplace" | "gaussian" | "gaussian_per_step" | "" (charges).
  std::string mechanism;
  /// Call-site tag ("dp_noise.spherical_laplace", "bst14.per_step", …) or
  /// the accountant charge label.
  std::string label;
  /// Owning tenant for multi-tenant serve traffic ("" for single-run CLI
  /// events). Budget events (budget_reserve/commit/refund/refusal/recover)
  /// always carry it, so a dump can be audited per account.
  std::string tenant;

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

  /// False for an over-budget accountant charge and for a budget_refusal.
  bool accepted = true;
};

/// Thread-safe append-only event log.
class PrivacyLedger {
 public:
  static PrivacyLedger& Default();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Appends `event`, assigning seq and time_ns. No-op while disabled.
  void Record(LedgerEvent event);

  std::vector<LedgerEvent> Snapshot() const;
  size_t size() const;
  void Clear();

  /// Replaces the log with `events` (a prior Snapshot), continuing seq
  /// numbering after the largest restored seq. Used by checkpoint resume
  /// (core/checkpoint.h) so a recovered run's audit trail is continuous —
  /// calibration events recorded before the crash survive into the dump of
  /// the resumed process.
  void Restore(std::vector<LedgerEvent> events);

  /// One JSON object per event, in record order.
  std::string ToJsonl() const;

  PrivacyLedger() = default;
  PrivacyLedger(const PrivacyLedger&) = delete;
  PrivacyLedger& operator=(const PrivacyLedger&) = delete;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<LedgerEvent> events_;
  uint64_t next_seq_ = 1;
};

}  // namespace obs
}  // namespace bolton

#endif  // BOLTON_OBS_LEDGER_H_
