#ifndef BOLTON_UTIL_CANCELLATION_H_
#define BOLTON_UTIL_CANCELLATION_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace bolton {

/// Cooperative cancellation for long-running work (a sharded PSGD run, a
/// queued serve request). The owner arms it — an explicit Cancel() or an
/// absolute steady-clock deadline — and workers poll Cancelled()/Check() at
/// natural yield points (pass boundaries, batch boundaries, retry loops).
///
/// The hot-path cost of an armed-but-untriggered token is one relaxed
/// atomic load, plus a clock read only when a deadline is set; a null
/// token pointer costs a branch. Once the deadline passes the flag latches,
/// so later polls never re-read the clock.
///
/// Tokens may be linked to a `parent` (e.g. every request token under the
/// daemon-wide drain token): a token reports cancelled when it OR any
/// ancestor is. Parents must outlive children; the chain is set at
/// construction and never mutated.
class CancellationToken {
 public:
  CancellationToken() = default;
  explicit CancellationToken(const CancellationToken* parent)
      : parent_(parent) {}

  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  /// Requests cancellation. Idempotent, thread-safe.
  void Cancel() { cancelled_.store(true, std::memory_order_release); }

  /// Arms a deadline `timeout_ms` from now; 0 disarms. Call before handing
  /// the token to workers (not thread-safe against concurrent polls).
  void SetTimeout(uint64_t timeout_ms) {
    const uint64_t now = NowNanos();
    // Saturates: a deadline past the clock's end must not wrap into the past.
    const uint64_t ms =
        std::min<uint64_t>(timeout_ms, (UINT64_MAX - now) / 1000000);
    deadline_ns_ = timeout_ms == 0 ? 0 : now + ms * 1000000;
  }

  /// True once Cancel() was called, the deadline passed, or an ancestor is
  /// cancelled. Latches: a deadline crossed once stays crossed.
  bool Cancelled() const {
    if (cancelled_.load(std::memory_order_acquire)) return true;
    if (deadline_ns_ != 0 && NowNanos() >= deadline_ns_) {
      cancelled_.store(true, std::memory_order_release);
      return true;
    }
    return parent_ != nullptr && parent_->Cancelled();
  }

  /// OK while live; Status::Cancelled naming the abandoned work otherwise.
  Status Check(const char* what) const {
    if (!Cancelled()) return Status::OK();
    return Status::Cancelled(std::string(what) +
                             " cancelled (deadline exceeded or caller gone)");
  }

 private:
  static uint64_t NowNanos() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  mutable std::atomic<bool> cancelled_{false};
  uint64_t deadline_ns_ = 0;  // 0 = no deadline
  const CancellationToken* parent_ = nullptr;
};

}  // namespace bolton

#endif  // BOLTON_UTIL_CANCELLATION_H_
