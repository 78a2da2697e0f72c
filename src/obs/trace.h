#ifndef BOLTON_OBS_TRACE_H_
#define BOLTON_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/perf_counters.h"
#include "obs/telemetry.h"
#include "util/status.h"

namespace bolton {
namespace obs {

/// Trace spans: RAII scoped timers with parent/child nesting.
///
/// A ScopedSpan records one timed interval; spans opened while another span
/// is live on the same thread become its children, so a run produces a tree
/// (engine.run → engine.epoch → engine.scan → …). Spans mark coarse work
/// (a run, a pass, a shard), never a single batch: a run's span count does
/// not grow with its update count.
///
/// A span is also the one perf-counter scope (obs/perf_counters.h): while
/// that pillar is on, it reads the thread's counters at open and close,
/// attaches the delta to its record when tracing, and folds it into
/// ProcessPerfTotals() when it is the thread's outermost counting span.
///
/// Off by default; a span with every pillar off costs two relaxed loads
/// and a branch.

/// One finished timed interval.
struct SpanRecord {
  std::string name;
  uint64_t id = 0;         // unique per process, 1-based
  uint64_t parent_id = 0;  // 0 = root
  int depth = 0;
  uint64_t start_ns = 0;  // MonotonicNanos at open
  uint64_t duration_ns = 0;
  uint64_t count = 1;  // intervals in this record; always 1
  uint64_t thread_id = 0;
  /// Human-readable name of the recording thread ("main", "psgd-shard-3";
  /// see SetCurrentThreadName in util/thread_name.h) so JSONL and
  /// Chrome-trace output read without a tid lookup table.
  std::string thread_name;
  /// Perf-counter delta over the span, present when the perf pillar was
  /// on at open (obs/perf_counters.h); has_counters gates the export.
  bool has_counters = false;
  PerfCounterDelta counters;
};

/// Collects finished spans; thread-safe appends, JSONL export.
class TraceRecorder {
 public:
  static TraceRecorder& Default();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  uint64_t NextSpanId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  void Record(SpanRecord record);

  std::vector<SpanRecord> Snapshot() const;
  size_t size() const;
  void Clear();

  /// One JSON object per span, in completion order.
  std::string ToJsonl() const;
  Status WriteJsonl(const std::string& path) const;

  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

namespace internal {
/// Per-thread innermost-open-span bookkeeping for parent/child linking,
/// plus a fixed-capacity mirror of the open-span stack for the crash
/// handler: the names are string literals and the arrays are plain
/// thread-local storage, so the handler can walk its own thread's stack
/// with async-signal-safe loads (spans nested deeper than kMaxStack are
/// timed normally but omitted from the mirror). `counting` is the number
/// of open spans reading perf counters, kept apart from `depth` because
/// counting does not need tracing.
struct ThreadSpanState {
  static constexpr int kMaxStack = 16;
  uint64_t current_id = 0;
  int depth = 0;
  int counting = 0;
  uint64_t stack_ids[kMaxStack] = {0};
  const char* stack_names[kMaxStack] = {nullptr};
};
ThreadSpanState& ThreadState();

/// The calling thread's innermost open span id (0 when none); installed
/// into the logger as its span-id provider so every LogEvent carries it.
uint64_t CurrentSpanIdForLog();
}  // namespace internal

/// Times the enclosing scope. `name` must outlive the span (string
/// literals).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// 0 when tracing is disabled.
  uint64_t id() const { return id_; }

 private:
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t start_ = 0;
  int depth_ = 0;
  bool traced_ = false;
  bool counted_ = false;
  PerfReading counters_start_;
};

}  // namespace obs
}  // namespace bolton

#endif  // BOLTON_OBS_TRACE_H_
