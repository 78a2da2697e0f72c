#ifndef BOLTON_OBS_PERF_COUNTERS_H_
#define BOLTON_OBS_PERF_COUNTERS_H_

#include <cstdint>
#include <string>

namespace bolton {
namespace obs {

/// Hardware performance-counter telemetry over perf_event_open(2).
///
/// Each thread lazily opens one per-thread counter group (leader = CPU
/// cycles; siblings = instructions, cache-references, cache-misses,
/// branch-misses; read atomically via PERF_FORMAT_GROUP) plus a separate
/// PERF_COUNT_SW_TASK_CLOCK event. Every ScopedSpan (obs/trace.h) reads
/// the calling thread's counters at open and close while this pillar is
/// on, so the span tree answers not just "where did the wall time go" but
/// "was that phase memory-bound (cache misses), dispatch-bound (low IPC),
/// or compute-bound".
///
/// Degradation is graceful and observable (DESIGN.md §11 has the matrix):
///  * kHardwareGroup — the full group opened; every field is real.
///  * kTaskClockOnly — the PMU is unavailable (perf_event_paranoid,
///    containers without a virtualized PMU) but the software task-clock
///    event works; deltas carry task_clock_ns only, available = false.
///  * kClockFallback — perf_event_open itself is unusable (seccomp,
///    paranoid >= 3); task_clock_ns falls back to
///    CLOCK_THREAD_CPUTIME_ID, which every Linux provides.
/// The one-time capability probe result is exported as the
/// `perf.available` gauge (1 only at kHardwareGroup) so a counter-less
/// environment is visible in every metrics dump rather than silently
/// reporting zeros.
///
/// Like the other telemetry pillars this one is off by default; when
/// disabled a span reads no counters.

enum class PerfTier {
  kHardwareGroup,  // full hardware group + task-clock
  kTaskClockOnly,  // software task-clock perf event only
  kClockFallback,  // no perf_event_open; CLOCK_THREAD_CPUTIME_ID
};

struct PerfCapability {
  PerfTier tier = PerfTier::kClockFallback;
  /// Human-readable probe outcome: the event list on success, the failing
  /// errno and the perf_event_paranoid value on degradation.
  std::string detail;
};

/// One-time process-wide capability probe (first call probes, later calls
/// return the cached result). Honors BOLTON_PERF=0, which forces
/// kClockFallback without touching the syscall.
const PerfCapability& PerfCaps();

/// Kill switch for the counter pillar. Off by default.
bool PerfCountersEnabled();
void SetPerfCountersEnabled(bool enabled);

/// True when enabled, the probe found a full hardware group, and the
/// test-only force-unavailable override is not set — i.e. hardware fields
/// in new deltas will be real. Drives the perf.available gauge.
bool PerfHardwareAvailable();

/// Counter deltas over one measured interval. task_clock_ns is valid on
/// every tier; the five hardware fields are valid only when `available`.
struct PerfCounterDelta {
  bool available = false;
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t cache_references = 0;
  uint64_t cache_misses = 0;
  uint64_t branch_misses = 0;
  uint64_t task_clock_ns = 0;

  /// Instructions per cycle; 0 when unavailable or no cycles elapsed.
  double Ipc() const;
  /// cache_misses / cache_references in [0, 1]; 0 when no references.
  double CacheMissRate() const;
  /// branch_misses / instructions; 0 when no instructions.
  double BranchMissRate() const;

  PerfCounterDelta& operator+=(const PerfCounterDelta& other);
  PerfCounterDelta operator-(const PerfCounterDelta& other) const;
};

/// Raw per-thread counter totals; only meaningful as input to
/// DeltaBetween. Reading lazily opens the calling thread's counters at
/// the probed tier (the fds close when the thread exits).
struct PerfReading {
  bool valid = false;     // pillar was enabled when read
  bool hardware = false;  // the five hardware values are real
  uint64_t values[5] = {0, 0, 0, 0, 0};  // cycles .. branch_misses
  uint64_t task_clock_ns = 0;
};

PerfReading ReadCurrentThreadPerf();
PerfCounterDelta DeltaBetween(const PerfReading& start,
                              const PerfReading& end);

/// Process-wide accumulated counters: the sum over every thread's
/// outermost counting spans (plus explicit AddProcessPerfTotals calls).
/// `available` is true once any contribution carried hardware counts.
PerfCounterDelta ProcessPerfTotals();
void AddProcessPerfTotals(const PerfCounterDelta& delta);

/// Refreshes the derived perf gauges in the default metrics registry:
/// perf.available plus perf.cycles_total / perf.instructions_total /
/// perf.ipc / perf.cache_miss_rate / perf.branch_miss_rate /
/// perf.task_clock_seconds_total from the process totals. Polled on read
/// next to UpdateProcessMemoryGauges (HTTP /metrics, --metrics dumps).
void UpdatePerfGauges();

namespace internal {
/// Test hook: while set, every reading takes the kClockFallback path and
/// PerfHardwareAvailable() is false, regardless of the real probe — the
/// CI-portable way to exercise the task-clock-only degradation.
void ForcePerfUnavailableForTest(bool force);
}  // namespace internal

}  // namespace obs
}  // namespace bolton

#endif  // BOLTON_OBS_PERF_COUNTERS_H_
