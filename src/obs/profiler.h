#ifndef BOLTON_OBS_PROFILER_H_
#define BOLTON_OBS_PROFILER_H_

#include <cstddef>
#include <cstdint>
#include <ctime>
#include <mutex>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/sample_ring.h"

namespace bolton {
namespace obs {

/// In-process wall-clock sampling profiler.
///
/// Start() arms one CLOCK_MONOTONIC POSIX timer per registered thread
/// (timer_create with SIGEV_THREAD_ID), each delivering SIGPROF to its
/// thread at the configured frequency. The shared handler captures a raw
/// backtrace(3) into a lock-free StackSampleRing — no locks, no allocation,
/// no symbolization in signal context. Dump() later symbolizes the recorded
/// program counters (backtrace_symbols + demangling; see util/symbolize.h)
/// and aggregates identical stacks for flamegraph/collapsed-stack export.
///
/// Wall-clock, not CPU-time, sampling: a thread blocked in poll() or a
/// mutex is sampled where it blocks, which is what the shards-vs-serial
/// attribution question needs (idle time shows up as idle frames instead of
/// disappearing). Threads participate by registration: the thread calling
/// Start() is registered automatically; worker threads register with a
/// ProfiledThreadScope. Signal-safety rules and sampling-bias caveats are
/// documented in DESIGN.md §10.
///
/// Thread-safe: Start/Stop/Dump/registration may race freely (a mutex
/// serializes control state; the sample path is lock-free).

struct ProfilerOptions {
  /// Sampling frequency per thread. Prefer a prime (the 97 default) so the
  /// sampler does not alias against millisecond-periodic work.
  int hz = 97;
  /// Sample capacity; once full, further samples count as dropped rather
  /// than overwriting (the drop count is reported in every dump).
  size_t max_samples = 1 << 16;
};

/// One aggregated call stack, root (outermost) first, plus how many samples
/// landed in it.
struct ProfileStack {
  std::vector<std::string> frames;
  uint64_t count = 0;
  /// Whether the leaf (innermost) frame resolved to a real symbol.
  bool leaf_resolved = false;
  /// Whether any frame in the stack resolved to a real symbol.
  bool any_resolved = false;
};

/// A symbolized point-in-time view of the sample buffer.
struct ProfileDump {
  int hz = 0;
  uint64_t samples = 0;  // samples aggregated into `stacks`
  uint64_t dropped = 0;  // ring-full drops over the whole run
  uint64_t duration_ns = 0;
  std::vector<ProfileStack> stacks;  // sorted by count, descending
  /// Fraction of samples whose leaf frame / any frame symbolized.
  double leaf_symbolized_fraction = 0.0;
  double any_symbolized_fraction = 0.0;
};

class Profiler {
 public:
  /// The process-wide profiler every surface (the --profile-out flag, the
  /// /profile endpoint) shares; concurrent users are serialized by the
  /// running state (second Start fails until Stop).
  static Profiler& Default();

  /// Arms per-thread sample timers. Fails if already running, if hz is
  /// outside [1, 1000], or if max_samples is 0. Registers the calling
  /// thread. Retains nothing from previous runs: the sample buffer is
  /// reset.
  Status Start(const ProfilerOptions& options = ProfilerOptions());

  /// Disarms all timers and waits for in-flight handlers to drain. The
  /// samples stay available for Dump() until the next Start(). Fails if not
  /// running.
  Status Stop();

  bool running() const;

  /// Committed-sample upper bound; monotone while running. Callers can mark
  /// a position and later Dump(mark) to profile just their window.
  size_t sample_count() const;

  uint64_t dropped() const;

  /// Symbolizes and aggregates samples with index >= from_sample. Safe
  /// while running (in-flight samples are skipped, not torn).
  ProfileDump Dump(size_t from_sample = 0) const;

  /// Thread registration (normally via ProfiledThreadScope). Registering
  /// while running arms a timer immediately; unregistering disarms it.
  void RegisterCurrentThread();
  void UnregisterCurrentThread();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

 private:
  Profiler() = default;

  struct ThreadEntry {
    int64_t tid = 0;
    timer_t timer{};
    bool armed = false;
  };

  /// Arms entry's timer at options_.hz. Caller holds mu_.
  void ArmLocked(ThreadEntry* entry);
  void DisarmLocked(ThreadEntry* entry);

  mutable std::mutex mu_;
  bool running_ = false;
  ProfilerOptions options_;
  uint64_t start_ns_ = 0;
  uint64_t stop_ns_ = 0;
  StackSampleRing ring_;
  std::vector<ThreadEntry> threads_;
};

/// RAII registration of the current thread with Profiler::Default(); worker
/// threads (the sharded executor) hold one for their lifetime so profiles
/// attribute their samples. Free (one mutex acquisition each way) when the
/// profiler never runs.
class ProfiledThreadScope {
 public:
  ProfiledThreadScope() { Profiler::Default().RegisterCurrentThread(); }
  ~ProfiledThreadScope() { Profiler::Default().UnregisterCurrentThread(); }

  ProfiledThreadScope(const ProfiledThreadScope&) = delete;
  ProfiledThreadScope& operator=(const ProfiledThreadScope&) = delete;
};

}  // namespace obs
}  // namespace bolton

#endif  // BOLTON_OBS_PROFILER_H_
