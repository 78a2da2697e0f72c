#ifndef BOLTON_UTIL_LOGGING_H_
#define BOLTON_UTIL_LOGGING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>

#include "util/status.h"

namespace bolton {

/// Severity levels for the lightweight logger.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Process-wide minimum level; messages below it are dropped (they reach no
/// sink, not even the flight-recorder ring). Defaults to kInfo. Backed by a
/// relaxed atomic, so it is safe to flip from any thread while others are
/// logging.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

/// When enabled, every stderr log line carries a monotonic timestamp
/// (seconds since the first log call) and the thread's name — or a small
/// stable per-thread id for threads that were never named, e.g.
/// "[I 0.001234s psgd-shard-3 psgd.cc:42] ..." / "[I 0.001234s t1 ...]".
/// Off by default; relaxed atomic. Structured sinks (JSONL, ring) always
/// carry the timestamp regardless of this switch.
void SetLogTimestamps(bool enabled);
bool GetLogTimestamps();

/// One-letter tag for a level: "D", "I", "W", "E".
const char* LogLevelTag(LogLevel level);

/// Parses "D"/"I"/"W"/"E" (case-insensitive) or "debug"/"info"/"warning"/
/// "error" into a level; false on anything else.
bool ParseLogLevel(const std::string& text, LogLevel* out);

/// One emitted log statement as structured data. The pointer fields are
/// only guaranteed valid for the duration of a sink's Write() call —
/// sinks that retain events must copy.
struct LogEvent {
  LogLevel level = LogLevel::kInfo;
  /// Nanoseconds since the process's first log call (monotonic clock).
  uint64_t mono_ns = 0;
  /// Small stable per-thread id (util/thread_name.h).
  uint64_t thread_id = 0;
  /// The name set via SetCurrentThreadName, "" when the thread was never
  /// named (render as "t<thread_id>").
  const char* thread_name = "";
  /// Basename of the emitting file (static storage, from __FILE__).
  const char* file = "";
  int line = 0;
  /// Innermost open trace span on the emitting thread (obs/trace.h), 0
  /// when none is open or tracing is disabled.
  uint64_t span_id = 0;
  const char* message = "";
  size_t message_len = 0;
};

/// A log destination. The built-in stderr text sink is always present (its
/// output format is the historical one, unchanged); additional sinks — the
/// JSONL file sink below, the obs flight-recorder ring — register here.
/// Write() may be called concurrently from any thread; dispatch serializes
/// calls under an internal mutex, so a sink needs no locking of its own
/// unless it has other entry points.
class LogSink {
 public:
  virtual ~LogSink() = default;
  virtual void Write(const LogEvent& event) = 0;
};

/// Registers / removes a sink. The sink is not owned and must stay alive
/// until removed. Adding the same sink twice is a no-op.
void AddLogSink(LogSink* sink);
void RemoveLogSink(LogSink* sink);

/// Opens `path` (truncating) and registers a process-lifetime sink that
/// writes every emitted event as one JSON object per line:
///   {"mono_ns":N,"level":"I","tid":1,"thread":"main","file":"x.cc",
///    "line":7,"span":0,"msg":"..."}
/// Wired to `boltondp train --log-jsonl=FILE` and the BOLTON_LOG_JSONL
/// environment variable (benches). Calling it again switches to the new
/// file.
Status OpenLogJsonlFile(const std::string& path);

/// One event as the JSON object above, without a trailing newline. The
/// single renderer of that schema: obs /logz and postmortem bundles call
/// it too, so their lines match the JSONL file byte for byte.
std::string RenderLogEventJson(const LogEvent& event);

namespace internal {

/// Stream-style log line; dispatches to the sinks on destruction.
/// Use via the BOLTON_LOG macro, not directly.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& v) {
    if (enabled_) stream_ << v;
    return *this;
  }

 private:
  bool enabled_;
  LogLevel level_;
  const char* file_;  // already reduced to the basename
  int line_;
  std::ostringstream stream_;
};

/// Logs "check failed: <expr>" at the given location and aborts. The
/// failure is dispatched to the structured sinks (so it survives in the
/// flight-recorder ring) and handed to the fatal hook (the postmortem
/// writer) before abort().
[[noreturn]] void CheckFailed(const char* expr, const char* file, int line);

/// Builds the LogEvent envelope (timestamp, thread identity, span id) for
/// `message` and fans it out to the sinks. The level filter has already
/// been applied by the caller.
void Dispatch(LogLevel level, const char* file_basename, int line,
              const char* message, size_t message_len);

/// Nanoseconds since the first log call; the timestamp base every sink
/// shares.
uint64_t LogMonotonicNanos();

/// The trace layer (obs/trace.cc) installs a callback returning the
/// calling thread's innermost open span id, giving log<->span correlation
/// without a util->obs dependency. Relaxed atomic; nullptr = no provider.
using SpanIdProvider = uint64_t (*)();
void SetLogSpanIdProvider(SpanIdProvider provider);

/// Invoked by CheckFailed with the rendered "check failed: ... at f:l"
/// message, before abort(). The postmortem module installs a hook that
/// writes the crash report here, in normal (non-signal) context.
using FatalHook = void (*)(const char* message);
void SetFatalHook(FatalHook hook);

/// Helpers behind BOLTON_LOG_EVERY_N / BOLTON_LOG_FIRST_N. `counter` is
/// the call site's private hit counter.
inline bool LogEveryN(std::atomic<uint64_t>& counter, uint64_t n) {
  const uint64_t count = counter.fetch_add(1, std::memory_order_relaxed);
  return n <= 1 || count % n == 0;
}
inline bool LogFirstN(std::atomic<uint64_t>& counter, uint64_t n) {
  // Plain load first: after the first N hits this is one relaxed load.
  if (counter.load(std::memory_order_relaxed) >= n) return false;
  return counter.fetch_add(1, std::memory_order_relaxed) < n;
}

}  // namespace internal

/// Usage: BOLTON_LOG(kInfo) << "trained in " << secs << "s";
#define BOLTON_LOG(severity)                                          \
  ::bolton::internal::LogMessage(::bolton::LogLevel::severity,        \
                                 __FILE__, __LINE__)

/// Rate-limited variants for hot paths (the obs HTTP request loop, shard
/// retries): EVERY_N emits hits 1, N+1, 2N+1, ...; FIRST_N emits only the
/// first N hits. Hits are counted per call site, across all threads.
/// Usage: BOLTON_LOG_EVERY_N(kInfo, 100) << "served " << n << " requests";
#define BOLTON_LOG_EVERY_N(severity, n)                                   \
  for (bool _bolton_log_hit = ::bolton::internal::LogEveryN(              \
           []() -> ::std::atomic<uint64_t>& {                             \
             static ::std::atomic<uint64_t> _bolton_log_count{0};         \
             return _bolton_log_count;                                    \
           }(),                                                           \
           (n));                                                          \
       _bolton_log_hit; _bolton_log_hit = false)                          \
  BOLTON_LOG(severity)

#define BOLTON_LOG_FIRST_N(severity, n)                                   \
  for (bool _bolton_log_hit = ::bolton::internal::LogFirstN(              \
           []() -> ::std::atomic<uint64_t>& {                             \
             static ::std::atomic<uint64_t> _bolton_log_count{0};         \
             return _bolton_log_count;                                    \
           }(),                                                           \
           (n));                                                          \
       _bolton_log_hit; _bolton_log_hit = false)                          \
  BOLTON_LOG(severity)

/// Debug-and-release invariant check; aborts with a message on failure.
/// Used for programmer errors (violated preconditions inside the library),
/// never for data-dependent failures, which return Status.
#define BOLTON_CHECK(cond)                                                 \
  do {                                                                     \
    if (!(cond)) ::bolton::internal::CheckFailed(#cond, __FILE__, __LINE__); \
  } while (false)

}  // namespace bolton

#endif  // BOLTON_UTIL_LOGGING_H_
