#ifndef BOLTON_OBS_POSTMORTEM_H_
#define BOLTON_OBS_POSTMORTEM_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight_recorder.h"
#include "util/status.h"

namespace bolton {
namespace obs {

/// Crash postmortems: when the process dies on a fatal signal or a failed
/// BOLTON_CHECK, leave behind a `bolton-postmortem-v1` JSON report with a
/// symbolized backtrace, the flight recorder's recent logs/spans/metrics,
/// the crashing thread's open span stack, peak RSS, and the armed
/// failpoint configuration — enough to start debugging a dead training
/// run without reproducing it.
///
/// Two paths, because signal handlers can do almost nothing safely:
///  * BOLTON_CHECK failures run in normal context: the logger's fatal hook
///    renders the full postmortem.json in-process before abort().
///  * Fatal signals (SIGSEGV/SIGBUS/SIGFPE/SIGILL/SIGABRT) run in the
///    handler, which only emits raw facts — frame addresses as
///    module+offset, the flight recorder's ASCII ring dump — to a
///    pre-opened fd using write(2). `boltondp postmortem finalize`
///    (or FinalizePostmortem) symbolizes and renders afterwards, in a
///    fresh process of the same binary: module+offset survives ASLR,
///    raw pointers would not.

struct PostmortemOptions {
  /// Directory for postmortem.raw / postmortem.json. Created if missing.
  std::string dir;
};

/// Arms the crash handler: captures the module table, pre-opens
/// <dir>/postmortem.raw, installs an alternate signal stack and handlers
/// for the fatal signals, registers the BOLTON_CHECK fatal hook, and
/// registers an atexit hook that removes the (empty) raw file on clean
/// exit. Idempotent per process; a second call just switches the
/// directory.
Status InstallCrashHandler(const PostmortemOptions& options);

/// Turns <dir>/postmortem.raw (written by the signal handler) into
/// <dir>/postmortem.json. OK if the json already exists and there is no
/// raw data (the in-process check-failure path), NotFound when the
/// directory holds no crash at all.
Status FinalizePostmortem(const std::string& dir);

/// Everything a postmortem report carries; filled either by the raw-file
/// parser (signal path) or directly in-process (check-failure path).
struct PostmortemReport {
  std::string reason;  // "signal" or "check_failure"
  int signal_number = 0;
  std::string signal_name;
  std::string fault_addr;     // "0x..." (signal path only)
  std::string fatal_message;  // check-failure path only
  uint64_t mono_ns = 0;
  uint64_t thread_id = 0;
  std::string thread_name;

  struct Frame {
    std::string module;  // "" when the pc matched no loaded module
    uint64_t offset = 0;  // relative to the module's relocation base
    uint64_t pc = 0;      // re-based pc in the symbolizing process
    std::string symbol;
    bool resolved = false;
  };
  std::vector<Frame> frames;

  /// The crashing thread's open spans, outermost first.
  std::vector<std::pair<uint64_t, std::string>> active_spans;

  std::vector<RecordedLogEvent> recent_logs;
  std::vector<SpanRecord> recent_spans;
  std::vector<RecordedMetric> metrics;
  RingStats log_ring;
  RingStats span_ring;
  uint64_t peak_rss_bytes = 0;
  std::string failpoints;  // armed spec, "" when none
};

/// Renders the report as a bolton-postmortem-v1 JSON document — the one
/// rendering path shared by both postmortem paths.
std::string RenderPostmortemJson(const PostmortemReport& report);

namespace internal {
/// The check-failure path: builds and writes a fully symbolized
/// postmortem.json for the installed directory, in normal context.
/// Exposed for tests; installed as the logger's fatal hook.
void WritePostmortemNow(const char* fatal_message);
}  // namespace internal

}  // namespace obs
}  // namespace bolton

#endif  // BOLTON_OBS_POSTMORTEM_H_
