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
/// One path, because signal handlers can do almost nothing safely: a fatal
/// signal (SIGSEGV/SIGBUS/SIGFPE/SIGILL/SIGABRT) and a failed BOLTON_CHECK
/// both write the same raw record — frame addresses as module+offset, the
/// flight recorder's ASCII ring dump — to a pre-opened fd using write(2).
/// FinalizePostmortem symbolizes and renders it: a failed check runs it in
/// process before abort(); after a signal, `boltondp postmortem finalize`
/// runs it in a fresh process of the same binary (module+offset survives
/// ASLR, raw pointers would not).

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

/// Turns <dir>/postmortem.raw into <dir>/postmortem.json. NotFound when
/// the raw file is missing or empty: the directory holds no crash.
Status FinalizePostmortem(const std::string& dir);

/// Everything a postmortem report carries, as parsed from the raw record.
struct PostmortemReport {
  std::string reason;  // "signal" or "check_failure"
  int signal_number = 0;
  std::string signal_name;
  std::string fault_addr;     // "0x..." (signals only)
  std::string fatal_message;  // failed checks only
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

/// Renders the report as a bolton-postmortem-v1 JSON document.
std::string RenderPostmortemJson(const PostmortemReport& report);

}  // namespace obs
}  // namespace bolton

#endif  // BOLTON_OBS_POSTMORTEM_H_
