#include "obs/session.h"

#include <vector>

#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/postmortem.h"
#include "obs/profiler.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/atomic_file.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/thread_name.h"

namespace bolton {
namespace obs {
namespace {

/// Writes one export and reports "<what> -> <path>" once it is written.
Status WriteExport(std::FILE* report, const std::string& path,
                   const std::string& content, const std::string& what) {
  BOLTON_RETURN_IF_ERROR(AtomicWriteFile(path, content, 0666));
  std::fprintf(report, "%s -> %s\n", what.c_str(), path.c_str());
  return Status::OK();
}

}  // namespace

void TelemetryFlags::AddFlags(FlagParser* parser) {
  parser->AddBool("metrics", &metrics, "print a metrics dump on exit");
  parser->AddString("trace-out", &trace_out,
                    "write trace spans as JSONL to this file on exit");
  parser->AddString("ledger-out", &ledger_out,
                    "append each privacy-ledger event to this JSONL file as "
                    "it happens (opened before any work; never truncated, "
                    "so a resumed run continues its file)");
  parser->AddInt("serve-obs", &serve_obs,
                 "serve live observability HTTP on 127.0.0.1:PORT for the "
                 "run (0 = ephemeral port, -1 = off)");
  parser->AddString("profile-out", &profile_out,
                    "sample the whole run and write a collapsed-stack "
                    "profile (flamegraph.pl input) to this file");
  parser->AddInt("profile-hz", &profile_hz,
                 "per-thread sampling frequency for --profile-out");
  parser->AddString("log-jsonl", &log_jsonl,
                    "also write every log event as structured JSONL to this "
                    "file");
  parser->AddString("postmortem-dir", &postmortem_dir,
                    "arm the crash handler: on a fatal signal or failed "
                    "check, write a bolton-postmortem-v1 report into this "
                    "directory (finish a signal crash with `boltondp "
                    "postmortem finalize --dir DIR`)");
}

TelemetrySession::TelemetrySession(const char* program, std::FILE* report)
    : program_(program), report_(report) {}

TelemetrySession::~TelemetrySession() {
  if (started_ && !finished_) ExitStatus(program_, Finish());
}

Status TelemetrySession::Start(const TelemetryFlags& flags) {
  flags_ = flags;
  SetCurrentThreadName("main");
  if (!flags.log_jsonl.empty()) {
    BOLTON_RETURN_IF_ERROR(OpenLogJsonlFile(flags.log_jsonl));
  }
  if (!flags.postmortem_dir.empty()) {
    BOLTON_RETURN_IF_ERROR(InstallCrashHandler({.dir = flags.postmortem_dir}));
  }
  const bool tracing =
      !flags.trace_out.empty() || !flags.trace_chrome_out.empty();
  if (flags.metrics) SetMetricsEnabled(true);
  if (tracing) SetTracingEnabled(true);
  // Spans gain counter deltas, the metrics dump the perf_* gauges.
  if (flags.metrics || tracing) SetPerfCountersEnabled(true);
  if (flags.serve_obs >= 0) SetAllEnabled(true);
  // Injected faults (BOLTON_FAILPOINTS) reach the metrics and the ledger;
  // free while no failpoint is armed.
  InstallFailpointObsBridge();
  if (!flags.ledger_out.empty()) {
    BOLTON_RETURN_IF_ERROR(
        PrivacyLedger::Default().OpenFile(flags.ledger_out));
  }
  if (flags.serve_obs >= 0) {
    const int port = static_cast<int>(flags.serve_obs);
    BOLTON_ASSIGN_OR_RETURN(server_, ObsServer::Start({.port = port}));
    std::fprintf(report_, "obs server listening on 127.0.0.1:%d\n",
                 server_->port());
    std::fflush(report_);
  }
  if (!flags.profile_out.empty()) {
    BOLTON_RETURN_IF_ERROR(Profiler::Default().Start(
        {.hz = static_cast<int>(flags.profile_hz)}));
  }
  started_ = true;
  return Status::OK();
}

Status TelemetrySession::Finish() {
  finished_ = true;
  // Every step is attempted: the first failure is the result, a later one
  // is printed.
  Status first;
  auto keep = [&](const Status& status) {
    if (first.ok()) {
      first = status;
    } else {
      ExitStatus(program_, status);
    }
  };
  if (!flags_.profile_out.empty()) {
    Profiler& profiler = Profiler::Default();
    keep(profiler.Stop());
    const ProfileDump dump = profiler.Dump();
    const std::string what = StrFormat(
        "wrote profile (%llu samples @ %dHz, %.0f%% symbolized, %llu dropped)",
        static_cast<unsigned long long>(dump.samples), dump.hz,
        dump.leaf_symbolized_fraction * 100.0,
        static_cast<unsigned long long>(dump.dropped));
    keep(WriteExport(report_, flags_.profile_out, RenderCollapsed(dump),
                     what));
  }
  if (flags_.metrics) {
    UpdateProcessMemoryGauges();
    UpdatePerfGauges();
    std::fprintf(report_, "%s",
                 MetricsRegistry::Default().Snapshot().ToText().c_str());
  }
  if (!flags_.trace_out.empty() || !flags_.trace_chrome_out.empty()) {
    const FlightRecorder& recorder = FlightRecorder::Default();
    const std::vector<SpanRecord> spans = recorder.RecentSpans();
    if (!flags_.trace_out.empty()) {
      keep(WriteExport(report_, flags_.trace_out, RenderSpansJsonl(spans),
                       StrFormat("wrote %zu trace spans", spans.size())));
    }
    if (!flags_.trace_chrome_out.empty()) {
      keep(WriteExport(
          report_, flags_.trace_chrome_out, RenderChromeTrace(spans),
          StrFormat("wrote %zu spans as Chrome trace", spans.size())));
    }
    const uint64_t overwritten = recorder.SpanRingStats().overwritten();
    if (overwritten > 0) {
      std::fprintf(stderr,
                   "%s: the span ring keeps the newest %zu spans; %llu older "
                   "ones were overwritten\n",
                   program_, FlightRecorder::kSpanSlots,
                   static_cast<unsigned long long>(overwritten));
    }
  }
  if (!flags_.ledger_out.empty()) {
    // The lines were appended as each event happened; a line that failed to
    // write fails the command here.
    const Status closed = PrivacyLedger::Default().CloseFile();
    if (closed.ok()) {
      std::fprintf(report_, "appended %llu ledger events -> %s\n",
                   static_cast<unsigned long long>(
                       PrivacyLedger::Default().Totals().events),
                   flags_.ledger_out.c_str());
    }
    keep(closed);
  }
  std::fflush(report_);
  return first;
}

}  // namespace obs
}  // namespace bolton
