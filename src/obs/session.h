#ifndef BOLTON_OBS_SESSION_H_
#define BOLTON_OBS_SESSION_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "obs/http_server.h"
#include "util/status.h"

namespace bolton {

class FlagParser;

namespace obs {

/// What a command's telemetry flags ask for. `boltondp train` and every
/// bench register the eight shared flags with AddFlags; `serve` fills
/// `ledger_out` and `log_jsonl` from its own two flags.
struct TelemetryFlags {
  bool metrics = false;
  std::string trace_out;
  /// The span timeline as Chrome trace-event JSON; only `train` registers
  /// --trace-chrome-out.
  std::string trace_chrome_out;
  std::string ledger_out;
  int64_t serve_obs = -1;
  std::string profile_out;
  int64_t profile_hz = 97;
  std::string log_jsonl;
  std::string postmortem_dir;

  /// Registers --metrics, --trace-out, --ledger-out, --serve-obs,
  /// --profile-out, --profile-hz, --log-jsonl and --postmortem-dir.
  void AddFlags(FlagParser* parser);
};

/// One command's telemetry, from before its first step of work to its
/// exports: the single setup and export path of `train`, `serve` and the
/// benches.
class TelemetrySession {
 public:
  /// `program` prefixes the session's warnings on stderr. `report` takes its
  /// progress lines and the metrics dump: stdout for `train` and `serve`,
  /// stderr for a bench, whose stdout is its figure rows.
  TelemetrySession(const char* program, std::FILE* report);

  /// Runs Finish() when Start() succeeded and Finish() has not run, so a
  /// command that fails after its session started still writes the
  /// evidence of its failure. A failed export is printed as
  /// "<program>: <status>" on stderr.
  ~TelemetrySession();

  /// Arms, in order: the log mirror and the crash handler; the pillars the
  /// flags ask for and the failpoint bridge; the ledger file; the obs
  /// server; the profiler, which samples until Finish. Perf counters ride
  /// along with --metrics and with a trace; --serve-obs turns every pillar
  /// on, since a live endpoint with nothing recording would scrape zeros.
  /// Stops at the first failure.
  Status Start(const TelemetryFlags& flags);

  /// Stops the profiler and writes every export the flags asked for: the
  /// collapsed profile, the metrics dump, the JSONL and Chrome traces (with
  /// a note when the span ring overwrote spans), then closes the ledger
  /// file. Attempts all of them: returns the first failure and prints any
  /// later one as "<program>: <status>" on stderr. The obs server stays up
  /// until the session is destroyed.
  Status Finish();

  /// The server --serve-obs started, or nullptr.
  ObsServer* server() const { return server_.get(); }

  TelemetrySession(const TelemetrySession&) = delete;
  TelemetrySession& operator=(const TelemetrySession&) = delete;

 private:
  const char* program_;
  std::FILE* report_;
  TelemetryFlags flags_;
  bool started_ = false;
  bool finished_ = false;
  std::unique_ptr<ObsServer> server_;
};

}  // namespace obs
}  // namespace bolton

#endif  // BOLTON_OBS_SESSION_H_
