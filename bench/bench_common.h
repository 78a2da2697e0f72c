#ifndef BOLTON_BENCH_BENCH_COMMON_H_
#define BOLTON_BENCH_BENCH_COMMON_H_

// Shared harness for the per-figure/per-table benchmark binaries.
//
// Every accuracy bench reproduces one figure of the paper by printing its
// series as aligned text rows. Dataset sizes default to laptop-friendly
// scales (minutes for the full suite); pass --scale to grow them toward the
// paper's sizes. Seeds are fixed so runs are reproducible.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/privacy.h"
#include "data/dataset.h"
#include "data/projection.h"
#include "data/synthetic.h"
#include "ml/metrics.h"
#include "ml/trainer.h"
#include "obs/build_info.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/http_server.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/postmortem.h"
#include "obs/profiler.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/atomic_file.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/thread_name.h"

namespace bolton {
namespace bench {

/// The four test scenarios of §4.3.
struct TestScenario {
  int id;                 // 1..4
  bool strongly_convex;   // tests 3, 4
  bool approx_dp;         // tests 2, 4 ((ε,δ)-DP)
  const char* label;
};

inline const std::vector<TestScenario>& AllScenarios() {
  static const std::vector<TestScenario> kScenarios = {
      {1, false, false, "Test1: Convex, eps-DP"},
      {2, false, true, "Test2: Convex, (eps,delta)-DP"},
      {3, true, false, "Test3: Strongly Convex, eps-DP"},
      {4, true, true, "Test4: Strongly Convex, (eps,delta)-DP"},
  };
  return kScenarios;
}

/// The ε grids of §4.3: multiclass MNIST uses 10× larger budgets because
/// the budget is split across 10 one-vs-all models.
inline std::vector<double> EpsilonGridFor(const std::string& dataset) {
  if (dataset == "mnist") return {0.1, 0.2, 0.5, 1.0, 2.0, 4.0};
  return {0.01, 0.02, 0.05, 0.1, 0.2, 0.4};
}

/// δ = 1/m² (§4.3).
inline double DeltaFor(size_t m) {
  double md = static_cast<double>(m);
  return 1.0 / (md * md);
}

/// A loaded benchmark dataset: train/test plus bookkeeping.
struct BenchData {
  std::string name;
  Dataset train;
  Dataset test;
  bool multiclass = false;
};

/// Default scaled-down sizes per dataset so the full bench suite stays
/// fast; --scale multiplies all of them.
inline double DefaultScaleFor(const std::string& dataset) {
  if (dataset == "mnist") return 0.25;      // 15000 / 2500, d=784→50
  // (MNIST needs the largest default: its ε splits 10 ways across the
  // one-vs-all models, so small m drowns every private algorithm in noise.)
  if (dataset == "protein") return 0.20;    // 7287 / 7287
  if (dataset == "covertype") return 0.02;  // 9960 / 1660
  if (dataset == "higgs") return 0.002;     // 21000 / 1000
  if (dataset == "kddcup") return 0.02;     // 9880 / 6220
  return 0.05;
}

/// Generates a dataset by name at `scale_multiplier` × its default scale,
/// applying the paper's 784 → 50 random projection for MNIST.
inline Result<BenchData> LoadBenchData(const std::string& name,
                                       double scale_multiplier,
                                       uint64_t seed) {
  BOLTON_ASSIGN_OR_RETURN(
      auto split,
      GenerateByName(name, DefaultScaleFor(name) * scale_multiplier, seed));
  BenchData out;
  out.name = name;
  out.multiclass = name == "mnist";
  if (out.multiclass) {
    BOLTON_ASSIGN_OR_RETURN(
        auto projection,
        GaussianRandomProjection::Create(784, 50, seed + 1));
    BOLTON_ASSIGN_OR_RETURN(out.train, projection.Apply(split.first));
    BOLTON_ASSIGN_OR_RETURN(out.test, projection.Apply(split.second));
  } else {
    out.train = std::move(split.first);
    out.test = std::move(split.second);
  }
  return out;
}

/// Trains per the config (binary or one-vs-all as the data demands) and
/// returns test accuracy.
inline Result<double> TrainAndScore(const BenchData& data,
                                    const TrainerConfig& config, Rng* rng) {
  if (data.multiclass) {
    BOLTON_ASSIGN_OR_RETURN(MulticlassModel model,
                            TrainMulticlass(data.train, config, rng));
    return MulticlassAccuracy(model, data.test);
  }
  BOLTON_ASSIGN_OR_RETURN(Vector model, TrainBinary(data.train, config, rng));
  return BinaryAccuracy(model, data.test);
}

/// The Figure 3 / Figure 6 row config: λ = 1e-4 where applicable, b = 50,
/// k = 10 passes (the Figure 3 caption's fixed values).
inline TrainerConfig ScenarioConfig(const TestScenario& scenario,
                                    Algorithm algorithm, double epsilon,
                                    size_t m) {
  TrainerConfig config;
  config.algorithm = algorithm;
  config.lambda = scenario.strongly_convex ? 1e-4 : 0.0;
  config.passes = 10;
  config.batch_size = 50;
  config.privacy.epsilon = epsilon;
  config.privacy.delta = scenario.approx_dp ? DeltaFor(m) : 0.0;
  return config;
}

/// Which algorithms a scenario compares (BST14 needs δ > 0).
inline std::vector<Algorithm> AlgorithmsFor(const TestScenario& scenario) {
  std::vector<Algorithm> algos = {Algorithm::kNoiseless, Algorithm::kBoltOn,
                                  Algorithm::kScs13};
  if (scenario.approx_dp) algos.push_back(Algorithm::kBst14);
  return algos;
}

/// Prints one aligned accuracy row: epsilon followed by per-algorithm
/// columns (blank for algorithms a scenario does not support).
inline void PrintAccuracyHeader() {
  std::printf("  %-8s %-10s %-10s %-10s %-10s\n", "epsilon", "noiseless",
              "ours", "scs13", "bst14");
}

inline void PrintAccuracyRow(double epsilon,
                             const std::vector<double>& accuracies,
                             bool has_bst14) {
  std::printf("  %-8.3g %-10.4f %-10.4f %-10.4f ", epsilon, accuracies[0],
              accuracies[1], accuracies[2]);
  if (has_bst14) {
    std::printf("%-10.4f\n", accuracies[3]);
  } else {
    std::printf("%-10s\n", "-");
  }
}

/// Times `fn` and emits a trace span named `name` (with a hardware-counter
/// delta attached when the perf pillar is on), so one-off bench timings
/// flow through the same recorder/exporter as the library's own spans
/// instead of a hand-rolled stopwatch.
template <typename Fn>
inline double TimedSeconds(const char* name, Fn&& fn) {
  obs::ScopedSpan span(name);
  const uint64_t start_ns = obs::MonotonicNanos();
  fn();
  return static_cast<double>(obs::MonotonicNanos() - start_ns) * 1e-9;
}

/// Dumps whatever telemetry is enabled: metrics text to stderr (stdout
/// carries the figure rows), trace JSONL to `trace_out` when non-empty.
/// Then closes the ledger file, whose lines were appended as each event
/// happened, and reports a line that failed to write.
inline void DumpTelemetry(bool metrics, const std::string& trace_out) {
  if (metrics) {
    obs::UpdateProcessMemoryGauges();
    obs::UpdatePerfGauges();
    std::fprintf(stderr, "%s",
                 obs::MetricsRegistry::Default().Snapshot().ToText().c_str());
  }
  if (!trace_out.empty()) {
    const obs::FlightRecorder& recorder = obs::FlightRecorder::Default();
    Status status = AtomicWriteFile(
        trace_out, obs::RenderSpansJsonl(recorder.RecentSpans()), 0666);
    if (!status.ok()) {
      std::fprintf(stderr, "trace export failed: %s\n",
                   status.ToString().c_str());
    }
    const uint64_t overwritten = recorder.SpanRingStats().overwritten();
    if (overwritten > 0) {
      std::fprintf(stderr,
                   "the span ring keeps the newest %zu spans; %llu older "
                   "ones were overwritten\n",
                   obs::FlightRecorder::kSpanSlots,
                   static_cast<unsigned long long>(overwritten));
    }
  }
  Status ledger = obs::PrivacyLedger::Default().CloseFile();
  if (!ledger.ok()) {
    std::fprintf(stderr, "ledger export failed: %s\n",
                 ledger.ToString().c_str());
  }
}

/// google-benchmark binaries (and any bench run where editing flags is
/// awkward) pick up the structured-logging surfaces from the environment:
/// BOLTON_LOG_JSONL=FILE mirrors every log event to FILE as JSONL, and
/// BOLTON_POSTMORTEM_DIR=DIR arms the crash handler so a dying bench leaves
/// a bolton-postmortem-v1 report behind. Both are no-ops when unset.
inline void EnableCrashReportingFromEnv() {
  const char* jsonl = std::getenv("BOLTON_LOG_JSONL");
  if (jsonl != nullptr && jsonl[0] != '\0') {
    Status status = OpenLogJsonlFile(jsonl);
    if (!status.ok()) {
      std::fprintf(stderr, "BOLTON_LOG_JSONL ignored: %s\n",
                   status.ToString().c_str());
    }
  }
  const char* dir = std::getenv("BOLTON_POSTMORTEM_DIR");
  if (dir != nullptr && dir[0] != '\0') {
    obs::PostmortemOptions options;
    options.dir = dir;
    Status status = obs::InstallCrashHandler(options);
    if (!status.ok()) {
      std::fprintf(stderr, "BOLTON_POSTMORTEM_DIR ignored: %s\n",
                   status.ToString().c_str());
    }
  }
}

/// google-benchmark binaries have no FlagParser pass; BOLTON_TELEMETRY=1 in
/// the environment turns on every pillar instead. Returns whether it did,
/// so main can open its ledger file and DumpTelemetry at shutdown.
/// BOLTON_OBS_PORT=N additionally serves the live observability endpoint
/// on 127.0.0.1:N (N=0 for an ephemeral port, printed to stderr) for the
/// whole run.
inline bool EnableTelemetryFromEnv() {
  bool enabled = false;
  EnableCrashReportingFromEnv();
  const char* env = std::getenv("BOLTON_TELEMETRY");
  if (env != nullptr && env[0] != '\0' && env[0] != '0') {
    obs::SetAllEnabled(true);
    enabled = true;
  }
  const char* obs_port = std::getenv("BOLTON_OBS_PORT");
  if (obs_port != nullptr && obs_port[0] != '\0') {
    auto port = ParseInt(obs_port);
    if (port.ok() && port.value() >= 0) {
      obs::SetAllEnabled(true);
      enabled = true;
      Status status =
          obs::StartDefaultObsServer(static_cast<int>(port.value()));
      if (status.ok()) {
        std::fprintf(stderr, "obs server listening on 127.0.0.1:%d\n",
                     obs::DefaultObsServer()->port());
      } else {
        std::fprintf(stderr, "obs server failed: %s\n",
                     status.ToString().c_str());
      }
    }
  }
  return enabled;
}

/// BOLTON_PROFILE=HZ starts the in-process sampling profiler for the whole
/// bench run (1 means "on at the default 97 Hz"; any other value in
/// [2, 1000] is the frequency). Returns whether it started, so main can
/// FinishProfilerFromEnv at shutdown. While the profiler runs, every
/// AddBenchResult row carries a compact profile summary of its window —
/// that is how boltondp-bench-v1 baselines pick up per-configuration
/// profiles for tools/benchdiff.py.
inline bool EnableProfilerFromEnv() {
  const char* env = std::getenv("BOLTON_PROFILE");
  if (env == nullptr || env[0] == '\0') return false;
  auto hz = ParseInt(env);
  if (!hz.ok() || hz.value() <= 0) return false;
  obs::ProfilerOptions options;
  if (hz.value() > 1) options.hz = static_cast<int>(hz.value());
  Status status = obs::Profiler::Default().Start(options);
  if (!status.ok()) {
    std::fprintf(stderr, "BOLTON_PROFILE ignored: %s\n",
                 status.ToString().c_str());
    return false;
  }
  std::fprintf(stderr, "profiler sampling at %dHz (BOLTON_PROFILE)\n",
               options.hz);
  return true;
}

/// Stops a running profiler and writes the whole-run collapsed-stack
/// profile to `out_override`, or — when empty — to BOLTON_PROFILE_OUT
/// (default "bench_profile.collapsed" in the working directory).
inline void FinishProfiler(const std::string& out_override = "") {
  obs::Profiler& profiler = obs::Profiler::Default();
  if (!profiler.running()) return;
  profiler.Stop().CheckOK();
  const obs::ProfileDump dump = profiler.Dump();
  std::string out = out_override;
  if (out.empty()) {
    const char* out_env = std::getenv("BOLTON_PROFILE_OUT");
    out = (out_env != nullptr && out_env[0] != '\0')
              ? out_env
              : "bench_profile.collapsed";
  }
  Status status = AtomicWriteFile(out, obs::RenderCollapsed(dump), 0666);
  if (!status.ok()) {
    std::fprintf(stderr, "profile export failed: %s\n",
                 status.ToString().c_str());
    return;
  }
  std::fprintf(stderr,
               "wrote profile (%llu samples @ %dHz, %.0f%% symbolized, "
               "%llu dropped) -> %s\n",
               static_cast<unsigned long long>(dump.samples), dump.hz,
               dump.leaf_symbolized_fraction * 100.0,
               static_cast<unsigned long long>(dump.dropped), out.c_str());
}

inline void FinishProfilerFromEnv() { FinishProfiler(); }

/// -------- Machine-readable bench results (the perf-trajectory pipeline)
///
/// Benches accumulate one row per measured configuration; `--json-out=FILE`
/// writes them as a single JSON document that tools/benchdiff.py can merge
/// into BENCH_*.json baselines and diff for throughput regressions. Rows
/// are recorded unconditionally (a handful of strings per run); only the
/// file write is gated on the flag.
struct BenchResultRow {
  std::string figure;    // "fig2_scalability"
  std::string name;      // unique series key within the figure
  std::string dataset;
  std::string algo;
  double epsilon = 0.0;      // 0 when not applicable
  double wall_seconds = 0.0; // < 0 when not measured
  double rows_per_sec = 0.0; // examples processed per second; 0 = n/a
  double accuracy = -1.0;    // test accuracy; < 0 = n/a
  /// Pre-rendered boltondp-profile-v1 JSON object for the samples taken
  /// since the previous row was recorded; empty when the profiler was not
  /// running. Emitted as the row's optional "profile" field — old
  /// baselines without it still merge/diff cleanly.
  std::string profile_json;
  /// Pre-rendered counter-delta JSON (RenderPerfCountersJson) covering the
  /// process-total counter movement since the previous row; empty when the
  /// perf pillar is off. Emitted as the optional "counters" field —
  /// {"available":false,...} in counter-less environments, so a missing
  /// PMU reads as an explicit fact, not a hole in the schema.
  std::string counters_json;
};

inline std::vector<BenchResultRow>& BenchResults() {
  static std::vector<BenchResultRow>* rows = new std::vector<BenchResultRow>();
  return *rows;
}

/// Frames kept in a per-row profile summary; rows stay compact because a
/// baseline file accumulates hundreds of them.
constexpr size_t kRowProfileTopFrames = 5;

inline void AddBenchResult(BenchResultRow row) {
  obs::Profiler& profiler = obs::Profiler::Default();
  if (profiler.running() && row.profile_json.empty()) {
    // Attribute the samples since the last row to this row: benches record
    // a row right after measuring it, so the window between AddBenchResult
    // calls is exactly the row's work.
    static size_t next_from = 0;
    const size_t mark = profiler.sample_count();
    row.profile_json =
        obs::RenderProfileSummaryJson(profiler.Dump(next_from),
                                      kRowProfileTopFrames);
    next_from = mark;
  }
  if (obs::PerfCountersEnabled() && row.counters_json.empty()) {
    // Same windowing as the profile: the counter movement since the last
    // row is this row's work (benches record right after measuring).
    static obs::PerfCounterDelta last_totals;
    const obs::PerfCounterDelta totals = obs::ProcessPerfTotals();
    row.counters_json = obs::RenderPerfCountersJson(totals - last_totals);
    last_totals = totals;
  }
  BenchResults().push_back(std::move(row));
}

inline std::string BenchResultsToJson() {
  // The build object pins every baseline to the binary that produced it, so
  // a benchdiff regression can be traced to a compiler/SIMD/sha change
  // instead of being mistaken for a code regression.
  JsonWriter w;
  w.BeginObject().Field("schema", "boltondp-bench-v1");
  w.Key("build").Raw(obs::RenderBuildInfoJson());
  w.Key("results").BeginArray();
  for (const BenchResultRow& r : BenchResults()) {
    w.BeginObject().Field("figure", r.figure).Field("name", r.name);
    w.Field("dataset", r.dataset).Field("algo", r.algo);
    w.Field("epsilon", r.epsilon).Field("wall_seconds", r.wall_seconds);
    w.Field("rows_per_sec", r.rows_per_sec).Field("accuracy", r.accuracy);
    // Already-rendered JSON objects, embedded verbatim.
    if (!r.profile_json.empty()) w.Key("profile").Raw(r.profile_json);
    if (!r.counters_json.empty()) w.Key("counters").Raw(r.counters_json);
    w.EndObject();
  }
  return w.EndArray().EndObject().str() + "\n";
}

/// Standard flags shared by the accuracy benches.
struct CommonFlags {
  double scale = 1.0;    // multiplies the per-dataset default scale
  int64_t repeats = 3;   // accuracy is averaged over this many seeds
  int64_t seed = 7;
  std::string datasets = "mnist,protein,covertype";
  bool metrics = false;
  std::string trace_out;
  std::string ledger_out;
  std::string json_out;
  int64_t serve_obs = -1;
  std::string profile_out;
  int64_t profile_hz = 0;
  std::string log_jsonl;
  std::string postmortem_dir;

  Status Parse(int argc, char** argv, const char* program) {
    FlagParser parser;
    parser.AddDouble("scale", &scale,
                     "multiplier on the default dataset scale");
    parser.AddInt("repeats", &repeats, "seeds to average accuracy over");
    parser.AddInt("seed", &seed, "base RNG seed");
    parser.AddString("datasets", &datasets, "comma-separated dataset list");
    parser.AddBool("metrics", &metrics,
                   "print a metrics dump to stderr on exit");
    parser.AddString("trace-out", &trace_out,
                     "write trace spans as JSONL to this file on exit");
    parser.AddString("ledger-out", &ledger_out,
                     "append each privacy-ledger event to this JSONL file "
                     "as it happens (never truncated)");
    parser.AddString("json-out", &json_out,
                     "write machine-readable result rows as JSON on exit "
                     "(tools/benchdiff.py consumes these)");
    parser.AddInt("serve-obs", &serve_obs,
                  "serve live observability HTTP on 127.0.0.1:PORT for the "
                  "run (0 = ephemeral, -1 = off)");
    parser.AddString("profile-out", &profile_out,
                     "sample the whole run and write a collapsed-stack "
                     "profile here; rows in --json-out gain per-row "
                     "profile summaries");
    parser.AddInt("profile-hz", &profile_hz,
                  "per-thread sampling frequency for --profile-out "
                  "(0 = the 97Hz default)");
    parser.AddString("log-jsonl", &log_jsonl,
                     "mirror every log event to this file as JSONL");
    parser.AddString("postmortem-dir", &postmortem_dir,
                     "arm the crash handler; a crash leaves a "
                     "bolton-postmortem-v1 report in this directory");
    BOLTON_RETURN_IF_ERROR(parser.Parse(argc, argv));
    if (parser.help_requested()) {
      parser.PrintHelp(program);
      std::exit(0);
    }
    EnableCrashReportingFromEnv();
    if (!log_jsonl.empty()) BOLTON_RETURN_IF_ERROR(OpenLogJsonlFile(log_jsonl));
    if (!postmortem_dir.empty()) {
      obs::PostmortemOptions postmortem;
      postmortem.dir = postmortem_dir;
      BOLTON_RETURN_IF_ERROR(obs::InstallCrashHandler(postmortem));
    }
    // Benches always run with the counter pillar on: rows in --json-out
    // carry per-row counter deltas (an explicit {"available":false,...}
    // object when the PMU is unreachable), and the per-scope reads are two
    // fd reads per span — noise at bench granularity.
    SetCurrentThreadName("main");
    obs::SetPerfCountersEnabled(true);
    if (metrics) obs::SetMetricsEnabled(true);
    if (!trace_out.empty()) obs::SetTracingEnabled(true);
    if (!ledger_out.empty()) {
      BOLTON_RETURN_IF_ERROR(
          obs::PrivacyLedger::Default().OpenFile(ledger_out));
    }
    if (serve_obs >= 0) {
      obs::SetAllEnabled(true);
      BOLTON_RETURN_IF_ERROR(
          obs::StartDefaultObsServer(static_cast<int>(serve_obs)));
      std::fprintf(stderr, "obs server listening on 127.0.0.1:%d\n",
                   obs::DefaultObsServer()->port());
    }
    if (!profile_out.empty() || profile_hz > 0) {
      obs::ProfilerOptions options;
      if (profile_hz > 0) options.hz = static_cast<int>(profile_hz);
      BOLTON_RETURN_IF_ERROR(obs::Profiler::Default().Start(options));
    } else {
      EnableProfilerFromEnv();
    }
    return Status::OK();
  }

  std::vector<std::string> DatasetList() const {
    return StrSplit(datasets, ',');
  }

  /// Every bench exports on exit without per-binary dump code.
  ~CommonFlags() {
    FinishProfiler(profile_out);  // no-op when the profiler never started
    DumpTelemetry(metrics, trace_out);
    if (!json_out.empty()) {
      Status status = AtomicWriteFile(json_out, BenchResultsToJson(), 0666);
      if (!status.ok()) {
        std::fprintf(stderr, "bench json export failed: %s\n",
                     status.ToString().c_str());
      } else {
        std::fprintf(stderr, "wrote %zu bench result rows -> %s\n",
                     BenchResults().size(), json_out.c_str());
      }
    }
    obs::StopDefaultObsServer();
  }
};

/// Mean test accuracy over `repeats` seeds.
inline Result<double> MeanAccuracy(const BenchData& data,
                                   const TrainerConfig& config, int repeats,
                                   uint64_t seed_base) {
  double total = 0.0;
  for (int r = 0; r < repeats; ++r) {
    Rng rng(seed_base + 1000 * r);
    BOLTON_ASSIGN_OR_RETURN(double acc, TrainAndScore(data, config, &rng));
    total += acc;
  }
  return total / repeats;
}

}  // namespace bench
}  // namespace bolton

#endif  // BOLTON_BENCH_BENCH_COMMON_H_
