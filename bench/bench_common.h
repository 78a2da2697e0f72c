#ifndef BOLTON_BENCH_BENCH_COMMON_H_
#define BOLTON_BENCH_BENCH_COMMON_H_

// Shared harness for the per-figure/per-table benchmark binaries.
//
// Every accuracy bench reproduces one figure of the paper by printing its
// series as aligned text rows. Dataset sizes default to laptop-friendly
// scales (minutes for the full suite); pass --scale to grow them toward the
// paper's sizes. Seeds are fixed so runs are reproducible.

#include <stdlib.h>

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
#include "obs/perf_counters.h"
#include "obs/profiler.h"
#include "obs/session.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/atomic_file.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/strings.h"

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

/// A fresh, empty directory `<$TMPDIR or /tmp>/<prefix>.XXXXXX` of this
/// run's own, so two runs at once never share a file. The caller removes
/// it.
inline Result<std::string> MakeTempDir(const std::string& prefix) {
  const char* tmpdir = std::getenv("TMPDIR");
  std::string dir = (tmpdir != nullptr && *tmpdir != '\0') ? tmpdir : "/tmp";
  dir += "/" + prefix + ".XXXXXX";
  if (::mkdtemp(dir.data()) == nullptr) {
    return Status::IOError("cannot create a directory from " + dir);
  }
  return dir;
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

/// Parses argv into `parser`'s flags and starts `session` on `flags`. --help
/// prints the flags and exits 0; a refused flag or argument, or a failed
/// start, prints "<program>: <status>" to stderr and returns false.
inline bool ParseAndStart(const char* program, int argc, char** argv,
                          FlagParser* parser, const obs::TelemetryFlags& flags,
                          obs::TelemetrySession* session) {
  Status status = parser->Parse(argc, argv);
  if (status.ok() && parser->help_requested()) {
    parser->PrintHelp(program);
    std::exit(0);
  }
  if (status.ok() && !parser->positional().empty()) {
    status = Status::InvalidArgument("unexpected argument '" +
                                     parser->positional().front() + "'");
  }
  if (status.ok()) status = session->Start(flags);
  return ExitStatus(program, status) == 0;
}

/// Standard flags shared by the accuracy benches, and the bench's telemetry
/// session, which reports on stderr: stdout carries the figure rows.
class CommonFlags {
 public:
  double scale = 1.0;    // multiplies the per-dataset default scale
  int64_t repeats = 3;   // accuracy is averaged over this many seeds
  int64_t seed = 7;
  std::string datasets = "mnist,protein,covertype";

  explicit CommonFlags(const char* program)
      : program_(program), session_(program, stderr) {}

  /// Parses the flags and starts the telemetry session; false (after
  /// printing why) when the bench must exit 1.
  bool Parse(int argc, char** argv) {
    FlagParser parser;
    parser.AddDouble("scale", &scale,
                     "multiplier on the default dataset scale");
    parser.AddInt("repeats", &repeats, "seeds to average accuracy over");
    parser.AddInt("seed", &seed, "base RNG seed");
    parser.AddString("datasets", &datasets, "comma-separated dataset list");
    parser.AddString("json-out", &json_out_,
                     "write machine-readable result rows as JSON on exit "
                     "(tools/benchdiff.py consumes these; with "
                     "--profile-out each row carries its own profile)");
    telemetry_.AddFlags(&parser);
    // Benches always run with the counter pillar on: rows in --json-out
    // carry per-row counter deltas (an explicit {"available":false,...}
    // object when the PMU is unreachable), and the per-scope reads are two
    // fd reads per span — noise at bench granularity.
    obs::SetPerfCountersEnabled(true);
    return ParseAndStart(program_, argc, argv, &parser, telemetry_, &session_);
  }

  /// For a body that stops early on `status`: prints "<program>: <status>"
  /// and returns the bench's exit code, 1. The session still writes its
  /// exports when these flags go out of scope.
  int Fail(const Status& status) { return ExitStatus(program_, status); }

  std::vector<std::string> DatasetList() const {
    return StrSplit(datasets, ',');
  }

  /// Writes the session's exports and --json-out. Returns the bench's exit
  /// code: 1 once any of them failed, each failure printed as
  /// "<program>: <status>".
  int Finish() {
    const int exported = ExitStatus(program_, session_.Finish());
    if (json_out_.empty()) return exported;
    const Status written =
        AtomicWriteFile(json_out_, BenchResultsToJson(), 0666);
    if (written.ok()) {
      std::fprintf(stderr, "wrote %zu bench result rows -> %s\n",
                   BenchResults().size(), json_out_.c_str());
    }
    return ExitStatus(program_, written) | exported;
  }

 private:
  const char* program_;
  std::string json_out_;
  obs::TelemetryFlags telemetry_;
  obs::TelemetrySession session_;
};

/// main() of a google-benchmark binary once benchmark::Initialize has taken
/// its --benchmark_* flags: the arguments left are the telemetry flags, and
/// `run_benchmarks` runs inside their session. A failure it returns is the
/// exit status; the session's exports are written either way.
template <typename Fn>
int RunWithTelemetry(int argc, char** argv, const char* program,
                     Fn run_benchmarks) {
  FlagParser parser;
  obs::TelemetryFlags flags;
  flags.AddFlags(&parser);
  obs::TelemetrySession session(program, stderr);
  if (!ParseAndStart(program, argc, argv, &parser, flags, &session)) return 1;
  const Status ran = run_benchmarks();
  if (!ran.ok()) return ExitStatus(program, ran);
  return ExitStatus(program, session.Finish());
}

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
