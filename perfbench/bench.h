// Shared pieces of the perfbench binary: the workload request mixes (one
// generator feeds both the HTTP load generator and the in-process replay, so
// both see the same request sequence for a seed), bench-side spans, order
// statistics, /proc readers and the one-line JSON result writer.
#ifndef BOLTON_PERFBENCH_BENCH_H_
#define BOLTON_PERFBENCH_BENCH_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/private_sgd.h"
#include "optim/parallel_executor.h"
#include "random/rng.h"

namespace bolton {
namespace perfbench {

// ---------------------------------------------------------------- workloads

enum class Kind { kTrain, kPredict, kBudget, kAggregate };

/// True for the request kinds that charge tenant budget.
inline bool IsWrite(Kind kind) {
  return kind == Kind::kTrain || kind == Kind::kAggregate;
}

/// The daemon-facing shape of a serve workload.
struct ServeShape {
  std::string name;
  size_t tenants = 0;
  /// Dataset scale of the mix's trains (protein@scale).
  double train_scale = 0.05;
  /// Shares of predict / budget read / aggregate; trains take the rest.
  double predict_share = 0.0, budget_share = 0.0, aggregate_share = 0.0;
};

/// serve_train, serve_mix, or a smoke-sized variant (tenants scaled down).
ServeShape ServeShapeFor(const std::string& workload, bool smoke);

constexpr double kTrainEpsilon = 0.1;
constexpr double kTrainDelta = 1e-8;
constexpr double kAggregateEpsilon = 0.05;
constexpr double kAggregateScale = 0.05;
/// Per-tenant budget handed to the daemon: large enough that no tenant of
/// any workload runs out.
constexpr double kBudgetEpsilon = 1e6;
constexpr double kBudgetDelta = 0.5;

/// One request of a mix. `body` is empty for a budget read.
struct Request {
  Kind kind = Kind::kTrain;
  size_t tenant = 0;
  std::string method, path, body;
  double epsilon = 0.0;  // budget the request charges when it succeeds
  double delta = 0.0;
};

std::string TenantName(size_t tenant);

/// Body of a private bolt-on train on protein@scale.
std::string TrainBody(size_t tenant, double scale, uint64_t seed);
/// Body of a private feature_mean aggregate on protein@0.05.
std::string AggregateBody(size_t tenant, size_t column, uint64_t seed);
/// Body of a predict with `dim` seeded features.
std::string PredictBody(size_t tenant, const std::string& model_id,
                        size_t dim, Rng* rng);

/// Caller `caller` of `callers` owns tenants caller, caller + callers, ...
/// and draws its requests from its own seeded stream.
class RequestStream {
 public:
  RequestStream(const ServeShape& shape, uint64_t seed, size_t caller,
                size_t callers);
  /// The next request; predicts use `model_ids[tenant]`.
  Request Next(const std::vector<std::string>& model_ids);
  const std::vector<size_t>& tenants() const { return tenants_; }

 private:
  ServeShape shape_;
  Rng rng_;
  std::vector<size_t> tenants_;
};

/// Protein features per row (d of every serve request).
constexpr size_t kProteinDim = 74;

/// One HTTP/1.0 exchange on its own connection, timed from connect to the
/// last byte of the response.
struct Reply {
  int status = 0;  // 0 = transport failure
  std::string body;
  double seconds = 0.0;
};
Reply Exchange(int port, const std::string& method, const std::string& path,
               const std::string& body);

// -------------------------------------------------------------- statistics

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

// ------------------------------------------------------------------- /proc

/// user + system CPU seconds of `pid` (0 = this process).
double ProcessCpuSeconds(pid_t pid);
/// A "VmRSS:"/"VmHWM:"-style field of /proc/<pid>/status in KiB.
double ProcessStatusKb(pid_t pid, const char* field);

/// Aggregate CPU time counters from /proc/stat, for the steal share.
struct CpuTimes {
  double steal = 0.0;
  double total = 0.0;
};
CpuTimes ReadCpuTimes();
inline double StealShare(const CpuTimes& a, const CpuTimes& b) {
  const double total = b.total - a.total;
  return total > 0.0 ? (b.steal - a.steal) / total : 0.0;
}

// ------------------------------------------------------------------- spans

double NowSeconds();
uint64_t NowNanos();

/// Bench-side trace spans: name, start, end, parent and the operation id
/// shared by every span of one operation. Kept in memory (thread-safe) and
/// written once, through the obs span exporter, by WriteJsonl. A parent
/// takes its id with NewId() before its children run and is added last.
class SpanLog {
 public:
  uint64_t NewId() { return next_id_.fetch_add(1) + 1; }
  void Add(uint64_t id, const char* name, uint64_t parent, uint64_t op,
           uint64_t start_ns, uint64_t end_ns);
  /// One obs span JSON object per line, each with an added "op" key.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name = "";
    uint64_t id = 0, parent = 0, op = 0;
    uint64_t start_ns = 0, end_ns = 0;
  };
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Runs `fn`, records it as span `name` under `parent` when `log` is set,
/// and returns its seconds.
template <typename Fn>
double Timed(SpanLog* log, const char* name, uint64_t parent, uint64_t op,
             Fn&& fn) {
  const uint64_t start = NowNanos();
  fn();
  const uint64_t end = NowNanos();
  if (log != nullptr) log->Add(log->NewId(), name, parent, op, start, end);
  return (end - start) * 1e-9;
}

// ------------------------------------------------------------------ output

/// A flat JSON object of named numbers, printed as the last line of a
/// subcommand's stdout for run.py to read.
class JsonLine {
 public:
  void Num(const std::string& key, double value);
  void Print() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// ----------------------------------------------------------- layer probes

/// The train_1m release options at m rows: (ε, δ) = (0.1, 1/m²).
BoltOnOptions ReleaseOptions(size_t m, size_t shards, size_t passes,
                             size_t batch);

/// One release replayed stage by stage.
struct ReleaseTrace {
  double total_s = 0.0, calibrate_s = 0.0, sharded_s = 0.0, perturb_s = 0.0;
  double teardown_s = 0.0;  // RunShardedPsgd wall minus its timed phases
  WorkerUtilization util;
  Vector model;
};

/// Replays PrivatePsgd (strongly convex loss) through its public stages:
/// BoltOnSensitivity, RunShardedPsgd, BoltOnPerturb. Spans carry `op`.
ReleaseTrace TraceRelease(const Dataset& train, const LossFunction& loss,
                          const BoltOnOptions& options, Rng* rng,
                          SpanLog* log, uint64_t op);

/// Runs `count` releases in pairs: PrivatePsgd untraced (times go to
/// `untraced_s`), then TraceRelease with the same seed. Clears `faithful`
/// unless every replay releases the same model bit for bit.
std::vector<ReleaseTrace> PairedReleases(const Dataset& train,
                                         const LossFunction& loss,
                                         const BoltOnOptions& options,
                                         size_t count, uint64_t seed,
                                         SpanLog* log,
                                         std::vector<double>* untraced_s,
                                         bool* faithful);

/// data.subset_ms, random.*, optim.* and core.calibrate_us/perturb_us at
/// one training shape, the release-stage metrics from `traces`. Returns
/// the telemetry overhead of serial RunPsgd over one shard, in percent.
double ReleaseLayerMetrics(const Dataset& train, const LossFunction& loss,
                           const BoltOnOptions& sharded,
                           const std::vector<ReleaseTrace>& traces,
                           uint64_t seed, SpanLog* log, JsonLine* out);

/// The serve, engine, util and obs.http metrics: the workload's request
/// sequence replayed in process on 1 and then 4 threads, plus probes. With
/// `on_path` it also emits core.solve_ms, obs.telemetry_overhead_pct
/// (TrainBinary) and trace.*; without, the in-process budget counters.
void ServeLayerMetrics(const ServeShape& shape, const std::string& state_dir,
                       const std::string& disk_dir, size_t requests,
                       uint64_t seed, SpanLog* log, JsonLine* out,
                       bool on_path);

int TrainMain(int argc, char** argv);
int LoadMain(int argc, char** argv);
int LayersMain(int argc, char** argv);

}  // namespace perfbench
}  // namespace bolton

#endif  // BOLTON_PERFBENCH_BENCH_H_
