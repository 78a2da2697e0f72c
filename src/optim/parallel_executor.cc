#include "optim/parallel_executor.h"

#include <algorithm>
#include <span>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "optim/thread_pool.h"
#include "random/permutation.h"
#include "util/failpoint.h"
#include "util/strings.h"
#include "util/thread_name.h"

namespace bolton {

namespace {

Status ValidateShardedOptions(const Dataset& data, const PsgdOptions& options) {
  if (options.shards < 1) {
    return Status::InvalidArgument("shards must be >= 1");
  }
  if (options.shards > data.size()) {
    return Status::InvalidArgument(
        StrFormat("shards %zu exceeds training size %zu", options.shards,
                  data.size()));
  }
  if (options.sampling != SamplingMode::kPermutation) {
    return Status::InvalidArgument(
        "sharded execution requires permutation sampling (the bolt-on "
        "analysis is stated for PSGD)");
  }
  const size_t min_shard = data.size() / options.shards;
  if (options.batch_size > min_shard) {
    return Status::InvalidArgument(
        StrFormat("batch_size %zu exceeds the smallest shard size %zu "
                  "(m=%zu, shards=%zu)",
                  options.batch_size, min_shard, data.size(),
                  options.shards));
  }
  return Status::OK();
}

}  // namespace

uint64_t ShardSeed(uint64_t seed_base, size_t shard) {
  // Golden-ratio stride; Rng's splitmix64 seeding decorrelates the linear
  // sequence into independent streams.
  return seed_base + 0x9E3779B97F4A7C15ull * (static_cast<uint64_t>(shard) + 1);
}

Result<ShardedPsgdOutput> RunShardedPsgd(const Dataset& data,
                                         const LossFunction& loss,
                                         const StepSizeSchedule& schedule,
                                         const PsgdOptions& options, Rng* rng) {
  BOLTON_RETURN_IF_ERROR(ValidateShardedOptions(data, options));
  const ExecutorConfig& executor = options.executor;

  if (options.shards == 1) {
    // Bit-identical serial path: same code, same rng consumption.
    BOLTON_ASSIGN_OR_RETURN(PsgdOutput run,
                            RunPsgd(data, loss, schedule, options, rng));
    ShardedPsgdOutput out;
    out.model = std::move(run.model);
    out.stats = run.stats;
    out.shards = 1;
    out.shard_sizes = {data.size()};
    return out;
  }

  obs::ScopedSpan run_span("psgd.sharded_run");

  const size_t m = data.size();
  const size_t s = options.shards;
  // Once, on this thread, before any shard reads the rows in random order
  // (the serial path's RunPsgd makes the same call).
  data.AdviseRandomReads();

  // Partition permutation and the per-shard seed base are drawn from the
  // parent stream BEFORE any worker starts, so results depend only on the
  // seed and shard count — never on thread count or scheduling.
  const uint64_t shuffle_start_ns = obs::MonotonicNanos();
  std::vector<size_t> order;
  {
    obs::ScopedSpan shuffle_span("psgd.shard_partition");
    order = RandomPermutation(m, rng);
  }
  const uint64_t seed_base = rng->Next();

  // Balanced contiguous split of the permutation: the first m mod s shards
  // take ⌈m/s⌉ indices, the rest ⌊m/s⌋. Shard j reads the caller's rows
  // through its slice of `order`; no row is copied.
  std::vector<std::span<const size_t>> slices;
  slices.reserve(s);
  size_t offset = 0;
  for (size_t j = 0; j < s; ++j) {
    const size_t size_j = m / s + (j < m % s ? 1 : 0);
    slices.emplace_back(order.data() + offset, size_j);
    offset += size_j;
  }
  const uint64_t partition_end_ns = obs::MonotonicNanos();

  PsgdOptions shard_options = options;
  shard_options.shards = 1;

  // Metrics are registered up front so workers only touch the lock-free
  // counters.
  obs::Counter* shard_runs =
      obs::MetricsRegistry::Default().GetCounter("psgd.shard_runs");
  obs::Counter* shard_failures =
      obs::MetricsRegistry::Default().GetCounter("psgd.shard_failures");
  obs::Gauge* shard_count =
      obs::MetricsRegistry::Default().GetGauge("psgd.shard_count");
  obs::Histogram* worker_busy = obs::MetricsRegistry::Default().GetHistogram(
      "psgd.worker_busy_seconds", obs::LatencySecondsBuckets());
  obs::Gauge* worker_count_gauge =
      obs::MetricsRegistry::Default().GetGauge("psgd.worker_count");
  // Per-worker hardware-counter distributions (only observed when the PMU
  // delivered real counts — a clock-fallback run records nothing here).
  obs::Histogram* worker_ipc = obs::MetricsRegistry::Default().GetHistogram(
      "psgd.worker_ipc",
      {0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0});
  obs::Histogram* worker_cache_miss_rate =
      obs::MetricsRegistry::Default().GetHistogram(
          "psgd.worker_cache_miss_rate",
          {0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.7});
  shard_count->Set(static_cast<double>(s));

  // One shard: fault-injection gate, then PSGD from the shard's
  // counter-based seed.
  auto run_shard_psgd = [&](size_t j) -> Result<PsgdOutput> {
    BOLTON_FAILPOINT("shard.worker");
    Rng shard_rng(ShardSeed(seed_base, j));
    return RunPsgdOnRows(data, slices[j], loss, schedule, shard_options,
                         &shard_rng);
  };

  std::vector<Result<PsgdOutput>> results(s, Result<PsgdOutput>(PsgdOutput()));
  auto run_shard = [&](size_t j) {
    obs::ScopedSpan shard_span("psgd.shard");
    results[j] = run_shard_psgd(j);
    shard_runs->Increment();
    if (!results[j].ok()) shard_failures->Increment();
  };

  // The pool the slices will run on (injected or process-wide). Resolved
  // before worker_count: the auto policy sizes slices to the workers that
  // can actually run them — more slices than pool workers adds a dispatch
  // wakeup per slice and zero parallelism (on a single-core host that
  // overhead alone used to double the sharded wall time).
  ThreadPool& pool =
      executor.pool != nullptr ? *executor.pool : GlobalThreadPool();
  const size_t worker_count =
      executor.max_threads == 0
          ? std::min(pool.max_threads(), s)
          : std::min(executor.max_threads, s);
  std::vector<WorkerStats> worker_stats(std::max<size_t>(worker_count, 1));
  const uint64_t dispatch_start_ns = obs::MonotonicNanos();
  // One worker slice's round-robin shards, with wall-time attribution:
  // spawn (pool submit -> first instruction of the slice, i.e. dispatch
  // latency), busy (inside run_shard), queue wait (ready but not yet
  // running the next shard), idle (slice lifetime - busy). A "worker" row
  // is a slice, not an OS thread: the pool may run several slices on one
  // parked worker thread, and attribution follows the slice.
  auto run_worker = [&](size_t w) {
    WorkerStats& stats = worker_stats[w];
    stats.worker = w;
    const uint64_t worker_start_ns = obs::MonotonicNanos();
    stats.spawn_ns = worker_start_ns - dispatch_start_ns;
    obs::ScopedSpan worker_span("psgd.worker");
    // Counters over the slice's whole lifetime, on the executing pool
    // thread (perf events are per-thread: the caller cannot observe
    // cycles spent here; pool workers pre-open their counters on attach).
    const obs::PerfReading counters_start = obs::ReadCurrentThreadPerf();
    for (size_t j = w; j < s; j += worker_count) {
      const uint64_t shard_start_ns = obs::MonotonicNanos();
      const uint64_t ready_gap_ns =
          shard_start_ns - worker_start_ns - stats.busy_ns;
      stats.queue_wait_ns += ready_gap_ns;
      run_shard(j);
      stats.busy_ns += obs::MonotonicNanos() - shard_start_ns;
      ++stats.shards_run;
    }
    stats.counters =
        obs::DeltaBetween(counters_start, obs::ReadCurrentThreadPerf());
    const uint64_t lifetime_ns = obs::MonotonicNanos() - worker_start_ns;
    stats.idle_ns = lifetime_ns > stats.busy_ns ? lifetime_ns - stats.busy_ns
                                                : 0;
  };
  if (worker_count <= 1) {
    // Serial fallback is accounted as one slice with zero dispatch cost
    // (no pool involved; run_worker measures from its own start). It still
    // takes the slice name so trace/profile readers find psgd-shard-0
    // whether or not a pool thread ran it.
    const std::string caller_name = CurrentThreadName();
    SetCurrentThreadName("psgd-shard-0");
    run_worker(0);
    SetCurrentThreadName(caller_name);
    worker_stats[0].spawn_ns = 0;
  } else {
    // Static round-robin: shard j runs on slice j % worker_count, so the
    // assignment (though not the result — shards are independent) is also
    // deterministic. Slices go onto the persistent pool: a warm pool's
    // parked workers start them without thread creation.
    pool.ParallelRun(worker_count, [&](size_t w) {
      // Named per slice, not per pool thread: run_checks' trace audit (and
      // any profile reader) looks for psgd-shard-N regardless of which
      // pool worker picked the slice up. The pool restores its own thread
      // name after the task.
      SetCurrentThreadName(StrFormat("psgd-shard-%zu", w));
      run_worker(w);
    });
  }
  const uint64_t dispatch_end_ns = obs::MonotonicNanos();

  // HARD POLICY: any failing shard fails the whole release. Lemma 10
  // calibrates the released average to all s shard models; a partial
  // average is never produced.
  for (size_t j = 0; j < s; ++j) {
    if (!results[j].ok()) {
      return results[j].status().WithContext(
          StrFormat("psgd shard %zu of %zu", j, s));
    }
  }

  // Uniform model average in shard order (Lemma 10). Fixed order keeps the
  // floating-point sum, and therefore the result, thread-count independent.
  const uint64_t average_start_ns = obs::MonotonicNanos();
  ShardedPsgdOutput out;
  out.shards = s;
  Vector average(data.dim());
  for (size_t j = 0; j < s; ++j) {
    out.shard_sizes.push_back(slices[j].size());
    average += results[j].value().model;
    out.stats.gradient_evaluations +=
        results[j].value().stats.gradient_evaluations;
    out.stats.updates += results[j].value().stats.updates;
    out.stats.noise_samples += results[j].value().stats.noise_samples;
  }
  average *= 1.0 / static_cast<double>(s);
  out.model = std::move(average);

  // Publish the run's utilization: per-worker rows in the output, and the
  // psgd.worker_* metrics family for /metrics scrapes.
  out.utilization.workers = std::move(worker_stats);
  out.utilization.partition_ns = partition_end_ns - shuffle_start_ns;
  out.utilization.dispatch_ns = dispatch_end_ns - dispatch_start_ns;
  out.utilization.average_ns = obs::MonotonicNanos() - average_start_ns;
  uint64_t total_busy_ns = 0, total_alive_ns = 0;
  for (const WorkerStats& stats : out.utilization.workers) {
    worker_busy->Observe(static_cast<double>(stats.busy_ns) * 1e-9);
    if (stats.counters.available) {
      worker_ipc->Observe(stats.counters.Ipc());
      worker_cache_miss_rate->Observe(stats.counters.CacheMissRate());
    }
    total_busy_ns += stats.busy_ns;
    total_alive_ns += stats.busy_ns + stats.idle_ns;
  }
  out.utilization.busy_fraction =
      total_alive_ns > 0 ? static_cast<double>(total_busy_ns) /
                               static_cast<double>(total_alive_ns)
                         : 0.0;
  worker_count_gauge->Set(
      static_cast<double>(out.utilization.workers.size()));
  return out;
}

}  // namespace bolton
