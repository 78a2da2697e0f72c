#ifndef BOLTON_OPTIM_PARALLEL_EXECUTOR_H_
#define BOLTON_OPTIM_PARALLEL_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "linalg/vector.h"
#include "obs/perf_counters.h"
#include "optim/loss.h"
#include "optim/psgd.h"
#include "optim/schedule.h"
#include "random/rng.h"
#include "util/result.h"

namespace bolton {

/// Where one worker thread's wall time went during a sharded run — the
/// scheduler-level attribution that answers "why do shards lose to serial":
/// spawn cost (thread creation to first instruction), busy time (inside
/// shard PSGD), and idle time (alive but waiting — load imbalance or
/// serialization on an undersubscribed machine). All nanoseconds on the
/// obs monotonic clock. Reported here in the run output; of these only
/// busy time is also a metric (psgd.worker_busy_seconds).
struct WorkerStats {
  size_t worker = 0;       // worker slice index (0-based)
  /// Pool-dispatch latency: ParallelRun submit -> first instruction of the
  /// slice on a pool worker. Warm pools make this microseconds; before the
  /// pool existed this was per-run thread creation and dominated small
  /// sharded runs.
  uint64_t spawn_ns = 0;
  uint64_t busy_ns = 0;    // total time executing shards
  uint64_t idle_ns = 0;    // lifetime - busy (scheduling gaps, imbalance)
  /// Gap time between the worker being ready and each of its shards
  /// starting, net of time spent on earlier shards — nonzero when the OS
  /// descheduled the worker between shards (oversubscription).
  uint64_t queue_wait_ns = 0;
  size_t shards_run = 0;   // shards this worker executed
  /// Hardware-counter delta over the worker's whole lifetime (IPC and miss
  /// rates via the obs::PerfCounterDelta accessors). available=false when
  /// the PMU is unreachable or the perf pillar is disabled; task_clock_ns
  /// still carries the worker's on-CPU time at any perf tier.
  obs::PerfCounterDelta counters;
};

/// Aggregate utilization over a sharded run: per-worker rows plus the
/// run-level phases that are not attributable to any worker.
struct WorkerUtilization {
  std::vector<WorkerStats> workers;
  uint64_t partition_ns = 0;  // partition permutation draw
  uint64_t dispatch_ns = 0;   // pool submit to last slice completion
  uint64_t average_ns = 0;    // fixed-order model averaging
  /// Σ busy / Σ (busy + idle) over all workers; 1.0 when every worker was
  /// doing shard work its whole life, lower when spawn/imbalance dominate.
  double busy_fraction = 0.0;
};

/// Result of a sharded (or, at shards = 1, serial) PSGD run.
struct ShardedPsgdOutput {
  /// The released hypothesis: at shards = 1 the serial RunPsgd model,
  /// otherwise the uniform average (1/s)·Σ_j w_j of the shard models.
  Vector model;
  /// Engine counters summed across all shards.
  PsgdStats stats;
  /// Shards actually run (1 for the serial fallback).
  size_t shards = 1;
  /// |S_j| per shard, in shard order. The balanced contiguous partition:
  /// the first m mod s shards get ⌈m/s⌉ examples, the rest ⌊m/s⌋.
  std::vector<size_t> shard_sizes;
  /// Wall-time attribution for the run's workers (empty for the shards = 1
  /// serial delegation, which has no workers to account).
  WorkerUtilization utilization;
};

/// Deterministic per-shard RNG seed: counter-based (seed_base + shard
/// index through the golden-ratio increment, decorrelated by the Rng's
/// splitmix64 seeding), so shard streams depend only on (parent stream,
/// shard index) — never on worker scheduling order.
uint64_t ShardSeed(uint64_t seed_base, size_t shard);

/// Shard-parallel black-box PSGD (paper §3.2.3, Lemma 10):
///
///   1. draw one permutation τ of [m] from `rng` and cut it into
///      `options.shards` disjoint contiguous index slices;
///   2. run the black box per shard on its own worker thread
///      (RunPsgdOnRows over the shard's slice of the caller's read-only
///      `data`; no row is copied), each with an independent counter-seeded
///      RNG stream (ShardSeed);
///   3. release the uniform average of the shard models.
///
/// Shard j's model is bit-for-bit RunPsgd(data.Subset(slice_j), …) with
/// Rng(ShardSeed(seed_base, j)), where seed_base is the draw from `rng`
/// that follows τ.
///
/// Privacy-wise this is exactly the hook the bolt-on analysis allows: each
/// shard is an independent PSGD run over its own m_j ≈ m/s examples, so
/// Corollary 1 / Lemma 8 bound each shard model's sensitivity with m
/// replaced by m_j, a neighboring dataset perturbs exactly one shard, and
/// Lemma 10's averaging argument bounds the released average by the max
/// per-shard sensitivity (see core/sensitivity.h, ShardedMaxSensitivity).
///
/// Execution (pool, slice cap, cancellation) is governed by
/// `options.executor` (ExecutorConfig in sgd_spec.h). Worker slices are
/// dispatched onto options.executor.pool — GlobalThreadPool() when null —
/// so repeated runs reuse warm, parked workers instead of spawning threads
/// per call; WorkerStats::spawn_ns is therefore the pool dispatch latency
/// (submit → slice start), not thread creation.
///
/// Contracts:
///  * shards = 1 delegates to RunPsgd — bit-identical to the serial path,
///    consuming `rng` identically;
///  * for a fixed seed and shard count the result is bit-identical at ANY
///    executor config — max_threads, pool size, warm vs. fresh pool — and
///    SIMD tier (partition and seeds are drawn before workers start, shard
///    outputs are averaged in shard order, and every SIMD tier is
///    bit-identical to the scalar reference);
///  * fail-fast: a failing shard fails the whole run through the returned
///    Result<> (no abort) — the first failing shard's status with shard
///    context — and NO model is released. A partial average is never
///    produced: Lemma 10 calibrates the release to all s shard models.
///
/// `executor.max_threads` caps the worker slices (0 = auto: one per shard,
/// clamped to the pool's worker capacity);
/// shards are assigned round-robin. Requires permutation sampling and no
/// per-update noise source (sharding is for the black-box algorithms; the
/// white-box baselines compose their budgets per update and have no
/// shard-level analysis here).
///
/// `data.AdviseRandomReads()` is called once, on the calling thread (by
/// RunPsgd for one shard, before the partition for more), so shards never
/// race for it.
Result<ShardedPsgdOutput> RunShardedPsgd(const Dataset& data,
                                         const LossFunction& loss,
                                         const StepSizeSchedule& schedule,
                                         const PsgdOptions& options, Rng* rng);

}  // namespace bolton

#endif  // BOLTON_OPTIM_PARALLEL_EXECUTOR_H_
