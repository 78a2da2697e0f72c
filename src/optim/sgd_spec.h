#ifndef BOLTON_OPTIM_SGD_SPEC_H_
#define BOLTON_OPTIM_SGD_SPEC_H_

#include <cstddef>
#include <cstdint>

namespace bolton {

class CancellationToken;
class ThreadPool;

/// How a sharded run executes — everything about the release is in the
/// rest of the spec; everything here can only change speed, never results
/// (the executor's determinism contract).
///
/// It rides inside SgdRunSpec, so it flows from the CLI's TrainerConfig
/// (which is-a SolverSpec, which is-a BoltOnOptions) to the PsgdOptions the
/// executor reads with one `psgd.run() = options.run()` copy.
struct ExecutorConfig {
  /// Pool to dispatch shard slices onto; nullptr = the process-wide
  /// GlobalThreadPool(). Injecting a pool is for tests and embedders that
  /// want isolated sizing.
  ThreadPool* pool = nullptr;
  /// Caps concurrent worker slices (shards are assigned round-robin to
  /// slices). 0 = auto: one slice per shard, clamped to the pool's worker
  /// capacity — slices beyond the workers that can run them would each pay
  /// a dispatch wakeup for zero added parallelism. Results are
  /// bit-identical at ANY value; this only shapes parallelism and the
  /// WorkerStats rows.
  size_t max_threads = 0;
  /// Cooperative cancellation (util/cancellation.h): the pass/batch loops
  /// poll it and abandon the run with Status::Cancelled. nullptr = never cancelled. Like everything else
  /// here it cannot change a released result — a cancelled run releases
  /// nothing. The token must outlive the run.
  const CancellationToken* cancel = nullptr;
};

/// Which hypothesis a run returns.
enum class OutputMode {
  /// The final iterate w_T.
  kLastIterate,
  /// The uniform average (1/T)·Σ w_t of all iterates (paper §3.2.3 "Model
  /// Averaging"; sensitivity is no worse than the last iterate's).
  kAverageAll,
};

/// The run parameters every SGD-driving surface in the library shares.
///
/// PsgdOptions and BoltOnOptions extend this spec (by inheritance, so
/// `options.passes`-style call sites stay one-line) instead of
/// re-declaring the fields. The solver-side option structs form one chain,
/// TrainerConfig : SolverSpec : BoltOnOptions : SgdRunSpec, in which each
/// struct declares only its own fields, so a config reaches the solver by
/// reference. The one conversion left, into the black box's PsgdOptions,
/// is a single `psgd.run() = options.run();` assignment.
struct SgdRunSpec {
  /// Number of passes over the data (k).
  size_t passes = 1;
  /// Mini-batch size (b). In permutation mode each pass is partitioned into
  /// ⌈m/b⌉ consecutive chunks of the shuffled order.
  size_t batch_size = 1;
  /// Last iterate vs. uniform iterate average (§3.2.3 "Model Averaging").
  OutputMode output = OutputMode::kLastIterate;
  /// Sample a fresh permutation at every pass (analysis is unchanged,
  /// §3.2.3 "Fresh Permutation at Each Pass").
  bool fresh_permutation_each_pass = false;
  /// Shard-parallel execution (§3.2.3 Lemma 10): partition the permutation
  /// into `shards` disjoint shards, run black-box PSGD per shard on its own
  /// worker, and average the shard models. 1 = the serial path,
  /// bit-identical to RunPsgd. Only the black-box algorithms (noiseless,
  /// bolt-on) support shards > 1; the white-box baselines reject it.
  size_t shards = 1;
  /// How (not what) a sharded run executes: pool, slice cap,
  /// cancellation. Never affects released results.
  ExecutorConfig executor;

  SgdRunSpec() = default;
  SgdRunSpec(size_t passes, size_t batch_size)
      : passes(passes), batch_size(batch_size) {}

  /// The shared-spec slice of any embedding struct, for one-line conversion
  /// between option surfaces: `psgd.run() = config.run();`.
  SgdRunSpec& run() { return *this; }
  const SgdRunSpec& run() const { return *this; }
};

}  // namespace bolton

#endif  // BOLTON_OPTIM_SGD_SPEC_H_
