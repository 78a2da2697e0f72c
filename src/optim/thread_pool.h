#ifndef BOLTON_OPTIM_THREAD_POOL_H_
#define BOLTON_OPTIM_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace bolton {

namespace obs {
class Histogram;
class Counter;
class Gauge;
}  // namespace obs

/// Construction-time knobs for a ThreadPool.
struct ThreadPoolOptions {
  /// Upper bound on live worker threads. 0 = hardware concurrency (at
  /// least 1).
  size_t max_threads = 0;
  /// An idle worker parks on a condition variable; after this long with no
  /// work it retires (exits) and is respawned on demand, so an idle process
  /// carries no thread cost. 0 = park forever (workers only exit at pool
  /// destruction).
  uint64_t idle_timeout_ms = 2000;
  /// Worker threads are named "<name_prefix>-<slot>" (util/thread_name) so
  /// profiles and traces attribute pool time even between tasks.
  std::string name_prefix = "bolton-pool";
};

/// Point-in-time pool accounting (all monotonically accumulated except the
/// two level gauges). Exposed as the pool.* metrics family.
struct ThreadPoolStats {
  size_t max_threads = 0;
  size_t live_threads = 0;   // spawned and not yet exited
  size_t idle_threads = 0;   // parked waiting for work right now
  uint64_t threads_spawned = 0;
  uint64_t threads_retired = 0;  // exits via idle timeout (not shutdown)
  uint64_t tasks_run = 0;
  uint64_t batches_run = 0;  // ParallelRun calls that dispatched to workers
};

/// A persistent, reusable worker pool.
///
/// Workers are spawned lazily (first ParallelRun), parked idle on a
/// condition variable between batches, and spin down after
/// `idle_timeout_ms` without work — the pool holds no threads while nothing
/// is running, but a warm pool dispatches in microseconds instead of paying
/// thread creation per run (the spawn_ns cost the WorkerStats accounting
/// showed dominating sharded runs).
///
/// On attach every worker names itself, registers with the sampling
/// profiler for its lifetime (obs::ProfiledThreadScope), and pre-opens its
/// per-thread perf counters, so tasks inherit full observability without
/// per-dispatch setup. A task may rename its thread (the sharded executor
/// names slices "psgd-shard-N"); the worker restores its own name after
/// each task.
///
/// Determinism: the pool makes NO ordering promises — tasks of one batch may
/// run in any order, on any worker, interleaved with other callers'
/// batches. Callers needing deterministic results must make task outputs
/// independent of scheduling (the sharded executor writes results into
/// indexed slots and reduces in fixed order).
///
/// Thread-safe: concurrent ParallelRun calls from different threads are
/// fine and share the worker set. A task that calls ParallelRun on its own
/// pool runs the nested batch inline on the calling worker (no deadlock).
class ThreadPool {
 public:
  explicit ThreadPool(ThreadPoolOptions options = ThreadPoolOptions());
  /// Wakes everyone and joins all workers; pending tasks are still run
  /// (destruction with queued work is a caller bug only if the caller also
  /// abandoned the ParallelRun that queued it, which blocks — so in
  /// practice the queue is empty here).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t max_threads() const { return max_threads_; }

  /// Runs fn(0) .. fn(count-1) on pool workers and blocks until all
  /// complete. `fn` must not throw. Tasks may run concurrently; see the
  /// class comment for the (lack of) ordering contract.
  void ParallelRun(size_t count, const std::function<void(size_t)>& fn);

  ThreadPoolStats stats() const;

 private:
  struct Batch {
    const std::function<void(size_t)>* fn = nullptr;
    size_t remaining = 0;
    std::condition_variable done_cv;
  };
  struct Task {
    Batch* batch = nullptr;
    size_t index = 0;
    uint64_t enqueue_ns = 0;
  };
  struct Slot {
    std::thread thread;
    bool occupied = false;  // a live (or not-yet-reaped) worker owns it
    bool exited = false;    // worker returned; thread is joinable garbage
  };

  void WorkerMain(size_t slot);
  /// Joins workers that retired on idle timeout, freeing their slots.
  void ReapExitedLocked();
  /// Spawns workers until queued tasks are covered by idle + new workers,
  /// or max_threads is reached.
  void EnsureWorkersLocked();

  const size_t max_threads_;
  const uint64_t idle_timeout_ms_;
  const std::string name_prefix_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<Task> queue_;
  std::vector<Slot> slots_;
  size_t live_threads_ = 0;
  size_t idle_threads_ = 0;
  bool shutdown_ = false;
  ThreadPoolStats stats_{};

  // Cached metric handles (registered once in the constructor); the
  // pool.* family aggregates across every pool in the process.
  obs::Histogram* dispatch_wait_seconds_;
  obs::Counter* tasks_total_;
  obs::Gauge* live_gauge_;
};

/// The process-wide default pool, created lazily on first use and shared by
/// every RunShardedPsgd whose ExecutorConfig does not inject a pool —
/// repeated solver calls (multiclass one-vs-rest, tuning sweeps, a future
/// serve mode) reuse warm workers instead of paying construction per run.
/// It has ThreadPoolOptions' defaults: one worker per hardware thread, 2 s
/// idle timeout. Intentionally never destroyed (workers
/// park or retire on their own; joining at static destruction would race
/// other singletons' teardown).
ThreadPool& GlobalThreadPool();

}  // namespace bolton

#endif  // BOLTON_OPTIM_THREAD_POOL_H_
