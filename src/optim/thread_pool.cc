#include "optim/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/profiler.h"
#include "obs/telemetry.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/thread_name.h"

namespace bolton {

namespace {

/// Which pool (if any) the current thread is a worker of — lets a nested
/// ParallelRun on the same pool run inline instead of deadlocking (the
/// worker would otherwise block waiting for tasks only it could run).
thread_local const ThreadPool* t_worker_of = nullptr;

size_t ResolveMaxThreads(size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<size_t>(hw) : 1;
}

uint64_t EnvOverrideU64(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') return fallback;
  auto parsed = ParseU64(value);
  if (!parsed.ok()) {
    BOLTON_LOG(kWarning) << name << "=" << value
                         << " is not a number; using default";
    return fallback;
  }
  return parsed.value();
}

}  // namespace

ThreadPool::ThreadPool(ThreadPoolOptions options)
    : max_threads_(ResolveMaxThreads(options.max_threads)),
      idle_timeout_ms_(options.idle_timeout_ms),
      name_prefix_(options.name_prefix) {
  stats_.max_threads = max_threads_;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  dispatch_wait_seconds_ = registry.GetHistogram(
      "pool.dispatch_wait_seconds", obs::LatencySecondsBuckets());
  tasks_total_ = registry.GetCounter("pool.tasks_total");
  spawned_total_ = registry.GetCounter("pool.threads_spawned_total");
  retired_total_ = registry.GetCounter("pool.threads_retired_total");
  live_gauge_ = registry.GetGauge("pool.threads_live");
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (Slot& slot : slots_) {
    if (slot.thread.joinable()) slot.thread.join();
  }
}

void ThreadPool::ParallelRun(size_t count,
                             const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  if (t_worker_of == this) {
    // Nested batch from one of our own workers: run inline. The worker is a
    // pool thread already, and parking it on done_cv could deadlock a pool
    // whose other workers are all doing the same.
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  Batch batch;
  batch.fn = &fn;
  batch.remaining = count;
  {
    std::unique_lock<std::mutex> lock(mu_);
    BOLTON_CHECK(!shutdown_);
    const uint64_t now_ns = obs::MonotonicNanos();
    for (size_t i = 0; i < count; ++i) {
      queue_.push_back(Task{&batch, i, now_ns});
    }
    ++stats_.batches_run;
    EnsureWorkersLocked();
    // notify while holding the lock: a worker that times out between our
    // unlock and notify could otherwise retire with work queued (benign —
    // EnsureWorkers spawned cover — but noisy).
    work_cv_.notify_all();
    batch.done_cv.wait(lock, [&] { return batch.remaining == 0; });
  }
}

void ThreadPool::ReapExitedLocked() {
  for (Slot& slot : slots_) {
    if (slot.occupied && slot.exited) {
      if (slot.thread.joinable()) slot.thread.join();
      slot.occupied = false;
      slot.exited = false;
    }
  }
}

void ThreadPool::EnsureWorkersLocked() {
  ReapExitedLocked();
  // Idle workers will be woken for queued tasks; spawn only the shortfall.
  const size_t target = std::min(max_threads_, queue_.size());
  size_t available = idle_threads_;
  while (available < target && live_threads_ < max_threads_) {
    size_t index = slots_.size();
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (!slots_[i].occupied) {
        index = i;
        break;
      }
    }
    if (index == slots_.size()) slots_.emplace_back();
    Slot& slot = slots_[index];
    slot.occupied = true;
    slot.exited = false;
    ++live_threads_;
    ++stats_.threads_spawned;
    spawned_total_->Increment();
    live_gauge_->Set(static_cast<double>(live_threads_));
    slot.thread = std::thread([this, index] { WorkerMain(index); });
    ++available;
  }
}

void ThreadPool::WorkerMain(size_t slot) {
  const std::string worker_name = StrFormat("%s-%zu", name_prefix_.c_str(),
                                            slot);
  SetCurrentThreadName(worker_name);
  t_worker_of = this;
  // Attach-time observability: register with the sampling profiler for the
  // thread's whole life, and pre-open this thread's perf counters so the
  // first task's span does not pay the lazy perf_event_open.
  obs::ProfiledThreadScope profile_scope;
  obs::ReadCurrentThreadPerf();

  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (queue_.empty() && !shutdown_) {
      ++idle_threads_;
      bool timed_out = false;
      auto ready = [&] { return shutdown_ || !queue_.empty(); };
      if (idle_timeout_ms_ == 0) {
        work_cv_.wait(lock, ready);
      } else {
        timed_out = !work_cv_.wait_for(
            lock, std::chrono::milliseconds(idle_timeout_ms_), ready);
      }
      --idle_threads_;
      if (timed_out && queue_.empty() && !shutdown_) {
        // Idle spin-down: retire this worker; EnsureWorkersLocked respawns
        // on demand and reaps the joinable remains.
        ++stats_.threads_retired;
        retired_total_->Increment();
        break;
      }
    }
    if (shutdown_ && queue_.empty()) break;
    if (queue_.empty()) continue;

    Task task = queue_.front();
    queue_.pop_front();
    lock.unlock();

    dispatch_wait_seconds_->Observe(
        static_cast<double>(obs::MonotonicNanos() - task.enqueue_ns) * 1e-9);
    (*task.batch->fn)(task.index);
    // The task may have renamed the thread (psgd-shard-N); take the pool
    // name back so inter-task samples attribute to the pool, not a stale
    // shard.
    SetCurrentThreadName(worker_name);

    lock.lock();
    ++stats_.tasks_run;
    tasks_total_->Increment();
    if (--task.batch->remaining == 0) task.batch->done_cv.notify_all();
  }
  --live_threads_;
  live_gauge_->Set(static_cast<double>(live_threads_));
  slots_[slot].exited = true;
}

ThreadPoolStats ThreadPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ThreadPoolStats snapshot = stats_;
  snapshot.live_threads = live_threads_;
  snapshot.idle_threads = idle_threads_;
  return snapshot;
}

ThreadPool& GlobalThreadPool() {
  // Leaked on purpose (reachable, so LeakSanitizer-clean): joining workers
  // from a static destructor would race the teardown of the obs singletons
  // they touch. Parked workers either retire on idle timeout or die with
  // the process.
  static ThreadPool* pool = [] {
    ThreadPoolOptions options;
    options.max_threads = static_cast<size_t>(
        EnvOverrideU64("BOLTON_POOL_THREADS", 0));
    options.idle_timeout_ms =
        EnvOverrideU64("BOLTON_POOL_IDLE_MS", options.idle_timeout_ms);
    return new ThreadPool(options);
  }();
  return *pool;
}

}  // namespace bolton
