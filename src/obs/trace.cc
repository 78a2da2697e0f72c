#include "obs/trace.h"

#include <atomic>

#include "obs/flight_recorder.h"
#include "util/logging.h"
#include "util/thread_name.h"

namespace bolton {
namespace obs {

namespace {
std::atomic<bool> g_tracing{false};
std::atomic<uint64_t> g_next_span_id{1};
}  // namespace

bool TracingEnabled() { return g_tracing.load(std::memory_order_relaxed); }

void SetTracingEnabled(bool enabled) {
  // Installed here, not in util/, so log lines correlate to spans without
  // util/ knowing about obs/.
  if (enabled) {
    bolton::internal::SetLogSpanIdProvider(&internal::CurrentSpanIdForLog);
  }
  g_tracing.store(enabled, std::memory_order_relaxed);
}

namespace internal {
ThreadSpanState& ThreadState() {
  thread_local ThreadSpanState state;
  return state;
}

uint64_t CurrentSpanIdForLog() { return ThreadState().current_id; }
}  // namespace internal

ScopedSpan::ScopedSpan(const char* name) : name_(name) {
  traced_ = TracingEnabled();
  counted_ = PerfCountersEnabled();
  if (!traced_ && !counted_) return;
  internal::ThreadSpanState& tls = internal::ThreadState();
  if (counted_) {
    ++tls.counting;
    counters_start_ = ReadCurrentThreadPerf();
  }
  if (!traced_) return;
  parent_ = tls.current_id;
  depth_ = tls.depth;
  id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  tls.current_id = id_;
  tls.depth = depth_ + 1;
  if (depth_ < internal::ThreadSpanState::kMaxStack) {
    tls.stack_ids[depth_] = id_;
    tls.stack_names[depth_] = name_;
  }
  start_ = MonotonicNanos();
}

ScopedSpan::~ScopedSpan() {
  if (!traced_ && !counted_) return;
  const uint64_t end = traced_ ? MonotonicNanos() : 0;
  internal::ThreadSpanState& tls = internal::ThreadState();
  PerfCounterDelta counters;
  if (counted_) {
    counters = DeltaBetween(counters_start_, ReadCurrentThreadPerf());
    // Only the outermost counting span feeds the totals, so nested spans
    // (solver.run > psgd.run > psgd.pass) never count a cycle twice.
    if (--tls.counting == 0) AddProcessPerfTotals(counters);
  }
  if (!traced_) return;
  tls.current_id = parent_;
  tls.depth = depth_;
  if (depth_ < internal::ThreadSpanState::kMaxStack) {
    tls.stack_ids[depth_] = 0;
    tls.stack_names[depth_] = nullptr;
  }
  SpanRecord record;
  record.name = name_;
  record.id = id_;
  record.parent_id = parent_;
  record.depth = depth_;
  record.start_ns = start_;
  record.duration_ns = end - start_;
  record.thread_id = CurrentThreadSmallId();
  record.thread_name = CurrentThreadName();
  record.has_counters = counted_;
  record.counters = counters;
  FlightRecorder::Default().RecordSpan(record);
}

}  // namespace obs
}  // namespace bolton
