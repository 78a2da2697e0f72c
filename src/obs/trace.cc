#include "obs/trace.h"

#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "util/logging.h"
#include "util/thread_name.h"

namespace bolton {
namespace obs {

TraceRecorder& TraceRecorder::Default() {
  static TraceRecorder* recorder = [] {
    // Give the logger its span-id provider here so any process that traces
    // also correlates log lines to spans, without util/ knowing about obs/.
    bolton::internal::SetLogSpanIdProvider(&internal::CurrentSpanIdForLog);
    return new TraceRecorder();
  }();
  return *recorder;
}

void TraceRecorder::Record(SpanRecord record) {
  // Completed spans also land in the flight recorder's recent-span ring so
  // a crash report can show what the process was doing just before dying.
  FlightRecorder::Default().RecordSpan(record);
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(record));
}

std::vector<SpanRecord> TraceRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

size_t TraceRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

std::string TraceRecorder::ToJsonl() const {
  return RenderSpansJsonl(Snapshot());
}

Status TraceRecorder::WriteJsonl(const std::string& path) const {
  return internal::WriteStringToFile(path, ToJsonl());
}

namespace internal {
ThreadSpanState& ThreadState() {
  thread_local ThreadSpanState state;
  return state;
}

uint64_t CurrentSpanIdForLog() { return ThreadState().current_id; }
}  // namespace internal

ScopedSpan::ScopedSpan(const char* name) : name_(name) {
  TraceRecorder& recorder = TraceRecorder::Default();
  traced_ = recorder.enabled();
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
  id_ = recorder.NextSpanId();
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
  TraceRecorder::Default().Record(std::move(record));
}

}  // namespace obs
}  // namespace bolton
