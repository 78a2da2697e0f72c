#ifndef BOLTON_OBS_EXPORT_H_
#define BOLTON_OBS_EXPORT_H_

#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace bolton {
namespace obs {

/// One rendering path for every telemetry surface. The CLI dump, the JSONL
/// file exporters, and the HTTP observability endpoints all serialize the
/// same snapshot types through the functions here, so a metric can never
/// print one value on the console and a different one on a scrape.

/// -------- Metrics --------

/// Aligned human-readable dump (the `--metrics` console format).
std::string RenderMetricsText(const MetricsSnapshot& snapshot);

/// Prometheus text exposition format (version 0.0.4): counters and gauges
/// as single samples, histograms as cumulative `_bucket{le="..."}` series
/// ending in `le="+Inf"` plus `_sum`/`_count`, and derived p50/p95/p99
/// gauges estimated from the buckets. Metric names are sanitized to the
/// Prometheus charset ('.' and any other illegal byte become '_').
std::string RenderPrometheus(const MetricsSnapshot& snapshot);

/// "psgd.pass_seconds" -> "psgd_pass_seconds".
std::string PrometheusName(const std::string& name);

/// Quantile estimate (q in [0,1]) from cumulative histogram buckets with
/// linear interpolation inside the owning bucket. Observations in the +Inf
/// overflow bucket clamp to the largest finite bound; an empty histogram
/// yields 0.
double HistogramQuantile(const MetricsSnapshot::HistogramData& histogram,
                         double q);

/// -------- Privacy ledger --------

/// One ledger event as a single-line JSON object (no trailing newline).
std::string RenderLedgerEventJson(const LedgerEvent& event);

/// One JSON object per line, in record order.
std::string RenderLedgerJsonl(const std::vector<LedgerEvent>& events);

/// -------- Profiles --------

/// Brendan Gregg collapsed-stack format: one line per distinct stack,
/// root-first frames joined by ';', a space, then the sample count —
/// pipeable straight into flamegraph.pl. Semicolons inside demangled frame
/// names are rewritten to ',' so they cannot split a frame.
std::string RenderCollapsed(const ProfileDump& dump);

/// Aggregated top-N-frames JSON (schema "boltondp-profile-v1"): run
/// metadata (hz, samples, dropped, duration, symbolization fractions) plus
/// the `top_n` hottest frames by self time, each with self/total sample
/// counts and percentages. Self time = samples where the frame is the leaf;
/// total = samples where it appears anywhere (once per sample).
std::string RenderProfileSummaryJson(const ProfileDump& dump, size_t top_n);

/// -------- Hardware counters --------

/// A PerfCounterDelta as a single-line JSON object (no trailing newline).
/// When `available`, carries the raw counts plus derived ipc /
/// cache_miss_rate / branch_miss_rate; otherwise
/// {"available":false,"task_clock_ns":N} so a counter-less environment is
/// explicit rather than a missing field.
std::string RenderPerfCountersJson(const PerfCounterDelta& delta);

/// -------- Trace spans --------

/// One span as a single-line JSON object (no trailing newline).
std::string RenderSpanJson(const SpanRecord& span);

/// One JSON object per line, in completion order.
std::string RenderSpansJsonl(const std::vector<SpanRecord>& spans);

/// -------- Flight recorder --------

/// One retained log event as a single-line JSON object, rendered by the
/// --log-jsonl file sink's RenderLogEventJson (util/logging.h), so /logz
/// output and the JSONL file are interchangeable:
///   {"mono_ns":N,"level":"I","tid":1,"thread":"main","file":"x.cc",
///    "line":7,"span":0,"msg":"..."}
std::string RenderRecordedLogJson(const RecordedLogEvent& event);

/// One JSON object per line, oldest first (the /logz payload).
std::string RenderRecordedLogsJsonl(const std::vector<RecordedLogEvent>& events);

/// One snapshot metric as a single-line JSON object (no trailing newline).
std::string RenderRecordedMetricJson(const RecordedMetric& metric);

/// A ring's {"capacity":N,"appended":N,"dropped":N} object (the
/// postmortem's log_ring and span_ring).
std::string RenderRingStatsJson(const RingStats& stats);

/// Chrome trace-event JSON (the array form): "M" metadata events naming
/// the process and each thread track, then one "X" complete event per
/// span (ts/dur in microseconds, tid = the span's thread_id) with count
/// and any attached counter delta in `args`. Loadable in chrome://tracing
/// and ui.perfetto.dev.
std::string RenderChromeTrace(const std::vector<SpanRecord>& spans);

}  // namespace obs
}  // namespace bolton

#endif  // BOLTON_OBS_EXPORT_H_
