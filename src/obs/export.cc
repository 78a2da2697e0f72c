#include "obs/export.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>

#include "obs/telemetry.h"
#include "util/logging.h"
#include "util/strings.h"

namespace bolton {
namespace obs {

std::string RenderMetricsText(const MetricsSnapshot& snapshot) {
  std::string out = "# counters\n";
  for (const auto& [name, value] : snapshot.counters) {
    out += StrFormat("%-40s %llu\n", name.c_str(),
                     static_cast<unsigned long long>(value));
  }
  out += "# gauges\n";
  for (const auto& [name, value] : snapshot.gauges) {
    out += StrFormat("%-40s %g\n", name.c_str(), value);
  }
  out += "# histograms\n";
  for (const MetricsSnapshot::HistogramData& h : snapshot.histograms) {
    out += StrFormat("%-40s count=%llu sum=%.9g\n", h.name.c_str(),
                     static_cast<unsigned long long>(h.count), h.sum);
    for (size_t i = 0; i < h.bucket_counts.size(); ++i) {
      const std::string edge =
          i < h.bounds.size() ? StrFormat("%g", h.bounds[i]) : "+inf";
      out += StrFormat("  le=%-12s %llu\n", edge.c_str(),
                       static_cast<unsigned long long>(h.bucket_counts[i]));
    }
  }
  return out;
}

std::string PrometheusName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
        c == ':';
    const bool digit = c >= '0' && c <= '9';
    out += (alpha || (digit && i > 0)) ? c : '_';
  }
  if (out.empty()) out = "_";
  return out;
}

double HistogramQuantile(const MetricsSnapshot::HistogramData& histogram,
                         double q) {
  if (histogram.count == 0 || histogram.bucket_counts.empty()) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double rank = q * static_cast<double>(histogram.count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < histogram.bucket_counts.size(); ++i) {
    const uint64_t in_bucket = histogram.bucket_counts[i];
    if (in_bucket == 0) continue;
    const uint64_t next = cumulative + in_bucket;
    if (static_cast<double>(next) >= rank) {
      if (i >= histogram.bounds.size()) {
        // Overflow bucket: no finite upper edge, clamp to the largest bound.
        return histogram.bounds.empty() ? 0.0 : histogram.bounds.back();
      }
      const double lower = i == 0 ? 0.0 : histogram.bounds[i - 1];
      const double upper = histogram.bounds[i];
      const double within =
          (rank - static_cast<double>(cumulative)) / in_bucket;
      return lower + (upper - lower) * within;
    }
    cumulative = next;
  }
  return histogram.bounds.empty() ? 0.0 : histogram.bounds.back();
}

std::string RenderPrometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string prom = PrometheusName(name);
    out += StrFormat("# TYPE %s counter\n%s %llu\n", prom.c_str(),
                     prom.c_str(), static_cast<unsigned long long>(value));
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string prom = PrometheusName(name);
    out += StrFormat("# TYPE %s gauge\n%s %.17g\n", prom.c_str(),
                     prom.c_str(), value);
  }
  for (const MetricsSnapshot::HistogramData& h : snapshot.histograms) {
    const std::string prom = PrometheusName(h.name);
    out += StrFormat("# TYPE %s histogram\n", prom.c_str());
    uint64_t cumulative = 0;
    for (size_t i = 0; i < h.bucket_counts.size(); ++i) {
      cumulative += h.bucket_counts[i];
      const std::string edge =
          i < h.bounds.size() ? StrFormat("%g", h.bounds[i]) : "+Inf";
      out += StrFormat("%s_bucket{le=\"%s\"} %llu\n", prom.c_str(),
                       edge.c_str(),
                       static_cast<unsigned long long>(cumulative));
    }
    out += StrFormat("%s_sum %.17g\n", prom.c_str(), h.sum);
    out += StrFormat("%s_count %llu\n", prom.c_str(),
                     static_cast<unsigned long long>(h.count));
    for (const auto& [suffix, q] :
         {std::pair<const char*, double>{"p50", 0.50},
          {"p95", 0.95},
          {"p99", 0.99}}) {
      out += StrFormat("# TYPE %s_%s gauge\n%s_%s %.17g\n", prom.c_str(),
                       suffix, prom.c_str(), suffix,
                       HistogramQuantile(h, q));
    }
  }
  return out;
}

std::string RenderLedgerEventJson(const LedgerEvent& e) {
  return StrFormat(
      "{\"seq\":%llu,\"time_ns\":%llu,\"kind\":\"%s\",\"mechanism\":\"%s\","
      "\"label\":\"%s\",\"tenant\":\"%s\",\"epsilon\":%.17g,\"delta\":%.17g,"
      "\"sensitivity\":%.17g,\"noise_scale\":%.17g,\"noise_norm\":%.17g,"
      "\"dim\":%llu,\"step\":%llu,\"shards\":%llu,"
      "\"rng_fingerprint\":%llu,\"accepted\":%s}",
      static_cast<unsigned long long>(e.seq),
      static_cast<unsigned long long>(e.time_ns), JsonEscape(e.kind).c_str(),
      JsonEscape(e.mechanism).c_str(), JsonEscape(e.label).c_str(),
      JsonEscape(e.tenant).c_str(), e.epsilon,
      e.delta, e.sensitivity, e.noise_scale, e.noise_norm,
      static_cast<unsigned long long>(e.dim),
      static_cast<unsigned long long>(e.step),
      static_cast<unsigned long long>(e.shards),
      static_cast<unsigned long long>(e.rng_fingerprint),
      e.accepted ? "true" : "false");
}

std::string RenderLedgerJsonl(const std::vector<LedgerEvent>& events) {
  std::string out;
  for (const LedgerEvent& e : events) {
    out += RenderLedgerEventJson(e);
    out += '\n';
  }
  return out;
}

LedgerTotals SummarizeLedger(const std::vector<LedgerEvent>& events) {
  LedgerTotals totals;
  totals.events = events.size();
  for (const LedgerEvent& e : events) {
    if (!e.accepted) ++totals.rejected;
    if (e.kind == "noise_draw") {
      ++totals.noise_draws;
    } else if (e.kind == "accountant_charge") {
      ++totals.charges;
      if (e.accepted) {
        totals.epsilon_charged += e.epsilon;
        totals.delta_charged += e.delta;
      }
    } else if (e.kind == "calibration") {
      ++totals.calibrations;
    }
  }
  return totals;
}

std::string RenderCollapsed(const ProfileDump& dump) {
  std::string out;
  for (const ProfileStack& stack : dump.stacks) {
    std::string line;
    for (const std::string& frame : stack.frames) {
      if (!line.empty()) line += ';';
      for (char c : frame) line += c == ';' ? ',' : c;
    }
    out += line;
    out += StrFormat(" %llu\n", static_cast<unsigned long long>(stack.count));
  }
  return out;
}

std::string RenderProfileSummaryJson(const ProfileDump& dump, size_t top_n) {
  // Per-frame self/total sample counts over the aggregated stacks.
  struct FrameAgg {
    uint64_t self = 0;
    uint64_t total = 0;
  };
  std::map<std::string, FrameAgg> frames;
  for (const ProfileStack& stack : dump.stacks) {
    std::map<std::string, bool> seen;  // count a frame once per stack
    for (const std::string& frame : stack.frames) {
      if (seen.emplace(frame, true).second) frames[frame].total += stack.count;
    }
    if (!stack.frames.empty()) frames[stack.frames.back()].self += stack.count;
  }
  std::vector<std::pair<std::string, FrameAgg>> ranked(frames.begin(),
                                                       frames.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second.self != b.second.self) return a.second.self > b.second.self;
    if (a.second.total != b.second.total) return a.second.total > b.second.total;
    return a.first < b.first;
  });
  if (ranked.size() > top_n) ranked.resize(top_n);

  const double total =
      dump.samples > 0 ? static_cast<double>(dump.samples) : 1.0;
  std::string out = StrFormat(
      "{\"schema\":\"boltondp-profile-v1\",\"hz\":%d,\"samples\":%llu,"
      "\"dropped\":%llu,\"duration_ns\":%llu,"
      "\"leaf_symbolized_pct\":%.2f,\"any_symbolized_pct\":%.2f,"
      "\"frames\":[",
      dump.hz, static_cast<unsigned long long>(dump.samples),
      static_cast<unsigned long long>(dump.dropped),
      static_cast<unsigned long long>(dump.duration_ns),
      100.0 * dump.leaf_symbolized_fraction,
      100.0 * dump.any_symbolized_fraction);
  bool first = true;
  for (const auto& [name, agg] : ranked) {
    if (!first) out += ",";
    first = false;
    out += StrFormat(
        "{\"name\":\"%s\",\"self\":%llu,\"self_pct\":%.2f,"
        "\"total\":%llu,\"total_pct\":%.2f}",
        JsonEscape(name).c_str(), static_cast<unsigned long long>(agg.self),
        100.0 * static_cast<double>(agg.self) / total,
        static_cast<unsigned long long>(agg.total),
        100.0 * static_cast<double>(agg.total) / total);
  }
  out += "]}";
  return out;
}

std::string RenderPerfCountersJson(const PerfCounterDelta& d) {
  if (!d.available) {
    return StrFormat("{\"available\":false,\"task_clock_ns\":%llu}",
                     static_cast<unsigned long long>(d.task_clock_ns));
  }
  return StrFormat(
      "{\"available\":true,\"cycles\":%llu,\"instructions\":%llu,"
      "\"cache_references\":%llu,\"cache_misses\":%llu,"
      "\"branch_misses\":%llu,\"task_clock_ns\":%llu,"
      "\"ipc\":%.4f,\"cache_miss_rate\":%.6f,\"branch_miss_rate\":%.6f}",
      static_cast<unsigned long long>(d.cycles),
      static_cast<unsigned long long>(d.instructions),
      static_cast<unsigned long long>(d.cache_references),
      static_cast<unsigned long long>(d.cache_misses),
      static_cast<unsigned long long>(d.branch_misses),
      static_cast<unsigned long long>(d.task_clock_ns), d.Ipc(),
      d.CacheMissRate(), d.BranchMissRate());
}

std::string RenderSpanJson(const SpanRecord& s) {
  std::string out = StrFormat(
      "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"depth\":%d,"
      "\"start_ns\":%llu,\"dur_ns\":%llu,\"count\":%llu,\"thread\":%llu,"
      "\"thread_name\":\"%s\"",
      JsonEscape(s.name).c_str(), static_cast<unsigned long long>(s.id),
      static_cast<unsigned long long>(s.parent_id), s.depth,
      static_cast<unsigned long long>(s.start_ns),
      static_cast<unsigned long long>(s.duration_ns),
      static_cast<unsigned long long>(s.count),
      static_cast<unsigned long long>(s.thread_id),
      JsonEscape(s.thread_name).c_str());
  if (s.has_counters) {
    out += ",\"counters\":";
    out += RenderPerfCountersJson(s.counters);
  }
  out += '}';
  return out;
}

std::string RenderRecordedLogJson(const RecordedLogEvent& e) {
  LogEvent event;
  event.level = e.level;
  event.mono_ns = e.mono_ns;
  event.thread_id = e.thread_id;
  event.thread_name = e.thread_name.c_str();
  event.file = e.file.c_str();
  event.line = e.line;
  event.span_id = e.span_id;
  event.message = e.message.data();
  event.message_len = e.message.size();
  return RenderLogEventJson(event);
}

std::string RenderRecordedLogsJsonl(
    const std::vector<RecordedLogEvent>& events) {
  std::string out;
  for (const RecordedLogEvent& e : events) {
    out += RenderRecordedLogJson(e);
    out += '\n';
  }
  return out;
}

std::string RenderRecordedSpanJson(const RecordedSpan& s) {
  return StrFormat(
      "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"start_ns\":%llu,"
      "\"dur_ns\":%llu,\"count\":%llu,\"thread\":%llu,"
      "\"thread_name\":\"%s\"}",
      JsonEscape(s.name).c_str(), static_cast<unsigned long long>(s.id),
      static_cast<unsigned long long>(s.parent_id),
      static_cast<unsigned long long>(s.start_ns),
      static_cast<unsigned long long>(s.duration_ns),
      static_cast<unsigned long long>(s.count),
      static_cast<unsigned long long>(s.thread_id),
      JsonEscape(s.thread_name).c_str());
}

std::string RenderRecordedMetricJson(const RecordedMetric& m) {
  return StrFormat("{\"name\":\"%s\",\"kind\":\"%c\",\"value\":%.17g}",
                   JsonEscape(m.name).c_str(), m.kind, m.value);
}

std::string RenderFlightRecorderJson(const FlightRecorder& recorder) {
  const RingStats logs = recorder.LogRingStats();
  const RingStats spans = recorder.SpanRingStats();
  std::string out = StrFormat(
      "{\"schema\":\"bolton-flightrecorder-v1\","
      "\"log_ring\":{\"capacity\":%llu,\"appended\":%llu,\"dropped\":%llu},"
      "\"span_ring\":{\"capacity\":%llu,\"appended\":%llu,\"dropped\":%llu},"
      "\"metrics_mono_ns\":%llu",
      static_cast<unsigned long long>(logs.capacity),
      static_cast<unsigned long long>(logs.appended),
      static_cast<unsigned long long>(logs.dropped),
      static_cast<unsigned long long>(spans.capacity),
      static_cast<unsigned long long>(spans.appended),
      static_cast<unsigned long long>(spans.dropped),
      static_cast<unsigned long long>(recorder.LatestMetricsTimestampNs()));
  out += ",\"recent_logs\":[";
  bool first = true;
  for (const RecordedLogEvent& e :
       recorder.RecentLogs(FlightRecorder::kLogSlots, LogLevel::kDebug)) {
    if (!first) out += ',';
    first = false;
    out += RenderRecordedLogJson(e);
  }
  out += "],\"recent_spans\":[";
  first = true;
  for (const RecordedSpan& s :
       recorder.RecentSpans(FlightRecorder::kSpanSlots)) {
    if (!first) out += ',';
    first = false;
    out += RenderRecordedSpanJson(s);
  }
  out += "],\"metrics\":[";
  first = true;
  for (const RecordedMetric& m : recorder.LatestMetrics()) {
    if (!first) out += ',';
    first = false;
    out += RenderRecordedMetricJson(m);
  }
  out += "]}";
  return out;
}

std::string RenderSpansJsonl(const std::vector<SpanRecord>& spans) {
  std::string out;
  for (const SpanRecord& s : spans) {
    out += RenderSpanJson(s);
    out += '\n';
  }
  return out;
}

std::string RenderChromeTrace(const std::vector<SpanRecord>& spans) {
  std::string out = "[";
  bool first = true;
  auto append = [&out, &first](const std::string& event) {
    if (!first) out += ",\n";
    first = false;
    out += event;
  };
  append(
      "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
      "\"args\":{\"name\":\"boltondp\"}}");
  // One thread_name metadata event per distinct (tid, name) pair, in first-
  // seen order: a pool worker legitimately carries several names over its
  // lifetime (its own bolton-pool-N plus one psgd-shard-N per slice it ran),
  // and every name must be discoverable in the trace. Viewers that keep one
  // label per track use the last metadata event; the span data is keyed by
  // tid either way.
  std::set<std::pair<uint64_t, std::string>> seen_names;
  for (const SpanRecord& s : spans) {
    const std::string name = s.thread_name.empty() ? "thread" : s.thread_name;
    if (!seen_names.insert({s.thread_id, name}).second) continue;
    append(StrFormat(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":%llu,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"%s\"}}",
        static_cast<unsigned long long>(s.thread_id),
        JsonEscape(name).c_str()));
  }
  for (const SpanRecord& s : spans) {
    std::string event = StrFormat(
        "{\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"name\":\"%s\","
        "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"count\":%llu",
        static_cast<unsigned long long>(s.thread_id),
        JsonEscape(s.name).c_str(),
        static_cast<double>(s.start_ns) / 1000.0,
        static_cast<double>(s.duration_ns) / 1000.0,
        static_cast<unsigned long long>(s.count));
    if (s.has_counters) {
      event += ",\"counters\":";
      event += RenderPerfCountersJson(s.counters);
    }
    event += "}}";
    append(event);
  }
  out += "]\n";
  return out;
}

}  // namespace obs
}  // namespace bolton
