#include "obs/export.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>

#include "util/json.h"
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
  JsonWriter w;
  w.BeginObject().Field("seq", e.seq).Field("time_ns", e.time_ns);
  w.Field("kind", e.kind).Field("mechanism", e.mechanism);
  w.Field("label", e.label).Field("tenant", e.tenant);
  w.Field("epsilon", e.epsilon).Field("delta", e.delta);
  w.Field("sensitivity", e.sensitivity).Field("noise_scale", e.noise_scale);
  w.Field("noise_norm", e.noise_norm).Field("dim", e.dim);
  w.Field("step", e.step).Field("shards", e.shards);
  w.Field("rng_fingerprint", e.rng_fingerprint).Field("accepted", e.accepted);
  return w.EndObject().str();
}

std::string RenderLedgerJsonl(const std::vector<LedgerEvent>& events) {
  std::string out;
  for (const LedgerEvent& e : events) {
    out += RenderLedgerEventJson(e);
    out += '\n';
  }
  return out;
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
  JsonWriter w;
  w.BeginObject().Field("schema", "boltondp-profile-v1").Field("hz", dump.hz);
  w.Field("samples", dump.samples).Field("dropped", dump.dropped);
  w.Field("duration_ns", dump.duration_ns);
  w.Key("leaf_symbolized_pct").Fixed(100.0 * dump.leaf_symbolized_fraction, 2);
  w.Key("any_symbolized_pct").Fixed(100.0 * dump.any_symbolized_fraction, 2);
  w.Key("frames").BeginArray();
  for (const auto& [name, agg] : ranked) {
    w.BeginObject().Field("name", name).Field("self", agg.self);
    w.Key("self_pct").Fixed(100.0 * static_cast<double>(agg.self) / total, 2);
    w.Field("total", agg.total);
    w.Key("total_pct").Fixed(100.0 * static_cast<double>(agg.total) / total, 2);
    w.EndObject();
  }
  return w.EndArray().EndObject().str();
}

std::string RenderPerfCountersJson(const PerfCounterDelta& d) {
  JsonWriter w;
  w.BeginObject().Field("available", d.available);
  if (d.available) {
    w.Field("cycles", d.cycles).Field("instructions", d.instructions);
    w.Field("cache_references", d.cache_references);
    w.Field("cache_misses", d.cache_misses);
    w.Field("branch_misses", d.branch_misses);
  }
  w.Field("task_clock_ns", d.task_clock_ns);
  if (d.available) {
    w.Key("ipc").Fixed(d.Ipc(), 4);
    w.Key("cache_miss_rate").Fixed(d.CacheMissRate(), 6);
    w.Key("branch_miss_rate").Fixed(d.BranchMissRate(), 6);
  }
  return w.EndObject().str();
}

std::string RenderSpanJson(const SpanRecord& s) {
  JsonWriter w;
  w.BeginObject().Field("name", s.name).Field("id", s.id);
  w.Field("parent", s.parent_id).Field("depth", s.depth);
  w.Field("start_ns", s.start_ns).Field("dur_ns", s.duration_ns);
  w.Field("count", s.count).Field("thread", s.thread_id);
  w.Field("thread_name", s.thread_name);
  if (s.has_counters) w.Key("counters").Raw(RenderPerfCountersJson(s.counters));
  return w.EndObject().str();
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

std::string RenderRecordedMetricJson(const RecordedMetric& m) {
  JsonWriter w;
  w.BeginObject().Field("name", m.name);
  w.Field("kind", std::string_view(&m.kind, 1)).Field("value", m.value);
  return w.EndObject().str();
}

std::string RenderRingStatsJson(const RingStats& stats) {
  JsonWriter w;
  w.BeginObject().Field("capacity", stats.capacity);
  w.Field("appended", stats.appended).Field("dropped", stats.dropped);
  return w.EndObject().str();
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
  // One event per line: the array stays JSON and diffs line by line.
  std::string out = "[";
  auto append = [&out](const JsonWriter& event) {
    if (out.size() > 1) out += ",\n";
    out += event.str();
  };
  JsonWriter process;
  process.BeginObject().Field("ph", "M").Field("pid", 1);
  process.Field("name", "process_name").Key("args").BeginObject();
  append(process.Field("name", "boltondp").EndObject().EndObject());
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
    JsonWriter event;
    event.BeginObject().Field("ph", "M").Field("pid", 1);
    event.Field("tid", s.thread_id).Field("name", "thread_name");
    event.Key("args").BeginObject().Field("name", name).EndObject();
    append(event.EndObject());
  }
  for (const SpanRecord& s : spans) {
    JsonWriter event;
    event.BeginObject().Field("ph", "X").Field("pid", 1);
    event.Field("tid", s.thread_id).Field("name", s.name);
    event.Key("ts").Fixed(static_cast<double>(s.start_ns) / 1000.0, 3);
    event.Key("dur").Fixed(static_cast<double>(s.duration_ns) / 1000.0, 3);
    event.Key("args").BeginObject().Field("count", s.count);
    if (s.has_counters) {
      event.Key("counters").Raw(RenderPerfCountersJson(s.counters));
    }
    append(event.EndObject().EndObject());
  }
  out += "]\n";
  return out;
}

}  // namespace obs
}  // namespace bolton
