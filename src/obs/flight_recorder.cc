#include "obs/flight_recorder.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iterator>

#include "obs/metrics.h"
#include "obs/telemetry.h"

namespace bolton {
namespace obs {

namespace internal {

void RawWrite(int fd, const char* data, size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
}

size_t FormatUint(uint64_t v, char* out) {
  char digits[20];
  size_t n = 0;
  do {
    digits[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  for (size_t i = 0; i < n; ++i) out[i] = digits[n - 1 - i];
  return n;
}

size_t FormatHex(uint64_t v, char* out) {
  static const char kHex[] = "0123456789abcdef";
  out[0] = '0';
  out[1] = 'x';
  char digits[16];
  size_t n = 0;
  do {
    digits[n++] = kHex[v & 0xf];
    v >>= 4;
  } while (v != 0);
  for (size_t i = 0; i < n; ++i) out[2 + i] = digits[n - 1 - i];
  return 2 + n;
}

}  // namespace internal

namespace {

/// Copies `text` into `out`, truncated to N - 1 bytes and NUL-terminated.
template <size_t N>
void CopyText(char (&out)[N], const char* text) {
  size_t i = 0;
  for (; i + 1 < N && text[i] != '\0'; ++i) out[i] = text[i];
  out[i] = '\0';
}

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// The PerfCounterDelta fields a span slot stores, in slot order.
constexpr uint64_t PerfCounterDelta::*kCounterFields[] = {
    &PerfCounterDelta::cycles,          &PerfCounterDelta::instructions,
    &PerfCounterDelta::cache_references, &PerfCounterDelta::cache_misses,
    &PerfCounterDelta::branch_misses,   &PerfCounterDelta::task_clock_ns};

}  // namespace

FlightRecorder& FlightRecorder::Default() {
  // Leaked, and self-registering: touching Default() is all a process has
  // to do to get crash-time log retention.
  static FlightRecorder* recorder = [] {
    auto* r = new FlightRecorder();
    AddLogSink(r);
    return r;
  }();
  return *recorder;
}

void FlightRecorder::Write(const LogEvent& event) {
  LogEntry entry{};
  entry.mono_ns = event.mono_ns;
  entry.level = static_cast<uint64_t>(event.level);
  entry.thread_id = event.thread_id;
  entry.span_id = event.span_id;
  entry.line = event.line;
  CopyText(entry.thread_name, event.thread_name);
  CopyText(entry.file, event.file);
  // The event's message pointer is only valid for this call; the ring's
  // copy (truncated to the slot width) is what survives.
  CopyText(entry.message, event.message);
  logs_.Append(entry);

  // Piggyback the periodic metrics snapshot on the log path: no poller
  // thread, and a process that logs at all keeps its snapshot fresh to
  // within kMetricSnapshotPeriodNs.
  const uint64_t now = MonotonicNanos();
  const uint64_t last = last_snapshot_ns_.load(std::memory_order_relaxed);
  if (last == 0 || now - last >= kMetricSnapshotPeriodNs) {
    uint64_t expected = last;
    if (last_snapshot_ns_.compare_exchange_strong(
            expected, now | 1, std::memory_order_relaxed,
            std::memory_order_relaxed)) {
      SnapshotMetricsNow();
    }
  }
}

void FlightRecorder::RecordSpan(const SpanRecord& record) {
  SpanEntry entry{};
  entry.id = record.id;
  entry.parent_id = record.parent_id;
  entry.depth = static_cast<uint64_t>(record.depth);
  entry.start_ns = record.start_ns;
  entry.duration_ns = record.duration_ns;
  entry.thread_id = record.thread_id;
  entry.counter_flags =
      (record.has_counters ? 1u : 0u) | (record.counters.available ? 2u : 0u);
  for (size_t i = 0; i < std::size(kCounterFields); ++i) {
    entry.counters[i] = record.counters.*kCounterFields[i];
  }
  CopyText(entry.name, record.name.c_str());
  CopyText(entry.thread_name, record.thread_name.c_str());
  spans_.Append(entry);
}

void FlightRecorder::SnapshotMetricsNow() {
  const MetricsSnapshot snapshot = MetricsRegistry::Default().Snapshot();
  const uint32_t next =
      1u - active_metric_buffer_.load(std::memory_order_relaxed);
  MetricBuffer& buf = metric_buffers_[next];
  uint64_t n = 0;
  auto add = [&](const std::string& name, char kind, uint64_t bits) {
    if (n >= kMetricEntries) return;
    MetricEntry entry{};
    CopyText(entry.name, name.c_str());
    entry.kind = static_cast<uint64_t>(kind);
    entry.value_bits = bits;
    buf.entries[n++].Store(entry);
  };
  for (const auto& [name, value] : snapshot.counters) add(name, 'c', value);
  for (const auto& [name, value] : snapshot.gauges) {
    add(name, 'g', DoubleBits(value));
  }
  buf.count.store(n, std::memory_order_relaxed);
  active_metric_buffer_.store(next, std::memory_order_release);
}

std::vector<RecordedLogEvent> FlightRecorder::RecentLogs(
    size_t max, LogLevel min_level) const {
  std::vector<RecordedLogEvent> out;
  logs_.ForEach([&](uint64_t seq, const LogEntry& entry) {
    const LogLevel level = static_cast<LogLevel>(entry.level);
    if (level < min_level) return;
    RecordedLogEvent event;
    event.seq = seq;
    event.mono_ns = entry.mono_ns;
    event.level = level;
    event.thread_id = entry.thread_id;
    event.span_id = entry.span_id;
    event.line = static_cast<int>(entry.line);
    event.thread_name = entry.thread_name;
    event.file = entry.file;
    event.message = entry.message;
    out.push_back(std::move(event));
  });
  if (out.size() > max) out.erase(out.begin(), out.end() - max);
  return out;
}

std::vector<SpanRecord> FlightRecorder::RecentSpans(size_t max) const {
  std::vector<SpanRecord> out;
  spans_.ForEach([&](uint64_t, const SpanEntry& entry) {
    SpanRecord span;
    span.id = entry.id;
    span.parent_id = entry.parent_id;
    span.depth = static_cast<int>(entry.depth);
    span.start_ns = entry.start_ns;
    span.duration_ns = entry.duration_ns;
    span.thread_id = entry.thread_id;
    span.has_counters = (entry.counter_flags & 1) != 0;
    span.counters.available = (entry.counter_flags & 2) != 0;
    for (size_t i = 0; i < std::size(kCounterFields); ++i) {
      span.counters.*kCounterFields[i] = entry.counters[i];
    }
    span.name = entry.name;
    span.thread_name = entry.thread_name;
    out.push_back(std::move(span));
  });
  if (out.size() > max) out.erase(out.begin(), out.end() - max);
  return out;
}

void FlightRecorder::WriteRawTo(int fd) const {
  internal::LineBuilder line;
  auto stats_line = [&](const char* tag, const RingStats& stats) {
    line.Text("flstats ");
    line.Text(tag);
    line.Uint(stats.capacity);
    line.Text(" ");
    line.Uint(stats.appended);
    line.Text(" ");
    line.Uint(stats.dropped);
    line.Flush(fd);
  };
  stats_line("logs ", logs_.Stats());
  stats_line("spans ", spans_.Stats());

  logs_.ForEach([&](uint64_t seq, const LogEntry& entry) {
    line.Text("fllog ");
    line.Uint(seq);
    line.Text(" ");
    line.Uint(entry.mono_ns);
    line.Text(" ");
    line.Text(LogLevelTag(static_cast<LogLevel>(entry.level)));
    line.Text(" ");
    line.Uint(entry.thread_id);
    line.Text(" ");
    line.Uint(entry.span_id);
    line.Text(" ");
    line.Uint(static_cast<uint64_t>(entry.line));
    line.Text(" ");
    line.Token(entry.thread_name);
    line.Text(" ");
    line.Token(entry.file);
    line.Text(" |");
    line.Message(entry.message);
    line.Flush(fd);
  });

  spans_.ForEach([&](uint64_t, const SpanEntry& entry) {
    line.Text("flspan");
    for (const uint64_t field :
         {entry.id, entry.parent_id, entry.depth, entry.start_ns,
          entry.duration_ns, entry.thread_id, entry.counter_flags}) {
      line.Text(" ");
      line.Uint(field);
    }
    for (const uint64_t counter : entry.counters) {
      line.Text(" ");
      line.Uint(counter);
    }
    line.Text(" ");
    line.Token(entry.thread_name);
    line.Text(" ");
    line.Token(entry.name);
    line.Flush(fd);
  });

  const MetricBuffer& buf =
      metric_buffers_[active_metric_buffer_.load(std::memory_order_acquire)];
  const uint64_t n = buf.count.load(std::memory_order_relaxed);
  for (uint64_t i = 0; i < n && i < kMetricEntries; ++i) {
    const MetricEntry entry = buf.entries[i].Load();
    if (entry.kind == 0) continue;
    line.Text("flmetric ");
    const char kind_text[2] = {static_cast<char>(entry.kind), '\0'};
    line.Text(kind_text);
    line.Text(" ");
    line.Hex(entry.value_bits);
    line.Text(" ");
    line.Token(entry.name);
    line.Flush(fd);
  }
}

}  // namespace obs
}  // namespace bolton
