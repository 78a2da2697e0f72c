#include "obs/flight_recorder.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>

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

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

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
  const uint64_t seq = logs_appended_.fetch_add(1, std::memory_order_relaxed);
  LogSlot& slot = log_slots_[seq % kLogSlots];
  uint64_t gen = slot.gen.load(std::memory_order_relaxed);
  if ((gen & 1) != 0 ||
      !slot.gen.compare_exchange_strong(gen, gen + 1,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
    // Another writer owns this slot right now; drop rather than block.
    logs_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  slot.seq.store(seq, std::memory_order_relaxed);
  slot.mono_ns.store(event.mono_ns, std::memory_order_relaxed);
  slot.level.store(static_cast<uint64_t>(event.level),
                   std::memory_order_relaxed);
  slot.thread_id.store(event.thread_id, std::memory_order_relaxed);
  slot.span_id.store(event.span_id, std::memory_order_relaxed);
  slot.line.store(event.line, std::memory_order_relaxed);
  slot.thread_name.Store(event.thread_name);
  slot.file.Store(event.file);
  // The event's message pointer is only valid for this call; the ring's
  // copy (truncated to the slot width) is what survives.
  slot.message.Store(event.message);
  slot.gen.store(gen + 2, std::memory_order_release);

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
  const uint64_t seq =
      spans_appended_.fetch_add(1, std::memory_order_relaxed);
  SpanSlot& slot = span_slots_[seq % kSpanSlots];
  uint64_t gen = slot.gen.load(std::memory_order_relaxed);
  if ((gen & 1) != 0 ||
      !slot.gen.compare_exchange_strong(gen, gen + 1,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
    spans_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  slot.seq.store(seq, std::memory_order_relaxed);
  slot.id.store(record.id, std::memory_order_relaxed);
  slot.parent_id.store(record.parent_id, std::memory_order_relaxed);
  slot.start_ns.store(record.start_ns, std::memory_order_relaxed);
  slot.duration_ns.store(record.duration_ns, std::memory_order_relaxed);
  slot.count.store(record.count, std::memory_order_relaxed);
  slot.thread_id.store(record.thread_id, std::memory_order_relaxed);
  slot.name.Store(record.name.c_str());
  slot.thread_name.Store(record.thread_name.c_str());
  slot.gen.store(gen + 2, std::memory_order_release);
}

void FlightRecorder::SnapshotMetricsNow() {
  const MetricsSnapshot snapshot = MetricsRegistry::Default().Snapshot();
  const uint32_t next =
      1u - active_metric_buffer_.load(std::memory_order_relaxed);
  MetricBuffer& buf = metric_buffers_[next];
  uint64_t n = 0;
  for (const auto& [name, value] : snapshot.counters) {
    if (n >= kMetricEntries) break;
    buf.entries[n].name.Store(name.c_str());
    buf.entries[n].kind.store('c', std::memory_order_relaxed);
    buf.entries[n].value_bits.store(value, std::memory_order_relaxed);
    ++n;
  }
  for (const auto& [name, value] : snapshot.gauges) {
    if (n >= kMetricEntries) break;
    buf.entries[n].name.Store(name.c_str());
    buf.entries[n].kind.store('g', std::memory_order_relaxed);
    buf.entries[n].value_bits.store(DoubleBits(value),
                                    std::memory_order_relaxed);
    ++n;
  }
  buf.count.store(n, std::memory_order_relaxed);
  buf.mono_ns.store(MonotonicNanos(), std::memory_order_relaxed);
  active_metric_buffer_.store(next, std::memory_order_release);
}

std::vector<RecordedLogEvent> FlightRecorder::RecentLogs(
    size_t max, LogLevel min_level) const {
  const uint64_t appended = logs_appended_.load(std::memory_order_acquire);
  const uint64_t begin = appended > kLogSlots ? appended - kLogSlots : 0;
  std::vector<RecordedLogEvent> out;
  for (uint64_t seq = begin; seq < appended; ++seq) {
    const LogSlot& slot = log_slots_[seq % kLogSlots];
    const uint64_t gen1 = slot.gen.load(std::memory_order_acquire);
    if ((gen1 & 1) != 0) continue;  // mid-write; skip, never wait
    RecordedLogEvent event;
    event.seq = slot.seq.load(std::memory_order_relaxed);
    event.mono_ns = slot.mono_ns.load(std::memory_order_relaxed);
    event.level = static_cast<LogLevel>(
        slot.level.load(std::memory_order_relaxed));
    event.thread_id = slot.thread_id.load(std::memory_order_relaxed);
    event.span_id = slot.span_id.load(std::memory_order_relaxed);
    event.line =
        static_cast<int>(slot.line.load(std::memory_order_relaxed));
    char text[192];
    slot.thread_name.LoadTo(text);
    event.thread_name = text;
    slot.file.LoadTo(text);
    event.file = text;
    slot.message.LoadTo(text);
    event.message = text;
    const uint64_t gen2 = slot.gen.load(std::memory_order_acquire);
    if (gen1 != gen2 || event.seq != seq) continue;  // torn or lapped
    if (event.level < min_level) continue;
    out.push_back(std::move(event));
  }
  if (out.size() > max) out.erase(out.begin(), out.end() - max);
  return out;
}

std::vector<RecordedSpan> FlightRecorder::RecentSpans(size_t max) const {
  const uint64_t appended = spans_appended_.load(std::memory_order_acquire);
  const uint64_t begin = appended > kSpanSlots ? appended - kSpanSlots : 0;
  std::vector<RecordedSpan> out;
  for (uint64_t seq = begin; seq < appended; ++seq) {
    const SpanSlot& slot = span_slots_[seq % kSpanSlots];
    const uint64_t gen1 = slot.gen.load(std::memory_order_acquire);
    if ((gen1 & 1) != 0) continue;
    RecordedSpan span;
    const uint64_t slot_seq = slot.seq.load(std::memory_order_relaxed);
    span.id = slot.id.load(std::memory_order_relaxed);
    span.parent_id = slot.parent_id.load(std::memory_order_relaxed);
    span.start_ns = slot.start_ns.load(std::memory_order_relaxed);
    span.duration_ns = slot.duration_ns.load(std::memory_order_relaxed);
    span.count = slot.count.load(std::memory_order_relaxed);
    span.thread_id = slot.thread_id.load(std::memory_order_relaxed);
    char text[48];
    slot.name.LoadTo(text);
    span.name = text;
    slot.thread_name.LoadTo(text);
    span.thread_name = text;
    const uint64_t gen2 = slot.gen.load(std::memory_order_acquire);
    if (gen1 != gen2 || slot_seq != seq) continue;
    out.push_back(std::move(span));
  }
  if (out.size() > max) out.erase(out.begin(), out.end() - max);
  return out;
}

std::vector<RecordedMetric> FlightRecorder::LatestMetrics() const {
  const MetricBuffer& buf =
      metric_buffers_[active_metric_buffer_.load(std::memory_order_acquire)];
  const uint64_t n = buf.count.load(std::memory_order_relaxed);
  std::vector<RecordedMetric> out;
  out.reserve(n);
  for (uint64_t i = 0; i < n && i < kMetricEntries; ++i) {
    RecordedMetric metric;
    char name[48];
    buf.entries[i].name.LoadTo(name);
    metric.name = name;
    metric.kind = static_cast<char>(
        buf.entries[i].kind.load(std::memory_order_relaxed));
    const uint64_t bits =
        buf.entries[i].value_bits.load(std::memory_order_relaxed);
    metric.value = metric.kind == 'c' ? static_cast<double>(bits)
                                      : BitsToDouble(bits);
    out.push_back(std::move(metric));
  }
  return out;
}

uint64_t FlightRecorder::LatestMetricsTimestampNs() const {
  const MetricBuffer& buf =
      metric_buffers_[active_metric_buffer_.load(std::memory_order_acquire)];
  return buf.mono_ns.load(std::memory_order_relaxed);
}

RingStats FlightRecorder::LogRingStats() const {
  return RingStats{kLogSlots,
                   logs_appended_.load(std::memory_order_relaxed),
                   logs_dropped_.load(std::memory_order_relaxed)};
}

RingStats FlightRecorder::SpanRingStats() const {
  return RingStats{kSpanSlots,
                   spans_appended_.load(std::memory_order_relaxed),
                   spans_dropped_.load(std::memory_order_relaxed)};
}

void FlightRecorder::WriteRawTo(int fd) const {
  internal::LineBuilder line;

  line.Text("flstats logs ");
  line.Uint(kLogSlots);
  line.Text(" ");
  line.Uint(logs_appended_.load(std::memory_order_relaxed));
  line.Text(" ");
  line.Uint(logs_dropped_.load(std::memory_order_relaxed));
  line.Flush(fd);

  line.Text("flstats spans ");
  line.Uint(kSpanSlots);
  line.Text(" ");
  line.Uint(spans_appended_.load(std::memory_order_relaxed));
  line.Text(" ");
  line.Uint(spans_dropped_.load(std::memory_order_relaxed));
  line.Flush(fd);

  const uint64_t logs_end = logs_appended_.load(std::memory_order_acquire);
  const uint64_t logs_begin =
      logs_end > kLogSlots ? logs_end - kLogSlots : 0;
  for (uint64_t seq = logs_begin; seq < logs_end; ++seq) {
    const LogSlot& slot = log_slots_[seq % kLogSlots];
    const uint64_t gen1 = slot.gen.load(std::memory_order_acquire);
    if ((gen1 & 1) != 0) continue;
    if (slot.seq.load(std::memory_order_relaxed) != seq) continue;
    char text[192];
    line.Text("fllog ");
    line.Uint(seq);
    line.Text(" ");
    line.Uint(slot.mono_ns.load(std::memory_order_relaxed));
    line.Text(" ");
    line.Text(LogLevelTag(static_cast<LogLevel>(
        slot.level.load(std::memory_order_relaxed))));
    line.Text(" ");
    line.Uint(slot.thread_id.load(std::memory_order_relaxed));
    line.Text(" ");
    line.Uint(slot.span_id.load(std::memory_order_relaxed));
    line.Text(" ");
    line.Uint(static_cast<uint64_t>(
        slot.line.load(std::memory_order_relaxed)));
    line.Text(" ");
    slot.thread_name.LoadTo(text);
    line.Token(text);
    line.Text(" ");
    slot.file.LoadTo(text);
    line.Token(text);
    line.Text(" |");
    slot.message.LoadTo(text);
    line.Message(text);
    line.Flush(fd);
  }

  const uint64_t spans_end = spans_appended_.load(std::memory_order_acquire);
  const uint64_t spans_begin =
      spans_end > kSpanSlots ? spans_end - kSpanSlots : 0;
  for (uint64_t seq = spans_begin; seq < spans_end; ++seq) {
    const SpanSlot& slot = span_slots_[seq % kSpanSlots];
    const uint64_t gen1 = slot.gen.load(std::memory_order_acquire);
    if ((gen1 & 1) != 0) continue;
    if (slot.seq.load(std::memory_order_relaxed) != seq) continue;
    char text[48];
    line.Text("flspan ");
    line.Uint(slot.id.load(std::memory_order_relaxed));
    line.Text(" ");
    line.Uint(slot.parent_id.load(std::memory_order_relaxed));
    line.Text(" ");
    line.Uint(slot.start_ns.load(std::memory_order_relaxed));
    line.Text(" ");
    line.Uint(slot.duration_ns.load(std::memory_order_relaxed));
    line.Text(" ");
    line.Uint(slot.count.load(std::memory_order_relaxed));
    line.Text(" ");
    line.Uint(slot.thread_id.load(std::memory_order_relaxed));
    line.Text(" ");
    slot.thread_name.LoadTo(text);
    line.Token(text);
    line.Text(" ");
    slot.name.LoadTo(text);
    line.Token(text);
    line.Flush(fd);
  }

  const MetricBuffer& buf =
      metric_buffers_[active_metric_buffer_.load(std::memory_order_acquire)];
  const uint64_t n = buf.count.load(std::memory_order_relaxed);
  if (n > 0) {
    line.Text("flmetricts ");
    line.Uint(buf.mono_ns.load(std::memory_order_relaxed));
    line.Flush(fd);
  }
  for (uint64_t i = 0; i < n && i < kMetricEntries; ++i) {
    const uint64_t kind = buf.entries[i].kind.load(std::memory_order_relaxed);
    if (kind == 0) continue;
    char name[48];
    buf.entries[i].name.LoadTo(name);
    line.Text("flmetric ");
    const char kind_text[2] = {static_cast<char>(kind), '\0'};
    line.Text(kind_text);
    line.Text(" ");
    line.Hex(buf.entries[i].value_bits.load(std::memory_order_relaxed));
    line.Text(" ");
    line.Token(name);
    line.Flush(fd);
  }
}

}  // namespace obs
}  // namespace bolton
