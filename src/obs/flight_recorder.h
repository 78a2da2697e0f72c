#ifndef BOLTON_OBS_FLIGHT_RECORDER_H_
#define BOLTON_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/logging.h"

namespace bolton {
namespace obs {

/// Always-on in-memory flight recorder: fixed-capacity rings of the most
/// recent log events, completed trace spans, and a periodic metrics
/// snapshot. Unlike the opt-in telemetry pillars this runs in every
/// process, because its whole purpose is the run nobody planned to debug —
/// the crash handler (obs/postmortem.h) dumps the rings into the
/// postmortem, and the obs HTTP server serves them live at /logz and
/// /flightrecorder.
///
/// Concurrency follows the drop-not-block idiom of util/sample_ring.h,
/// adapted to a wrapping ring: writers claim a slot by sequence number and
/// take a per-slot generation from even to odd with one CAS; a writer that
/// loses the CAS drops its event (counted) instead of blocking. Every slot
/// field — including the text, packed into arrays of atomic words — is a
/// relaxed atomic, so readers never race with writers in the data-race
/// sense: a torn slot is detected by the generation check and skipped.
/// That same property makes the rings readable from a signal handler;
/// WriteRawTo() below does exactly that.

/// Fixed-capacity text field made of atomic words. Store() is for normal
/// context; LoadTo() does only relaxed loads and plain char stores, so it
/// is async-signal-safe. The text is truncated to kBytes - 1 characters.
template <size_t kBytes>
class AtomicText {
 public:
  static_assert(kBytes % 8 == 0, "kBytes must be a multiple of 8");
  static constexpr size_t kCapacity = kBytes;

  void Store(const char* text) {
    char packed[kBytes] = {0};
    for (size_t i = 0; i + 1 < kBytes && text[i] != '\0'; ++i) {
      packed[i] = text[i];
    }
    for (size_t w = 0; w < kBytes / 8; ++w) {
      uint64_t word = 0;
      for (size_t b = 0; b < 8; ++b) {
        word |= static_cast<uint64_t>(
                    static_cast<unsigned char>(packed[w * 8 + b]))
                << (8 * b);
      }
      words_[w].store(word, std::memory_order_relaxed);
    }
  }

  /// `out` must hold at least kBytes; always NUL-terminated on return.
  void LoadTo(char* out) const {
    for (size_t w = 0; w < kBytes / 8; ++w) {
      const uint64_t word = words_[w].load(std::memory_order_relaxed);
      for (size_t b = 0; b < 8; ++b) {
        out[w * 8 + b] = static_cast<char>((word >> (8 * b)) & 0xff);
      }
    }
    out[kBytes - 1] = '\0';
  }

 private:
  std::atomic<uint64_t> words_[kBytes / 8] = {};
};

/// A retained log event, copied out of the ring (strings owned).
struct RecordedLogEvent {
  uint64_t seq = 0;
  uint64_t mono_ns = 0;
  LogLevel level = LogLevel::kInfo;
  uint64_t thread_id = 0;
  uint64_t span_id = 0;
  int line = 0;
  std::string thread_name;  // "" when the thread was never named
  std::string file;
  std::string message;
};

/// A retained completed span, copied out of the ring.
struct RecordedSpan {
  uint64_t id = 0;
  uint64_t parent_id = 0;
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
  uint64_t count = 1;
  uint64_t thread_id = 0;
  std::string name;
  std::string thread_name;
};

/// One metric from the latest snapshot. kind is 'c' (counter, value is an
/// integral count) or 'g' (gauge).
struct RecordedMetric {
  std::string name;
  char kind = 'g';
  double value = 0.0;
};

/// Append/drop accounting for one ring. `appended` counts every event
/// offered (old entries are overwritten once it exceeds `capacity`);
/// `dropped` counts events lost to writer-writer slot contention.
struct RingStats {
  uint64_t capacity = 0;
  uint64_t appended = 0;
  uint64_t dropped = 0;
};

namespace internal {

/// Async-signal-safe line output, shared by FlightRecorder::WriteRawTo and
/// the crash handler (obs/postmortem.cc): write(2) plus hand-rolled
/// formatters, because snprintf and FILE* are off-limits in a signal
/// handler.

/// write(2) with short-write/EINTR handling.
void RawWrite(int fd, const char* data, size_t len);
/// Decimal digits of `v` into `out` (at least 20 bytes); returns the count.
size_t FormatUint(uint64_t v, char* out);
/// "0x" plus lowercase hex digits of `v` into `out` (at least 18 bytes).
size_t FormatHex(uint64_t v, char* out);

/// Builds one output line in a stack buffer; silently truncates rather
/// than overflowing (diagnostics must never make things worse).
class LineBuilder {
 public:
  void Text(const char* s) {
    while (*s != '\0' && len_ < sizeof(buf_) - 1) buf_[len_++] = *s++;
  }
  /// A whitespace-free token: space, tab, CR and LF become '_', and null
  /// or "" becomes "-" (DecodeToken in util/strings.h maps it back).
  void Token(const char* s) {
    if (s == nullptr || *s == '\0') {
      Text("-");
      return;
    }
    while (*s != '\0' && len_ < sizeof(buf_) - 1) {
      const char c = *s++;
      const bool space = c == ' ' || c == '\t' || c == '\r' || c == '\n';
      buf_[len_++] = space ? '_' : c;
    }
  }
  /// Free text at end of line: newlines become spaces.
  void Message(const char* s) {
    while (*s != '\0' && len_ < sizeof(buf_) - 1) {
      const char c = *s++;
      buf_[len_++] = (c == '\n' || c == '\r') ? ' ' : c;
    }
  }
  void Uint(uint64_t v) {
    if (len_ + 20 < sizeof(buf_)) len_ += FormatUint(v, buf_ + len_);
  }
  void Hex(uint64_t v) {
    if (len_ + 18 < sizeof(buf_)) len_ += FormatHex(v, buf_ + len_);
  }
  /// Writes the line plus '\n' to `fd` and starts the next one.
  void Flush(int fd) {
    if (len_ < sizeof(buf_)) buf_[len_] = '\n';
    RawWrite(fd, buf_, len_ + 1);
    len_ = 0;
  }

 private:
  char buf_[512];
  size_t len_ = 0;
};

}  // namespace internal

class FlightRecorder : public LogSink {
 public:
  static constexpr size_t kLogSlots = 256;
  static constexpr size_t kSpanSlots = 128;
  static constexpr size_t kMetricEntries = 64;
  /// Auto-snapshot the metrics registry at most this often, piggybacked on
  /// the log write path (no poller thread).
  static constexpr uint64_t kMetricSnapshotPeriodNs = 1000000000ull;

  /// The process-wide recorder. First use constructs it and registers it
  /// as a log sink, so merely touching Default() arms the ring.
  static FlightRecorder& Default();

  /// LogSink: copies the event into the log ring and occasionally refreshes
  /// the metrics snapshot. Called under the logger's dispatch lock.
  void Write(const LogEvent& event) override;

  /// Copies a completed span into the span ring (called by
  /// TraceRecorder::Record for every finished span).
  void RecordSpan(const SpanRecord& record);

  /// Snapshots the default metrics registry (counters and gauges; the
  /// first kMetricEntries of each) into the double-buffered slot now.
  /// The postmortem writer calls this before rendering so the report
  /// carries fresh values.
  void SnapshotMetricsNow();

  /// The most recent retained events at or above `min_level`, oldest
  /// first, at most `max`. Lock-free readers: an event being overwritten
  /// mid-read is skipped, not blocked on.
  std::vector<RecordedLogEvent> RecentLogs(size_t max,
                                           LogLevel min_level) const;
  std::vector<RecordedSpan> RecentSpans(size_t max) const;
  std::vector<RecordedMetric> LatestMetrics() const;
  /// MonotonicNanos timestamp of the latest metrics snapshot, 0 if none.
  uint64_t LatestMetricsTimestampNs() const;

  RingStats LogRingStats() const;
  RingStats SpanRingStats() const;

  /// Dumps the rings to `fd` as plain ASCII lines ("fllog ...",
  /// "flspan ...", "flmetric ...", "flstats ..."). Uses only atomic loads,
  /// stack buffers, and write(2) — async-signal-safe, which is the whole
  /// point: the crash handler calls this with the process in an arbitrary
  /// state. The postmortem finalizer parses the lines back.
  void WriteRawTo(int fd) const;

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

 private:
  FlightRecorder() = default;

  struct LogSlot {
    std::atomic<uint64_t> gen{0};  // seqlock: odd = write in progress
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> mono_ns{0};
    std::atomic<uint64_t> level{0};
    std::atomic<uint64_t> thread_id{0};
    std::atomic<uint64_t> span_id{0};
    std::atomic<int64_t> line{0};
    AtomicText<24> thread_name;
    AtomicText<40> file;
    AtomicText<192> message;
  };

  struct SpanSlot {
    std::atomic<uint64_t> gen{0};
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> id{0};
    std::atomic<uint64_t> parent_id{0};
    std::atomic<uint64_t> start_ns{0};
    std::atomic<uint64_t> duration_ns{0};
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> thread_id{0};
    AtomicText<48> name;
    AtomicText<24> thread_name;
  };

  struct MetricEntry {
    AtomicText<48> name;
    std::atomic<uint64_t> kind{0};  // 'c' or 'g', 0 = empty
    std::atomic<uint64_t> value_bits{0};
  };
  struct MetricBuffer {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> mono_ns{0};
    MetricEntry entries[kMetricEntries];
  };

  LogSlot log_slots_[kLogSlots];
  SpanSlot span_slots_[kSpanSlots];
  std::atomic<uint64_t> logs_appended_{0};
  std::atomic<uint64_t> logs_dropped_{0};
  std::atomic<uint64_t> spans_appended_{0};
  std::atomic<uint64_t> spans_dropped_{0};

  MetricBuffer metric_buffers_[2];
  std::atomic<uint32_t> active_metric_buffer_{0};
  std::atomic<uint64_t> last_snapshot_ns_{0};
};

}  // namespace obs
}  // namespace bolton

#endif  // BOLTON_OBS_FLIGHT_RECORDER_H_
