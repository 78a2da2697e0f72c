#ifndef BOLTON_OBS_FLIGHT_RECORDER_H_
#define BOLTON_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/trace.h"
#include "util/logging.h"

namespace bolton {
namespace obs {

/// Always-on in-memory flight recorder: fixed-capacity rings of the most
/// recent log events and finished trace spans, and a periodic metrics
/// snapshot. The log ring runs in every process, because its whole purpose
/// is the run nobody planned to debug; the span ring is the one store of
/// finished spans, filled while tracing is on (obs/trace.h). The crash
/// handler (obs/postmortem.h) dumps the rings into the postmortem, the obs
/// HTTP server serves them live at /logz and /spans, and --trace-out
/// writes the span ring to a file.

/// A trivially copyable T held as relaxed atomic words, so a reader racing
/// a writer never data-races: it may copy out a torn value, which the
/// owner's protocol must detect. Load() does only relaxed loads and a
/// memcpy into a stack value, so it is async-signal-safe.
template <typename T>
class AtomicImage {
 public:
  static_assert(std::is_trivially_copyable_v<T>);

  void Store(const T& value) {
    uint64_t words[kWords] = {};
    std::memcpy(words, &value, sizeof(T));
    for (size_t i = 0; i < kWords; ++i) {
      words_[i].store(words[i], std::memory_order_relaxed);
    }
  }

  T Load() const {
    uint64_t words[kWords];
    for (size_t i = 0; i < kWords; ++i) {
      words[i] = words_[i].load(std::memory_order_relaxed);
    }
    T value;
    std::memcpy(&value, words, sizeof(T));
    return value;
  }

 private:
  static constexpr size_t kWords = (sizeof(T) + 7) / 8;
  std::atomic<uint64_t> words_[kWords] = {};
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

  /// Events pushed out of the ring by newer ones.
  uint64_t overwritten() const {
    return appended > capacity ? appended - capacity : 0;
  }
};

/// The one lock-free ring of the flight recorder's stores: kSlots
/// entries, overwriting the oldest once full.
///
/// Concurrency follows the drop-not-block idiom of util/sample_ring.h,
/// adapted to a wrapping ring: a writer claims a slot by sequence number
/// and takes the slot's generation from even to odd with one CAS; a writer
/// that loses the CAS drops its entry (counted) instead of blocking. The
/// entry itself is an AtomicImage, so readers never race with writers in
/// the data-race sense: a torn or lapped slot is detected by the
/// generation and sequence checks and skipped. That same property makes
/// the ring readable from a signal handler; FlightRecorder::WriteRawTo()
/// does exactly that.
template <typename Entry, size_t kSlots>
class AtomicRing {
 public:
  void Append(const Entry& entry) {
    const uint64_t seq = appended_.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = slots_[seq % kSlots];
    uint64_t gen = slot.gen.load(std::memory_order_relaxed);
    if ((gen & 1) != 0 ||
        !slot.gen.compare_exchange_strong(gen, gen + 1,
                                          std::memory_order_acq_rel,
                                          std::memory_order_relaxed)) {
      // Another writer owns this slot right now; drop rather than block.
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    slot.seq.store(seq, std::memory_order_relaxed);
    slot.entry.Store(entry);
    slot.gen.store(gen + 2, std::memory_order_release);
  }

  /// Calls `visit(seq, entry)` with a stack copy of each retained entry,
  /// oldest first, skipping one that is mid-write or was overwritten
  /// mid-read: never waits. Async-signal-safe when `visit` is.
  template <typename Visit>
  void ForEach(Visit&& visit) const {
    const uint64_t end = appended_.load(std::memory_order_acquire);
    for (uint64_t seq = end > kSlots ? end - kSlots : 0; seq < end; ++seq) {
      const Slot& slot = slots_[seq % kSlots];
      const uint64_t gen = slot.gen.load(std::memory_order_acquire);
      if ((gen & 1) != 0) continue;
      const uint64_t slot_seq = slot.seq.load(std::memory_order_relaxed);
      const Entry entry = slot.entry.Load();
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.gen.load(std::memory_order_relaxed) != gen || slot_seq != seq) {
        continue;  // torn or lapped
      }
      visit(seq, entry);
    }
  }

  RingStats Stats() const {
    return RingStats{kSlots, appended_.load(std::memory_order_relaxed),
                     dropped_.load(std::memory_order_relaxed)};
  }

 private:
  struct Slot {
    std::atomic<uint64_t> gen{0};  // seqlock: odd = write in progress
    std::atomic<uint64_t> seq{0};
    AtomicImage<Entry> entry;
  };

  Slot slots_[kSlots];
  std::atomic<uint64_t> appended_{0};
  std::atomic<uint64_t> dropped_{0};
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
  /// Holds every span of a traced CLI or bench run (a sharded train
  /// closes a few dozen) and a daemon's last ~500 requests (about eight
  /// spans each), in ~0.75 MiB.
  static constexpr size_t kSpanSlots = 4096;
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

  /// Copies a finished span into the span ring, overwriting the oldest
  /// once it is full (called by every ScopedSpan that traced). The name
  /// is kept to 47 bytes and the thread name to 23.
  void RecordSpan(const SpanRecord& record);

  /// Snapshots the default metrics registry (counters and gauges; the
  /// first kMetricEntries of each) into the double-buffered slot now.
  /// A failed check calls this before writing its raw postmortem record
  /// so the report carries fresh values.
  void SnapshotMetricsNow();

  /// The most recent retained events at or above `min_level`, oldest
  /// first, at most `max`. Lock-free readers: an event being overwritten
  /// mid-read is skipped, not blocked on.
  std::vector<RecordedLogEvent> RecentLogs(size_t max,
                                           LogLevel min_level) const;
  /// The most recent retained spans in completion order, oldest first,
  /// at most `max`.
  std::vector<SpanRecord> RecentSpans(size_t max = kSpanSlots) const;

  RingStats LogRingStats() const { return logs_.Stats(); }
  RingStats SpanRingStats() const { return spans_.Stats(); }

  /// Dumps the rings to `fd` as plain ASCII lines ("fllog ...",
  /// "flspan <id> <parent> <depth> <start> <dur> <tid> <counter flags>
  /// <6 counters> <thread> <name>", "flmetric ...", "flstats ..."). Uses
  /// only atomic loads, stack buffers, and write(2) — async-signal-safe,
  /// which is the whole point: the crash handler calls this with the
  /// process in an arbitrary state. The postmortem finalizer parses the
  /// lines back.
  void WriteRawTo(int fd) const;

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

 private:
  FlightRecorder() = default;

  /// One LogEvent, its text truncated to the field widths.
  struct LogEntry {
    uint64_t mono_ns;
    uint64_t level;
    uint64_t thread_id;
    uint64_t span_id;
    int64_t line;
    char thread_name[24];
    char file[40];
    char message[192];
  };

  /// Every SpanRecord field but `count`, which is always 1.
  struct SpanEntry {
    uint64_t id;
    uint64_t parent_id;
    uint64_t depth;
    uint64_t start_ns;
    uint64_t duration_ns;
    uint64_t thread_id;
    uint64_t counter_flags;  // 1 = has_counters, 2 = available
    /// The counter fields, in PerfCounterDelta order: cycles,
    /// instructions, cache_references, cache_misses, branch_misses,
    /// task_clock_ns.
    uint64_t counters[6];
    char name[48];
    char thread_name[24];
  };

  struct MetricEntry {
    char name[48];
    uint64_t kind;  // 'c' or 'g', 0 = empty
    uint64_t value_bits;
  };
  struct MetricBuffer {
    std::atomic<uint64_t> count{0};
    AtomicImage<MetricEntry> entries[kMetricEntries];
  };

  AtomicRing<LogEntry, kLogSlots> logs_;
  AtomicRing<SpanEntry, kSpanSlots> spans_;

  MetricBuffer metric_buffers_[2];
  std::atomic<uint32_t> active_metric_buffer_{0};
  std::atomic<uint64_t> last_snapshot_ns_{0};
};

}  // namespace obs
}  // namespace bolton

#endif  // BOLTON_OBS_FLIGHT_RECORDER_H_
