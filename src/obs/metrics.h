#ifndef BOLTON_OBS_METRICS_H_
#define BOLTON_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace bolton {
namespace obs {

/// Process-wide metrics: counters, gauges, and fixed-bucket histograms.
///
/// Registration (GetCounter etc.) takes a lock and should happen once per
/// call site — cache the returned pointer in a function-local static.
/// Recording (Increment/Set/Observe) is lock-free: relaxed atomics, safe
/// from any thread. When the pillar is disabled every recording call is a
/// single relaxed load plus a branch.

/// Kill switch for the metrics pillar. Off by default.
bool MetricsEnabled();
void SetMetricsEnabled(bool enabled);

/// Monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    if (!MetricsEnabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

 private:
  friend class MetricsRegistry;
  Counter() = default;
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double v) {
    if (!MetricsEnabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }

  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `bounds` are inclusive upper bucket edges in
/// ascending order, plus an implicit +inf overflow bucket. Observe() is a
/// short linear scan and two relaxed atomic adds.
class Histogram {
 public:
  void Observe(double v) {
    if (!MetricsEnabled()) return;
    size_t bucket = bounds_.size();
    for (size_t i = 0; i < bounds_.size(); ++i) {
      if (v <= bounds_[i]) {
        bucket = i;
        break;
      }
    }
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  const std::vector<double>& bounds() const { return bounds_; }
  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  uint64_t TotalCount() const;
  double Sum() const { return sum_.load(std::memory_order_relaxed); }

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::vector<double> bounds);
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds.size() + 1
  std::atomic<double> sum_{0.0};
};

/// `count` exponentially spaced bucket edges starting at `start`, each
/// `factor` times the previous — the standard latency-bucket shape.
std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count);

/// Default buckets for durations measured in seconds: 1 µs … ~100 s.
const std::vector<double>& LatencySecondsBuckets();

/// A point-in-time copy of every registered metric; reading it never
/// observes later updates (snapshot isolation).
struct MetricsSnapshot {
  struct HistogramData {
    std::string name;
    std::vector<double> bounds;
    std::vector<uint64_t> bucket_counts;  // bounds.size() + 1 (last = +inf)
    uint64_t count = 0;
    double sum = 0.0;
  };

  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramData> histograms;

  /// Aligned human-readable dump, one metric per line, grouped by kind.
  /// Thin wrapper over RenderMetricsText (obs/export.h), which also feeds
  /// the HTTP /metrics endpoint — one rendering path for every surface.
  std::string ToText() const;
};

/// Create-or-get registry of named metrics. Returned pointers stay valid
/// for the life of the process.
class MetricsRegistry {
 public:
  /// The process-wide registry every instrumented call site uses.
  static MetricsRegistry& Default();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// `bounds` applies on first registration; later calls with the same name
  /// return the existing histogram unchanged.
  Histogram* GetHistogram(const std::string& name, std::vector<double> bounds);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every value but keeps registrations (tests and repeated CLI
  /// runs).
  void Reset();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace bolton

#endif  // BOLTON_OBS_METRICS_H_
