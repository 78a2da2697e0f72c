#include "obs/metrics.h"

#include "obs/export.h"

namespace bolton {
namespace obs {

namespace {
std::atomic<bool> g_metrics_enabled{false};
}  // namespace

bool MetricsEnabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void SetMetricsEnabled(bool enabled) {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<uint64_t>[bounds_.size() + 1]) {
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

uint64_t Histogram::TotalCount() const {
  uint64_t total = 0;
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    total += buckets_[i].load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count) {
  std::vector<double> bounds;
  bounds.reserve(count);
  double edge = start;
  for (size_t i = 0; i < count; ++i) {
    bounds.push_back(edge);
    edge *= factor;
  }
  return bounds;
}

const std::vector<double>& LatencySecondsBuckets() {
  static const std::vector<double>* kBuckets =
      new std::vector<double>(ExponentialBuckets(1e-6, 10.0, 9));
  return *kBuckets;
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot.reset(new Counter());
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot.reset(new Gauge());
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot.reset(new Histogram(std::move(bounds)));
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace_back(name, counter->Value());
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.emplace_back(name, gauge->Value());
  }
  for (const auto& [name, histogram] : histograms_) {
    MetricsSnapshot::HistogramData data;
    data.name = name;
    data.bounds = histogram->bounds();
    data.bucket_counts.resize(data.bounds.size() + 1);
    for (size_t i = 0; i <= data.bounds.size(); ++i) {
      data.bucket_counts[i] = histogram->BucketCount(i);
    }
    data.count = histogram->TotalCount();
    data.sum = histogram->Sum();
    snapshot.histograms.push_back(std::move(data));
  }
  return snapshot;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->value_.store(0);
  for (auto& [name, gauge] : gauges_) gauge->value_.store(0.0);
  for (auto& [name, histogram] : histograms_) {
    for (size_t i = 0; i <= histogram->bounds_.size(); ++i) {
      histogram->buckets_[i].store(0);
    }
    histogram->sum_.store(0.0);
  }
}

std::string MetricsSnapshot::ToText() const { return RenderMetricsText(*this); }

}  // namespace obs
}  // namespace bolton
