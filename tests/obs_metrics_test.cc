#include "obs/metrics.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace bolton {
namespace obs {
namespace {

// Metrics are off by default; every test here opts in and restores the
// default so other suites see the documented disabled state.
class ObsMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Default().Reset();
    SetMetricsEnabled(true);
  }
  void TearDown() override {
    SetMetricsEnabled(false);
    MetricsRegistry::Default().Reset();
  }
};

TEST_F(ObsMetricsTest, CounterIncrements) {
  Counter* c = MetricsRegistry::Default().GetCounter("test.counter");
  EXPECT_EQ(c->Value(), 0u);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->Value(), 42u);
}

TEST_F(ObsMetricsTest, SameNameReturnsSameMetric) {
  Counter* a = MetricsRegistry::Default().GetCounter("test.shared");
  Counter* b = MetricsRegistry::Default().GetCounter("test.shared");
  EXPECT_EQ(a, b);
  a->Increment();
  EXPECT_EQ(b->Value(), 1u);
}

TEST_F(ObsMetricsTest, DisabledIncrementsAreDropped) {
  Counter* c = MetricsRegistry::Default().GetCounter("test.disabled");
  Gauge* g = MetricsRegistry::Default().GetGauge("test.disabled_gauge");
  Histogram* h = MetricsRegistry::Default().GetHistogram(
      "test.disabled_hist", {1.0, 2.0});
  SetMetricsEnabled(false);
  c->Increment(100);
  g->Set(3.5);
  h->Observe(1.5);
  SetMetricsEnabled(true);
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(g->Value(), 0.0);
  EXPECT_EQ(h->TotalCount(), 0u);
}

TEST_F(ObsMetricsTest, GaugeLastWriteWins) {
  Gauge* g = MetricsRegistry::Default().GetGauge("test.gauge");
  g->Set(1.5);
  g->Set(-2.25);
  EXPECT_EQ(g->Value(), -2.25);
}

TEST_F(ObsMetricsTest, HistogramBucketsObservations) {
  Histogram* h =
      MetricsRegistry::Default().GetHistogram("test.hist", {1.0, 10.0, 100.0});
  h->Observe(0.5);    // <= 1
  h->Observe(1.0);    // <= 1 (inclusive upper edge)
  h->Observe(5.0);    // <= 10
  h->Observe(1000.0); // +inf overflow
  EXPECT_EQ(h->BucketCount(0), 2u);
  EXPECT_EQ(h->BucketCount(1), 1u);
  EXPECT_EQ(h->BucketCount(2), 0u);
  EXPECT_EQ(h->BucketCount(3), 1u);
  EXPECT_EQ(h->TotalCount(), 4u);
  EXPECT_DOUBLE_EQ(h->Sum(), 1006.5);
}

TEST_F(ObsMetricsTest, ExponentialBucketsShape) {
  std::vector<double> bounds = ExponentialBuckets(1e-6, 10.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1e-6);
  EXPECT_DOUBLE_EQ(bounds[1], 1e-5);
  EXPECT_DOUBLE_EQ(bounds[3], 1e-3);
}

TEST_F(ObsMetricsTest, SnapshotIsIsolatedFromLaterUpdates) {
  Counter* c = MetricsRegistry::Default().GetCounter("test.snap");
  c->Increment(7);
  MetricsSnapshot snapshot = MetricsRegistry::Default().Snapshot();
  c->Increment(100);

  bool found = false;
  for (const auto& [name, value] : snapshot.counters) {
    if (name == "test.snap") {
      found = true;
      EXPECT_EQ(value, 7u);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ObsMetricsTest, ResetZeroesButKeepsRegistrations) {
  Counter* c = MetricsRegistry::Default().GetCounter("test.reset");
  c->Increment(9);
  MetricsRegistry::Default().Reset();
  EXPECT_EQ(c->Value(), 0u);
  // Same registration survives: the pointer still works and is returned
  // for the same name.
  EXPECT_EQ(MetricsRegistry::Default().GetCounter("test.reset"), c);
}

TEST_F(ObsMetricsTest, ConcurrentIncrementsAreExact) {
  Counter* c = MetricsRegistry::Default().GetCounter("test.concurrent");
  Histogram* h = MetricsRegistry::Default().GetHistogram(
      "test.concurrent_hist", {0.5});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        h->Observe(1.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c->Value(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h->TotalCount(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST_F(ObsMetricsTest, TextExport) {
  MetricsRegistry::Default().GetCounter("test.export")->Increment(3);
  MetricsRegistry::Default().GetGauge("test.export_gauge")->Set(1.5);
  MetricsSnapshot snapshot = MetricsRegistry::Default().Snapshot();

  std::string text = snapshot.ToText();
  EXPECT_NE(text.find("# counters"), std::string::npos);
  EXPECT_NE(text.find("test.export"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace bolton
