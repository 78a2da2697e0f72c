#include "obs/export.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace bolton {
namespace obs {
namespace {

class ObsExportTest : public ::testing::Test {
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

// Helper: the snapshot entry for one histogram by name.
MetricsSnapshot::HistogramData FindHistogram(const MetricsSnapshot& snapshot,
                                             const std::string& name) {
  for (const auto& h : snapshot.histograms) {
    if (h.name == name) return h;
  }
  ADD_FAILURE() << "histogram not in snapshot: " << name;
  return {};
}

TEST_F(ObsExportTest, PrometheusNameSanitizesIllegalChars) {
  EXPECT_EQ(PrometheusName("psgd.pass_seconds"), "psgd_pass_seconds");
  EXPECT_EQ(PrometheusName("dp_noise.laplace_draws"),
            "dp_noise_laplace_draws");
  EXPECT_EQ(PrometheusName("9lives"), "_lives");  // leading digit illegal
  EXPECT_EQ(PrometheusName("a-b c"), "a_b_c");
}

// The satellite contract: exposition buckets must be cumulative, end in
// +Inf, and carry _sum/_count that agree with the raw observations.
TEST_F(ObsExportTest, PrometheusHistogramIsCumulativeWithInfAndSumCount) {
  Histogram* h = MetricsRegistry::Default().GetHistogram(
      "export.hist", {1.0, 10.0, 100.0});
  const std::vector<double> observations = {0.5, 1.0, 5.0, 50.0, 1000.0,
                                            2000.0};
  double expected_sum = 0.0;
  for (double v : observations) {
    h->Observe(v);
    expected_sum += v;
  }
  MetricsSnapshot snapshot = MetricsRegistry::Default().Snapshot();
  std::string text = RenderPrometheus(snapshot);

  // Raw per-bucket counts are {2,1,1,2}; the exposition must be their
  // running total.
  EXPECT_NE(text.find("export_hist_bucket{le=\"1\"} 2\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("export_hist_bucket{le=\"10\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("export_hist_bucket{le=\"100\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("export_hist_bucket{le=\"+Inf\"} 6\n"),
            std::string::npos);
  EXPECT_NE(text.find("export_hist_count 6\n"), std::string::npos);
  // _sum must agree with what was observed.
  const size_t sum_at = text.find("export_hist_sum ");
  ASSERT_NE(sum_at, std::string::npos);
  const double rendered_sum =
      std::stod(text.substr(sum_at + std::string("export_hist_sum ").size()));
  EXPECT_DOUBLE_EQ(rendered_sum, expected_sum);
  // And the +Inf bucket must equal _count (every observation is <= +Inf).
  const MetricsSnapshot::HistogramData data =
      FindHistogram(snapshot, "export.hist");
  uint64_t cumulative = 0;
  for (uint64_t c : data.bucket_counts) cumulative += c;
  EXPECT_EQ(cumulative, data.count);
}

TEST_F(ObsExportTest, PrometheusCountersGaugesAndTypeLines) {
  MetricsRegistry::Default().GetCounter("export.count")->Increment(7);
  MetricsRegistry::Default().GetGauge("privacy.epsilon_spent")->Set(0.25);
  std::string text = RenderPrometheus(MetricsRegistry::Default().Snapshot());
  EXPECT_NE(text.find("# TYPE export_count counter\nexport_count 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE privacy_epsilon_spent gauge\n"
                      "privacy_epsilon_spent 0.25\n"),
            std::string::npos);
}

TEST_F(ObsExportTest, QuantilesInterpolateWithinBuckets) {
  MetricsSnapshot::HistogramData h;
  h.name = "q";
  h.bounds = {10.0, 20.0, 30.0};
  // 10 observations in (10,20], none elsewhere.
  h.bucket_counts = {0, 10, 0, 0};
  h.count = 10;
  // p50 = rank 5 of 10 → halfway through the (10,20] bucket.
  EXPECT_DOUBLE_EQ(HistogramQuantile(h, 0.5), 15.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(h, 1.0), 20.0);
  // All mass in the overflow bucket clamps to the largest finite bound.
  MetricsSnapshot::HistogramData overflow = h;
  overflow.bucket_counts = {0, 0, 0, 10};
  EXPECT_DOUBLE_EQ(HistogramQuantile(overflow, 0.5), 30.0);
  // Empty histogram yields 0.
  MetricsSnapshot::HistogramData empty;
  empty.bounds = {1.0};
  empty.bucket_counts = {0, 0};
  EXPECT_DOUBLE_EQ(HistogramQuantile(empty, 0.99), 0.0);
}

TEST_F(ObsExportTest, PrometheusEmitsQuantileGauges) {
  Histogram* h =
      MetricsRegistry::Default().GetHistogram("lat", {1.0, 2.0, 4.0});
  for (int i = 0; i < 100; ++i) h->Observe(1.5);
  std::string text = RenderPrometheus(MetricsRegistry::Default().Snapshot());
  EXPECT_NE(text.find("# TYPE lat_p50 gauge\n"), std::string::npos);
  EXPECT_NE(text.find("lat_p95 "), std::string::npos);
  EXPECT_NE(text.find("lat_p99 "), std::string::npos);
}

TEST_F(ObsExportTest, LedgerTotalsSplitByKindAndAcceptance) {
  std::vector<LedgerEvent> events;
  LedgerEvent draw;
  draw.kind = "noise_draw";
  draw.epsilon = 1.0;
  events.push_back(draw);
  LedgerEvent charge;
  charge.kind = "accountant_charge";
  charge.epsilon = 0.5;
  charge.delta = 1e-6;
  events.push_back(charge);
  LedgerEvent rejected = charge;
  rejected.accepted = false;
  events.push_back(rejected);
  LedgerEvent calibration;
  calibration.kind = "calibration";
  events.push_back(calibration);

  LedgerTotals totals = SummarizeLedger(events);
  EXPECT_EQ(totals.events, 4u);
  EXPECT_EQ(totals.noise_draws, 1u);
  EXPECT_EQ(totals.charges, 2u);
  EXPECT_EQ(totals.rejected, 1u);
  EXPECT_EQ(totals.calibrations, 1u);
  // Only the accepted charge spends budget — draws and rejections do not.
  EXPECT_DOUBLE_EQ(totals.epsilon_charged, 0.5);
  EXPECT_DOUBLE_EQ(totals.delta_charged, 1e-6);
}

// The refactor contract: the legacy member serializers and the shared
// renderers are the same bytes.
TEST_F(ObsExportTest, MemberSerializersDelegateToSharedRenderers) {
  MetricsRegistry::Default().GetCounter("export.same")->Increment(3);
  MetricsRegistry::Default()
      .GetHistogram("export.same_hist", {1.0})
      ->Observe(0.5);
  MetricsSnapshot snapshot = MetricsRegistry::Default().Snapshot();
  EXPECT_EQ(snapshot.ToText(), RenderMetricsText(snapshot));

  LedgerEvent event;
  event.kind = "noise_draw";
  event.mechanism = "laplace";
  event.label = "test";
  EXPECT_EQ(RenderLedgerJsonl({event}),
            RenderLedgerEventJson(event) + "\n");

  SpanRecord span;
  span.name = "test.span";
  span.id = 1;
  EXPECT_EQ(RenderSpansJsonl({span}), RenderSpanJson(span) + "\n");
}

// Golden output for the Chrome/Perfetto trace-event export: a JSON array
// holding process/thread metadata ("M") events followed by one complete
// ("X") event per span, with ts/dur converted ns -> us and counter deltas
// in args. Byte-for-byte so any schema drift is a conscious change.
TEST_F(ObsExportTest, ChromeTraceGoldenOutput) {
  SpanRecord root;
  root.name = "solver.run";
  root.id = 1;
  root.start_ns = 1000;
  root.duration_ns = 500000;
  root.thread_id = 1;
  root.thread_name = "main";

  SpanRecord shard;
  shard.name = "psgd.shard";
  shard.id = 2;
  shard.parent_id = 1;
  shard.depth = 1;
  shard.start_ns = 2500;
  shard.duration_ns = 250000;
  shard.count = 1;
  shard.thread_id = 2;
  shard.thread_name = "psgd-shard-0";
  shard.has_counters = true;
  shard.counters.task_clock_ns = 240000;

  const std::string trace = RenderChromeTrace({root, shard});
  EXPECT_EQ(trace,
            "[{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
            "\"args\":{\"name\":\"boltondp\"}},\n"
            "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
            "\"args\":{\"name\":\"main\"}},\n"
            "{\"ph\":\"M\",\"pid\":1,\"tid\":2,\"name\":\"thread_name\","
            "\"args\":{\"name\":\"psgd-shard-0\"}},\n"
            "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"solver.run\","
            "\"ts\":1.000,\"dur\":500.000,\"args\":{\"count\":1}},\n"
            "{\"ph\":\"X\",\"pid\":1,\"tid\":2,\"name\":\"psgd.shard\","
            "\"ts\":2.500,\"dur\":250.000,\"args\":{\"count\":1,"
            "\"counters\":{\"available\":false,"
            "\"task_clock_ns\":240000}}}]\n");
}

// Spans from the same thread share one metadata event; unnamed threads
// get the "thread" placeholder rather than an empty track name.
TEST_F(ObsExportTest, ChromeTraceDeduplicatesThreadsAndNamesUnnamed) {
  SpanRecord a;
  a.name = "a";
  a.thread_id = 9;
  SpanRecord b;
  b.name = "b";
  b.thread_id = 9;
  const std::string trace = RenderChromeTrace({a, b});
  size_t metadata_events = 0;
  for (size_t at = trace.find("\"thread_name\""); at != std::string::npos;
       at = trace.find("\"thread_name\"", at + 1)) {
    ++metadata_events;
  }
  EXPECT_EQ(metadata_events, 1u);
  EXPECT_NE(trace.find("\"args\":{\"name\":\"thread\"}"), std::string::npos)
      << trace;
}

// An empty snapshot still renders a valid document (process metadata
// only), so `--trace-chrome-out` never writes malformed JSON.
TEST_F(ObsExportTest, ChromeTraceEmptySnapshotIsValidArray) {
  const std::string trace = RenderChromeTrace({});
  EXPECT_EQ(trace,
            "[{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
            "\"args\":{\"name\":\"boltondp\"}}]\n");
}

}  // namespace
}  // namespace obs
}  // namespace bolton
