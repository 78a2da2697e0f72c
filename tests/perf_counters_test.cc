#include "obs/perf_counters.h"

#include <string>

#include <gtest/gtest.h>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/thread_name.h"

namespace bolton {
namespace obs {
namespace {

/// Burns enough deterministic work that any on-CPU clock must advance.
volatile uint64_t g_sink = 0;
void SpinSomeWork() {
  uint64_t acc = 1;
  for (int i = 0; i < 2000000; ++i) acc = acc * 6364136223846793005ull + 1;
  g_sink = acc;
}

/// The one recorded span named `name`; fails the test when absent.
SpanRecord RecordNamed(const std::string& name) {
  for (const SpanRecord& span : TraceRecorder::Default().Snapshot()) {
    if (span.name == name) return span;
  }
  ADD_FAILURE() << "no span named " << name;
  return SpanRecord();
}

class PerfCountersTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Default().Reset();
    TraceRecorder::Default().Clear();
    SetPerfCountersEnabled(true);
  }
  void TearDown() override {
    internal::ForcePerfUnavailableForTest(false);
    SetPerfCountersEnabled(false);
    SetMetricsEnabled(false);
    TraceRecorder::Default().SetEnabled(false);
    TraceRecorder::Default().Clear();
    MetricsRegistry::Default().Reset();
  }
};

TEST_F(PerfCountersTest, ProbeIsStableAndExplained) {
  const PerfCapability& first = PerfCaps();
  const PerfCapability& second = PerfCaps();
  EXPECT_EQ(&first, &second);  // cached, probed once
  EXPECT_FALSE(first.detail.empty());
}

TEST_F(PerfCountersTest, DisabledPillarYieldsInvalidReadings) {
  SetPerfCountersEnabled(false);
  const PerfReading reading = ReadCurrentThreadPerf();
  EXPECT_FALSE(reading.valid);
  const PerfCounterDelta delta = DeltaBetween(reading, reading);
  EXPECT_FALSE(delta.available);
  EXPECT_EQ(delta.task_clock_ns, 0u);
}

TEST_F(PerfCountersTest, SpanMeasuresOnCpuTimeAtEveryTier) {
  TraceRecorder::Default().SetEnabled(true);
  {
    ScopedSpan span("perf.spin");
    SpinSomeWork();
  }
  const SpanRecord record = RecordNamed("perf.spin");
  ASSERT_TRUE(record.has_counters);
  // task_clock_ns is the tier-independent field: real on-CPU time must
  // have elapsed during the spin, whatever the probe found.
  EXPECT_GT(record.counters.task_clock_ns, 0u);
  if (PerfHardwareAvailable()) {
    EXPECT_TRUE(record.counters.available);
    EXPECT_GT(record.counters.cycles, 0u);
    EXPECT_GT(record.counters.instructions, 0u);
    EXPECT_GT(record.counters.Ipc(), 0.0);
  }
}

TEST_F(PerfCountersTest, ForcedUnavailableFallsBackToTaskClockOnly) {
  internal::ForcePerfUnavailableForTest(true);
  EXPECT_FALSE(PerfHardwareAvailable());
  TraceRecorder::Default().SetEnabled(true);
  {
    ScopedSpan span("perf.spin");
    SpinSomeWork();
  }
  const PerfCounterDelta delta = RecordNamed("perf.spin").counters;
  EXPECT_FALSE(delta.available);
  EXPECT_EQ(delta.cycles, 0u);
  EXPECT_EQ(delta.instructions, 0u);
  // The software clock keeps working: degraded, not blind.
  EXPECT_GT(delta.task_clock_ns, 0u);
  EXPECT_DOUBLE_EQ(delta.Ipc(), 0.0);
  EXPECT_DOUBLE_EQ(delta.CacheMissRate(), 0.0);
}

TEST_F(PerfCountersTest, ForcedUnavailableDrivesPerfAvailableGaugeToZero) {
  SetMetricsEnabled(true);
  internal::ForcePerfUnavailableForTest(true);
  UpdatePerfGauges();
  const MetricsSnapshot snapshot = MetricsRegistry::Default().Snapshot();
  bool found = false;
  for (const auto& [name, value] : snapshot.gauges) {
    if (name == "perf.available") {
      found = true;
      EXPECT_DOUBLE_EQ(value, 0.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(PerfCountersTest, SpanCarriesDeltaAndThreadName) {
  TraceRecorder::Default().SetEnabled(true);
  SetCurrentThreadName("perf-test-main");
  {
    ScopedSpan span("perf.test_span");
    SpinSomeWork();
  }
  const std::vector<SpanRecord> spans = TraceRecorder::Default().Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "perf.test_span");
  EXPECT_EQ(spans[0].thread_name, "perf-test-main");
  EXPECT_EQ(spans[0].count, 1u);
  EXPECT_TRUE(spans[0].has_counters);
  EXPECT_GT(spans[0].counters.task_clock_ns, 0u);
}

TEST_F(PerfCountersTest, NestedSpansAccumulateProcessTotalsOnce) {
  TraceRecorder::Default().SetEnabled(true);
  const PerfCounterDelta before = ProcessPerfTotals();
  {
    ScopedSpan outer("perf.outer");
    {
      ScopedSpan inner("perf.inner");
      SpinSomeWork();
    }
    SpinSomeWork();
  }
  const PerfCounterDelta after = ProcessPerfTotals();
  const uint64_t total_growth = after.task_clock_ns - before.task_clock_ns;
  const PerfCounterDelta outer = RecordNamed("perf.outer").counters;
  const PerfCounterDelta inner = RecordNamed("perf.inner").counters;
  // Only the outermost span feeds the totals: growth equals the outer
  // span's delta exactly, and is strictly less than outer + inner (the
  // double-counting a naive per-span accumulation would produce).
  EXPECT_EQ(total_growth, outer.task_clock_ns);
  EXPECT_GT(inner.task_clock_ns, 0u);
  EXPECT_LT(total_growth, outer.task_clock_ns + inner.task_clock_ns);
}

// The `--metrics`-only path: perf on, tracing off. The span records
// nothing, but its on-CPU time still reaches the process totals behind
// the perf.* gauges.
TEST_F(PerfCountersTest, UntracedSpanRecordsNothingButGrowsTotals) {
  const PerfCounterDelta before = ProcessPerfTotals();
  {
    ScopedSpan span("perf.untraced");
    EXPECT_EQ(span.id(), 0u);
    SpinSomeWork();
  }
  EXPECT_EQ(TraceRecorder::Default().size(), 0u);
  EXPECT_GT(ProcessPerfTotals().task_clock_ns, before.task_clock_ns);
}

TEST_F(PerfCountersTest, NestedSpansLinkParentAndDepth) {
  TraceRecorder::Default().SetEnabled(true);
  uint64_t outer_id = 0;
  uint64_t inner_id = 0;
  {
    ScopedSpan outer("perf.outer");
    outer_id = outer.id();
    {
      ScopedSpan inner("perf.inner");
      inner_id = inner.id();
    }
    ScopedSpan sibling("perf.sibling");
  }
  const SpanRecord outer = RecordNamed("perf.outer");
  const SpanRecord inner = RecordNamed("perf.inner");
  const SpanRecord sibling = RecordNamed("perf.sibling");
  EXPECT_NE(outer_id, 0u);
  EXPECT_EQ(outer.id, outer_id);
  EXPECT_EQ(outer.parent_id, 0u);
  EXPECT_EQ(outer.depth, 0);
  EXPECT_EQ(inner.id, inner_id);
  EXPECT_EQ(inner.parent_id, outer_id);
  EXPECT_EQ(inner.depth, 1);
  // A closed child hands the parent slot back: the next span is a sibling.
  EXPECT_EQ(sibling.parent_id, outer_id);
  EXPECT_EQ(sibling.depth, 1);
  // Children close first and enclose no more time than their parent.
  EXPECT_LE(inner.duration_ns, outer.duration_ns);
  EXPECT_GE(inner.start_ns, outer.start_ns);
  // Every span closed: the thread is back at the root.
  EXPECT_EQ(internal::ThreadState().current_id, 0u);
  EXPECT_EQ(internal::ThreadState().depth, 0);
}

TEST_F(PerfCountersTest, SpanWithEveryPillarOffRecordsNothing) {
  SetAllEnabled(false);
  const PerfCounterDelta before = ProcessPerfTotals();
  {
    ScopedSpan span("perf.off");
    EXPECT_EQ(span.id(), 0u);
    SpinSomeWork();
  }
  EXPECT_EQ(TraceRecorder::Default().size(), 0u);
  const PerfCounterDelta after = ProcessPerfTotals();
  EXPECT_EQ(after.task_clock_ns, before.task_clock_ns);
  EXPECT_EQ(after.cycles, before.cycles);
}

TEST_F(PerfCountersTest, DeltaArithmeticGuardsUnderflow) {
  PerfCounterDelta big;
  big.available = true;
  big.cycles = 100;
  big.task_clock_ns = 1000;
  PerfCounterDelta small;
  small.available = true;
  small.cycles = 250;  // larger than big.cycles
  small.task_clock_ns = 400;
  const PerfCounterDelta diff = big - small;
  EXPECT_EQ(diff.cycles, 0u);  // clamped, never wraps
  EXPECT_EQ(diff.task_clock_ns, 600u);
}

TEST_F(PerfCountersTest, RenderPerfCountersJsonShapes) {
  PerfCounterDelta unavailable;
  unavailable.task_clock_ns = 123;
  EXPECT_EQ(RenderPerfCountersJson(unavailable),
            "{\"available\":false,\"task_clock_ns\":123}");

  PerfCounterDelta hw;
  hw.available = true;
  hw.cycles = 1000;
  hw.instructions = 2500;
  hw.cache_references = 100;
  hw.cache_misses = 10;
  hw.branch_misses = 25;
  hw.task_clock_ns = 500;
  const std::string json = RenderPerfCountersJson(hw);
  EXPECT_NE(json.find("\"available\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cycles\":1000"), std::string::npos);
  EXPECT_NE(json.find("\"ipc\":2.5000"), std::string::npos);
  EXPECT_NE(json.find("\"cache_miss_rate\":0.100000"), std::string::npos);
  EXPECT_NE(json.find("\"branch_miss_rate\":0.010000"), std::string::npos);
}

TEST_F(PerfCountersTest, SpanJsonCarriesThreadNameAndOptionalCounters) {
  SpanRecord span;
  span.name = "psgd.pass";
  span.id = 7;
  span.thread_id = 3;
  span.thread_name = "psgd-shard-2";
  std::string json = RenderSpanJson(span);
  // The JSONL schema checks key on the leading {"name": — keep it first.
  EXPECT_EQ(json.rfind("{\"name\":\"psgd.pass\"", 0), 0u) << json;
  EXPECT_NE(json.find("\"thread_name\":\"psgd-shard-2\""), std::string::npos);
  EXPECT_EQ(json.find("\"counters\""), std::string::npos);

  span.has_counters = true;
  span.counters.task_clock_ns = 42;
  json = RenderSpanJson(span);
  EXPECT_NE(
      json.find("\"counters\":{\"available\":false,\"task_clock_ns\":42}"),
      std::string::npos)
      << json;
}

TEST_F(PerfCountersTest, ThreadNameDefaultsAndRoundTrips) {
  SetCurrentThreadName("counter-thread");
  EXPECT_EQ(CurrentThreadName(), "counter-thread");
  // Longer than the kernel's 15-char limit: the telemetry-side name keeps
  // full fidelity regardless of pthread truncation.
  SetCurrentThreadName("a-very-long-thread-name-indeed");
  EXPECT_EQ(CurrentThreadName(), "a-very-long-thread-name-indeed");
}

}  // namespace
}  // namespace obs
}  // namespace bolton
