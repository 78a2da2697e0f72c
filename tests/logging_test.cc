#include "util/logging.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "util/thread_name.h"

namespace bolton {
namespace {

/// Copies every dispatched event so tests can assert on the envelope.
class CapturingSink : public LogSink {
 public:
  struct Captured {
    LogLevel level;
    uint64_t mono_ns;
    uint64_t thread_id;
    uint64_t span_id;
    std::string thread_name;
    std::string file;
    int line;
    std::string message;
  };

  void Write(const LogEvent& event) override {
    events.push_back({event.level, event.mono_ns, event.thread_id,
                      event.span_id, event.thread_name, event.file, event.line,
                      std::string(event.message, event.message_len)});
  }

  std::vector<Captured> events;
};

/// RAII registration so a failing EXPECT cannot leak the sink into later
/// tests (dispatch would then touch a dead object).
class ScopedSink {
 public:
  explicit ScopedSink(LogSink* sink) : sink_(sink) { AddLogSink(sink_); }
  ~ScopedSink() { RemoveLogSink(sink_); }

 private:
  LogSink* sink_;
};

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Restores the global log level after each test.
class LoggingTest : public ::testing::Test {
 protected:
  void SetUp() override { previous_ = GetLogLevel(); }
  void TearDown() override { SetLogLevel(previous_); }
  LogLevel previous_;
};

TEST_F(LoggingTest, LevelRoundTrips) {
  SetLogLevel(LogLevel::kWarning);
  EXPECT_EQ(GetLogLevel(), LogLevel::kWarning);
  SetLogLevel(LogLevel::kDebug);
  EXPECT_EQ(GetLogLevel(), LogLevel::kDebug);
}

TEST_F(LoggingTest, EmitsAtOrAboveThreshold) {
  SetLogLevel(LogLevel::kInfo);
  ::testing::internal::CaptureStderr();
  BOLTON_LOG(kInfo) << "visible " << 42;
  std::string out = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(out.find("visible 42"), std::string::npos);
  EXPECT_NE(out.find("[I "), std::string::npos);
  EXPECT_NE(out.find("logging_test.cc"), std::string::npos);
}

TEST_F(LoggingTest, SuppressesBelowThreshold) {
  SetLogLevel(LogLevel::kError);
  ::testing::internal::CaptureStderr();
  BOLTON_LOG(kInfo) << "hidden";
  BOLTON_LOG(kWarning) << "also hidden";
  std::string out = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(out.find("hidden"), std::string::npos);
}

TEST_F(LoggingTest, ErrorAlwaysVisibleAtDefault) {
  SetLogLevel(LogLevel::kInfo);
  ::testing::internal::CaptureStderr();
  BOLTON_LOG(kError) << "bad thing";
  std::string out = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(out.find("[E "), std::string::npos);
  EXPECT_NE(out.find("bad thing"), std::string::npos);
}

TEST_F(LoggingTest, TimestampPrefixIsOptIn) {
  SetLogLevel(LogLevel::kInfo);

  ::testing::internal::CaptureStderr();
  BOLTON_LOG(kInfo) << "plain";
  std::string plain = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(plain.find("s t"), std::string::npos);

  SetLogTimestamps(true);
  ::testing::internal::CaptureStderr();
  BOLTON_LOG(kInfo) << "stamped";
  std::string stamped = ::testing::internal::GetCapturedStderr();
  SetLogTimestamps(false);

  // "[I <seconds>s t<tid> logging_test.cc:<line>] stamped"
  EXPECT_NE(stamped.find("[I "), std::string::npos);
  EXPECT_NE(stamped.find("s t"), std::string::npos);
  EXPECT_NE(stamped.find("logging_test.cc"), std::string::npos);
  EXPECT_NE(stamped.find("stamped"), std::string::npos);
}

TEST_F(LoggingTest, LevelTagAndParseRoundTrip) {
  EXPECT_STREQ(LogLevelTag(LogLevel::kDebug), "D");
  EXPECT_STREQ(LogLevelTag(LogLevel::kInfo), "I");
  EXPECT_STREQ(LogLevelTag(LogLevel::kWarning), "W");
  EXPECT_STREQ(LogLevelTag(LogLevel::kError), "E");

  LogLevel level;
  EXPECT_TRUE(ParseLogLevel("W", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("ERROR", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_TRUE(ParseLogLevel("i", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
  EXPECT_FALSE(ParseLogLevel("", &level));
  EXPECT_FALSE(ParseLogLevel("verbose", &level));
}

TEST_F(LoggingTest, SinksReceiveStructuredEvents) {
  SetLogLevel(LogLevel::kInfo);
  SetCurrentThreadName("log-test");
  CapturingSink sink;
  ScopedSink registration(&sink);

  ::testing::internal::CaptureStderr();
  BOLTON_LOG(kWarning) << "structured " << 7;
  const int expected_line = __LINE__ - 1;
  ::testing::internal::GetCapturedStderr();

  ASSERT_EQ(sink.events.size(), 1u);
  const CapturingSink::Captured& event = sink.events[0];
  EXPECT_EQ(event.level, LogLevel::kWarning);
  EXPECT_EQ(event.message, "structured 7");
  EXPECT_EQ(event.file, "logging_test.cc");
  EXPECT_EQ(event.line, expected_line);
  EXPECT_EQ(event.thread_name, "log-test");
  EXPECT_EQ(event.thread_id, CurrentThreadSmallId());
}

TEST_F(LoggingTest, FilteredEventsReachNoSink) {
  SetLogLevel(LogLevel::kError);
  CapturingSink sink;
  ScopedSink registration(&sink);
  BOLTON_LOG(kInfo) << "below threshold";
  BOLTON_LOG(kWarning) << "still below";
  EXPECT_TRUE(sink.events.empty());
}

TEST_F(LoggingTest, RemovedSinkStopsReceiving) {
  SetLogLevel(LogLevel::kInfo);
  CapturingSink sink;
  AddLogSink(&sink);
  AddLogSink(&sink);  // double-add must not double-deliver
  ::testing::internal::CaptureStderr();
  BOLTON_LOG(kInfo) << "while registered";
  RemoveLogSink(&sink);
  BOLTON_LOG(kInfo) << "after removal";
  ::testing::internal::GetCapturedStderr();
  ASSERT_EQ(sink.events.size(), 1u);
  EXPECT_EQ(sink.events[0].message, "while registered");
}

TEST_F(LoggingTest, JsonlSinkWritesOneObjectPerLine) {
  SetLogLevel(LogLevel::kInfo);
  SetCurrentThreadName("jsonl-test");
  const std::string path =
      ::testing::TempDir() + "/logging_test_events.jsonl";
  ASSERT_TRUE(OpenLogJsonlFile(path).ok());

  ::testing::internal::CaptureStderr();
  BOLTON_LOG(kInfo) << "jsonl line with \"quotes\"";
  ::testing::internal::GetCapturedStderr();

  const std::string contents = ReadWholeFile(path);
  EXPECT_NE(contents.find("\"level\":\"I\""), std::string::npos);
  EXPECT_NE(contents.find("\"thread\":\"jsonl-test\""), std::string::npos);
  EXPECT_NE(contents.find("\"file\":\"logging_test.cc\""), std::string::npos);
  EXPECT_NE(contents.find("\"msg\":\"jsonl line with \\\"quotes\\\"\""),
            std::string::npos);
  EXPECT_NE(contents.find("\"mono_ns\":"), std::string::npos);
  EXPECT_NE(contents.find("\"span\":"), std::string::npos);

  // Redirect the process-lifetime sink at /dev/null so later tests (and
  // later suites in this binary) stop appending to the temp file.
  ASSERT_TRUE(OpenLogJsonlFile("/dev/null").ok());
  std::remove(path.c_str());
}

TEST_F(LoggingTest, LogEventsCarryCurrentSpanId) {
  SetLogLevel(LogLevel::kInfo);
  obs::SetTracingEnabled(true);
  CapturingSink sink;
  ScopedSink registration(&sink);

  ::testing::internal::CaptureStderr();
  BOLTON_LOG(kInfo) << "outside";
  {
    obs::ScopedSpan span("logging-test-span");
    BOLTON_LOG(kInfo) << "inside";
  }
  BOLTON_LOG(kInfo) << "outside again";
  ::testing::internal::GetCapturedStderr();
  obs::SetTracingEnabled(false);

  ASSERT_EQ(sink.events.size(), 3u);
  EXPECT_EQ(sink.events[0].span_id, 0u);
  EXPECT_NE(sink.events[1].span_id, 0u);
  EXPECT_EQ(sink.events[2].span_id, 0u);
}

TEST_F(LoggingTest, LogEveryNEmitsFirstAndEveryNth) {
  SetLogLevel(LogLevel::kInfo);
  CapturingSink sink;
  ScopedSink registration(&sink);
  ::testing::internal::CaptureStderr();
  for (int i = 0; i < 10; ++i) {
    BOLTON_LOG_EVERY_N(kInfo, 4) << "hit " << i;
  }
  ::testing::internal::GetCapturedStderr();
  ASSERT_EQ(sink.events.size(), 3u);  // hits 0, 4, 8
  EXPECT_EQ(sink.events[0].message, "hit 0");
  EXPECT_EQ(sink.events[1].message, "hit 4");
  EXPECT_EQ(sink.events[2].message, "hit 8");
}

TEST_F(LoggingTest, LogFirstNEmitsOnlyTheFirstN) {
  SetLogLevel(LogLevel::kInfo);
  CapturingSink sink;
  ScopedSink registration(&sink);
  ::testing::internal::CaptureStderr();
  for (int i = 0; i < 10; ++i) {
    BOLTON_LOG_FIRST_N(kInfo, 2) << "first " << i;
  }
  ::testing::internal::GetCapturedStderr();
  ASSERT_EQ(sink.events.size(), 2u);
  EXPECT_EQ(sink.events[0].message, "first 0");
  EXPECT_EQ(sink.events[1].message, "first 1");
}

TEST_F(LoggingTest, FlightRecorderRetainsRecentLogs) {
  SetLogLevel(LogLevel::kInfo);
  obs::FlightRecorder& recorder = obs::FlightRecorder::Default();
  const obs::RingStats before = recorder.LogRingStats();

  // Overfill the ring so wrap-around accounting is exercised.
  const size_t total = obs::FlightRecorder::kLogSlots + 50;
  ::testing::internal::CaptureStderr();
  for (size_t i = 0; i < total; ++i) {
    BOLTON_LOG(kInfo) << "ring event " << i;
  }
  ::testing::internal::GetCapturedStderr();

  const obs::RingStats after = recorder.LogRingStats();
  EXPECT_EQ(after.capacity, obs::FlightRecorder::kLogSlots);
  EXPECT_GE(after.appended - before.appended, total);

  std::vector<obs::RecordedLogEvent> logs =
      recorder.RecentLogs(obs::FlightRecorder::kLogSlots, LogLevel::kDebug);
  EXPECT_LE(logs.size(), obs::FlightRecorder::kLogSlots);
  ASSERT_FALSE(logs.empty());
  // Oldest-first: the newest retained event is the last one logged.
  EXPECT_EQ(logs.back().message, "ring event " + std::to_string(total - 1));
  EXPECT_EQ(logs.back().file, "logging_test.cc");
  // The first 50 events were overwritten by the wrap.
  EXPECT_NE(logs.front().message, "ring event 0");
  for (size_t i = 1; i < logs.size(); ++i) {
    EXPECT_LT(logs[i - 1].seq, logs[i].seq);
  }
}

TEST_F(LoggingTest, FlightRecorderFiltersByLevelAndCapsCount) {
  SetLogLevel(LogLevel::kInfo);
  obs::FlightRecorder& recorder = obs::FlightRecorder::Default();
  ::testing::internal::CaptureStderr();
  BOLTON_LOG(kInfo) << "fr info event";
  BOLTON_LOG(kWarning) << "fr warning event";
  BOLTON_LOG(kError) << "fr error event";
  ::testing::internal::GetCapturedStderr();

  std::vector<obs::RecordedLogEvent> errors =
      recorder.RecentLogs(obs::FlightRecorder::kLogSlots, LogLevel::kError);
  ASSERT_FALSE(errors.empty());
  for (const obs::RecordedLogEvent& event : errors) {
    EXPECT_GE(static_cast<int>(event.level),
              static_cast<int>(LogLevel::kError));
  }
  EXPECT_EQ(errors.back().message, "fr error event");

  std::vector<obs::RecordedLogEvent> one =
      recorder.RecentLogs(1, LogLevel::kDebug);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].message, "fr error event");
}

TEST(CheckTest, PassingCheckIsSilent) {
  // BOLTON_CHECK(true) must not abort or print.
  ::testing::internal::CaptureStderr();
  BOLTON_CHECK(1 + 1 == 2);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST(CheckDeathTest, FailingCheckAborts) {
  EXPECT_DEATH(BOLTON_CHECK(false), "check failed: false");
}

}  // namespace
}  // namespace bolton
