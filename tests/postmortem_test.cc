#include "obs/postmortem.h"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/build_info.h"
#include "obs/trace.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/thread_name.h"

// Death tests fork the process mid-run, which ThreadSanitizer's runtime
// does not support reliably (the forked child inherits TSan's internal
// locks). The crash paths themselves are single-threaded by construction;
// they are exercised without TSan here and the ring's concurrency is
// covered by logging_test under TSan.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BOLTON_TSAN 1
#endif
#endif

namespace bolton {
namespace obs {
namespace {

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool FileExists(const std::string& path) {
  struct stat st;
  return stat(path.c_str(), &st) == 0;
}

std::string FreshDir(const char* tag) {
  std::string dir = ::testing::TempDir() + "/postmortem_" + tag;
  std::remove((dir + "/postmortem.raw").c_str());
  std::remove((dir + "/postmortem.json").c_str());
  return dir;
}

/// Runs in the death-test child: arm the handler, leave some evidence in
/// the flight recorder, open a span, then die by `signal_number`.
[[noreturn]] void CrashWith(int signal_number, const std::string& dir) {
  SetCurrentThreadName("crasher");
  PostmortemOptions options;
  options.dir = dir;
  InstallCrashHandler(options).CheckOK();
  FailpointRegistry::Default()
      .Configure("psgd.pass:error@7")
      .CheckOK();
  BOLTON_LOG(kInfo) << "about to crash with signal " << signal_number;
  SetTracingEnabled(true);
  SetPerfCountersEnabled(true);
  ScopedSpan span("doomed-span");
  { ScopedSpan finished("finished-span"); }
  raise(signal_number);
  // The handler re-raises with SIG_DFL; we never get here.
  _exit(97);
}

void ExpectPostmortemJsonCommon(const std::string& json) {
  EXPECT_NE(json.find("\"schema\":\"bolton-postmortem-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"backtrace\":["), std::string::npos);
  // At least one frame resolved to a module (the test binary itself).
  EXPECT_NE(json.find("\"module\":\""), std::string::npos);
  EXPECT_NE(json.find("\"recent_logs\":["), std::string::npos);
  EXPECT_NE(json.find("about to crash"), std::string::npos);
  EXPECT_NE(json.find("\"log_ring\":{"), std::string::npos);
  EXPECT_NE(json.find("\"build\":{"), std::string::npos);
  EXPECT_NE(json.find("\"git_sha\":\""), std::string::npos);
  EXPECT_NE(json.find("\"peak_rss_bytes\":"), std::string::npos);
  EXPECT_NE(json.find("\"failpoints\":\"psgd.pass:error@7\""),
            std::string::npos);
}

TEST(PostmortemRenderTest, RendersEveryReportSection) {
  PostmortemReport report;
  report.reason = "signal";
  report.signal_number = 11;
  report.signal_name = "SIGSEGV";
  report.fault_addr = "0xdeadbeef";
  report.mono_ns = 123;
  report.thread_id = 4;
  report.thread_name = "worker";
  PostmortemReport::Frame frame;
  frame.module = "/bin/test";
  frame.offset = 0x1234;
  frame.pc = 0x55550000;
  frame.symbol = "DoWork()";
  frame.resolved = true;
  report.frames.push_back(frame);
  report.active_spans.push_back({9, "train"});
  RecordedLogEvent log;
  log.seq = 1;
  log.message = "last words";
  report.recent_logs.push_back(log);
  report.log_ring = {256, 10, 0};
  report.span_ring = {128, 2, 0};
  report.peak_rss_bytes = 4096;
  report.failpoints = "a:panic@1";

  const std::string json = RenderPostmortemJson(report);
  EXPECT_NE(json.find("\"schema\":\"bolton-postmortem-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"reason\":\"signal\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"SIGSEGV\""), std::string::npos);
  EXPECT_NE(json.find("\"fault_addr\":\"0xdeadbeef\""), std::string::npos);
  EXPECT_NE(json.find("\"symbol\":\"DoWork()\""), std::string::npos);
  EXPECT_NE(json.find("\"active_spans\":["), std::string::npos);
  EXPECT_NE(json.find("\"train\""), std::string::npos);
  EXPECT_NE(json.find("last words"), std::string::npos);
  EXPECT_NE(json.find("\"peak_rss_bytes\":4096"), std::string::npos);
  EXPECT_NE(json.find("\"failpoints\":\"a:panic@1\""), std::string::npos);
  // Build identity is stamped into every report by the renderer.
  EXPECT_NE(json.find("\"git_sha\":\"" + GetBuildInfo().git_sha + "\""),
            std::string::npos);
}

TEST(PostmortemFinalizeTest, NoCrashDataIsNotFound) {
  const std::string dir = FreshDir("empty");
  mkdir(dir.c_str(), 0755);
  Status status = FinalizePostmortem(dir);
  EXPECT_FALSE(status.ok());
}

#if !defined(BOLTON_TSAN)

class PostmortemSignalDeathTest
    : public ::testing::TestWithParam<std::pair<int, const char*>> {};

TEST_P(PostmortemSignalDeathTest, SignalLeavesFinalizablePostmortem) {
  const int signal_number = GetParam().first;
  const char* signal_name = GetParam().second;
  const std::string dir = FreshDir(signal_name);

  EXPECT_EXIT(CrashWith(signal_number, dir),
              ::testing::KilledBySignal(signal_number), "");

  ASSERT_TRUE(FileExists(dir + "/postmortem.raw"));
  ASSERT_TRUE(FinalizePostmortem(dir).ok());
  const std::string json = ReadWholeFile(dir + "/postmortem.json");
  ExpectPostmortemJsonCommon(json);
  EXPECT_NE(json.find("\"reason\":\"signal\""), std::string::npos);
  EXPECT_NE(json.find(std::string("\"name\":\"") + signal_name + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"thread_name\":\"crasher\""), std::string::npos);
  EXPECT_NE(json.find("doomed-span"), std::string::npos);
  // The finished child comes back from the raw ring dump whole: depth and
  // counter delta included.
  const size_t finished = json.find("{\"name\":\"finished-span\"");
  ASSERT_NE(finished, std::string::npos) << json;
  const std::string record =
      json.substr(finished, json.find('}', finished) - finished);
  EXPECT_NE(record.find("\"depth\":1,"), std::string::npos) << record;
  EXPECT_NE(record.find("\"counters\":{\"available\":"), std::string::npos)
      << record;
}

INSTANTIATE_TEST_SUITE_P(
    AllFatalSignals, PostmortemSignalDeathTest,
    ::testing::Values(std::make_pair(SIGSEGV, "SIGSEGV"),
                      std::make_pair(SIGBUS, "SIGBUS"),
                      std::make_pair(SIGFPE, "SIGFPE"),
                      std::make_pair(SIGILL, "SIGILL"),
                      std::make_pair(SIGABRT, "SIGABRT")),
    [](const ::testing::TestParamInfo<std::pair<int, const char*>>& info) {
      return info.param.second;
    });

TEST(PostmortemCheckDeathTest, CheckFailureWritesJsonInProcess) {
  const std::string dir = FreshDir("check");

  EXPECT_DEATH(
      {
        SetCurrentThreadName("crasher");
        PostmortemOptions options;
        options.dir = dir;
        InstallCrashHandler(options).CheckOK();
        FailpointRegistry::Default()
            .Configure("psgd.pass:error@7")
            .CheckOK();
        BOLTON_LOG(kInfo) << "about to crash with a failed check";
        BOLTON_CHECK(2 + 2 == 5);
      },
      "check failed: 2 \\+ 2 == 5");

  // The fatal hook writes the full report before abort(); no finalize
  // step is required, but running it anyway must succeed (idempotence).
  ASSERT_TRUE(FileExists(dir + "/postmortem.json"));
  ASSERT_TRUE(FinalizePostmortem(dir).ok());
  const std::string json = ReadWholeFile(dir + "/postmortem.json");
  ExpectPostmortemJsonCommon(json);
  EXPECT_NE(json.find("\"reason\":\"check_failure\""), std::string::npos);
  EXPECT_NE(json.find("check failed: 2 + 2 == 5"), std::string::npos);
}

TEST(PostmortemFailpointDeathTest, ArmedPanicLeavesPostmortem) {
  const std::string dir = FreshDir("failpoint");

  EXPECT_EXIT(
      {
        SetCurrentThreadName("crasher");
        PostmortemOptions options;
        options.dir = dir;
        InstallCrashHandler(options).CheckOK();
        FailpointRegistry::Default()
            .Configure("test.site:panic@1")
            .CheckOK();
        BOLTON_LOG(kInfo) << "about to crash via failpoint";
        Status ignored = FailpointRegistry::Default().Evaluate("test.site");
        (void)ignored;
        _exit(97);  // the panic action must have killed us already
      },
      ::testing::KilledBySignal(SIGABRT), "");

  ASSERT_TRUE(FinalizePostmortem(dir).ok());
  const std::string json = ReadWholeFile(dir + "/postmortem.json");
  EXPECT_NE(json.find("\"schema\":\"bolton-postmortem-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("about to crash via failpoint"), std::string::npos);
  EXPECT_NE(json.find("\"failpoints\":\"test.site:panic@1\""),
            std::string::npos);
}

#endif  // !defined(BOLTON_TSAN)

}  // namespace
}  // namespace obs
}  // namespace bolton
