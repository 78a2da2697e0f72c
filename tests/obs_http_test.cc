#include "obs/http_server.h"

#include <atomic>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/build_info.h"
#include "obs/flight_recorder.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/net.h"
#include "util/strings.h"
#include "util/thread_name.h"

namespace bolton {
namespace obs {
namespace {

/// Raw-socket HTTP client: one GET, reads to EOF, splits head from body.
struct HttpResponse {
  int status = 0;
  std::string head;
  std::string body;
};

HttpResponse Get(int port, const std::string& target) {
  HttpResponse out;
  auto fd = net::ConnectTcp(static_cast<uint16_t>(port));
  if (!fd.ok()) {
    ADD_FAILURE() << "connect: " << fd.status().ToString();
    return out;
  }
  const std::string request = StrFormat(
      "GET %s HTTP/1.0\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n",
      target.c_str());
  Status sent = net::SendAll(fd.value(), request.data(), request.size());
  if (!sent.ok()) {
    ADD_FAILURE() << "send: " << sent.ToString();
    net::CloseFd(fd.value());
    return out;
  }
  auto response = net::RecvAll(fd.value(), 16 * 1024 * 1024);
  net::CloseFd(fd.value());
  if (!response.ok()) {
    ADD_FAILURE() << "recv: " << response.status().ToString();
    return out;
  }
  const std::string& text = response.value();
  const size_t split = text.find("\r\n\r\n");
  out.head = split == std::string::npos ? text : text.substr(0, split);
  out.body = split == std::string::npos ? "" : text.substr(split + 4);
  // "HTTP/1.0 200 OK" -> 200.
  std::vector<std::string> parts = StrSplit(out.head, ' ');
  if (parts.size() >= 2) {
    auto code = ParseInt(parts[1]);
    if (code.ok()) out.status = static_cast<int>(code.value());
  }
  return out;
}

/// One parsed exposition sample: name, optional {label="value"} pairs, and
/// the sample value.
struct Sample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0.0;
};

/// Small Prometheus text-exposition parser: skips # comment lines,
/// validates sample-line shape, returns samples in order. Marks
/// `*parse_ok` false on any malformed line.
std::vector<Sample> ParseExposition(const std::string& body, bool* parse_ok) {
  *parse_ok = true;
  std::vector<Sample> samples;
  for (const std::string& line : StrSplit(body, '\n')) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      // Comment lines must be "# TYPE <name> <kind>" or "# HELP ...".
      if (!StartsWith(line, "# TYPE ") && !StartsWith(line, "# HELP ")) {
        *parse_ok = false;
      }
      continue;
    }
    Sample sample;
    std::string rest = line;
    const size_t brace = rest.find('{');
    const size_t space = rest.find(' ');
    if (brace != std::string::npos && brace < space) {
      const size_t close = rest.find('}');
      if (close == std::string::npos || close + 2 > rest.size()) {
        *parse_ok = false;
        continue;
      }
      sample.name = rest.substr(0, brace);
      // label="value" pairs, comma-separated.
      for (const std::string& pair :
           StrSplit(rest.substr(brace + 1, close - brace - 1), ',')) {
        const size_t eq = pair.find("=\"");
        if (eq == std::string::npos || pair.back() != '"') {
          *parse_ok = false;
          continue;
        }
        sample.labels[pair.substr(0, eq)] =
            pair.substr(eq + 2, pair.size() - eq - 3);
      }
      rest = rest.substr(close + 1);
      if (!rest.empty() && rest[0] == ' ') rest = rest.substr(1);
    } else {
      if (space == std::string::npos) {
        *parse_ok = false;
        continue;
      }
      sample.name = rest.substr(0, space);
      rest = rest.substr(space + 1);
    }
    char* end = nullptr;
    sample.value = std::strtod(rest.c_str(), &end);
    if (end == rest.c_str()) *parse_ok = false;
    samples.push_back(std::move(sample));
  }
  return samples;
}

class ObsHttpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Default().Reset();
    PrivacyLedger::Default().Clear();
    TraceRecorder::Default().Clear();
    SetAllEnabled(true);
    auto server = ObsServer::Start({.port = 0});  // ephemeral port
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = server.MoveValue();
    ASSERT_GT(server_->port(), 0);
  }
  void TearDown() override {
    server_.reset();
    SetAllEnabled(false);
    MetricsRegistry::Default().Reset();
    PrivacyLedger::Default().Clear();
    TraceRecorder::Default().Clear();
  }

  std::unique_ptr<ObsServer> server_;
};

TEST_F(ObsHttpTest, MetricsScrapeIsValidExposition) {
  MetricsRegistry::Default().GetCounter("gradient_evaluations")
      ->Increment(123);
  MetricsRegistry::Default().GetGauge("privacy.epsilon_spent")->Set(0.75);
  Histogram* h = MetricsRegistry::Default().GetHistogram(
      "psgd.pass_seconds", {0.1, 1.0});
  h->Observe(0.05);
  h->Observe(0.5);
  h->Observe(10.0);

  HttpResponse response = Get(server_->port(), "/metrics");
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.head.find("text/plain; version=0.0.4"),
            std::string::npos)
      << response.head;

  bool parse_ok = false;
  std::vector<Sample> samples = ParseExposition(response.body, &parse_ok);
  EXPECT_TRUE(parse_ok) << response.body;
  ASSERT_FALSE(samples.empty());

  std::map<std::string, Sample> by_key;
  std::vector<double> buckets;  // psgd_pass_seconds cumulative series
  for (const Sample& s : samples) {
    std::string key = s.name;
    for (const auto& [k, v] : s.labels) key += "{" + k + "=" + v + "}";
    by_key[key] = s;
    if (s.name == "psgd_pass_seconds_bucket") buckets.push_back(s.value);
  }
  EXPECT_EQ(by_key["gradient_evaluations"].value, 123);
  EXPECT_EQ(by_key["privacy_epsilon_spent"].value, 0.75);

  // Histogram contract: cumulative non-decreasing buckets, +Inf == _count,
  // _sum matches the observations.
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0], 1);  // <= 0.1
  EXPECT_EQ(buckets[1], 2);  // <= 1.0 (cumulative)
  EXPECT_EQ(buckets[2], 3);  // +Inf
  for (size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_GE(buckets[i], buckets[i - 1]);
  }
  EXPECT_EQ(by_key["psgd_pass_seconds_bucket{le=+Inf}"].value,
            by_key["psgd_pass_seconds_count"].value);
  EXPECT_DOUBLE_EQ(by_key["psgd_pass_seconds_sum"].value, 10.55);
  // Derived quantile gauges ride along.
  EXPECT_TRUE(by_key.count("psgd_pass_seconds_p50"));
  EXPECT_TRUE(by_key.count("psgd_pass_seconds_p95"));
  EXPECT_TRUE(by_key.count("psgd_pass_seconds_p99"));
}

TEST_F(ObsHttpTest, HealthzReportsLivenessAndSpendTotals) {
  LedgerEvent charge;
  charge.kind = "accountant_charge";
  charge.epsilon = 0.5;
  PrivacyLedger::Default().Record(charge);
  LedgerEvent draw;
  draw.kind = "noise_draw";
  draw.epsilon = 1.0;
  PrivacyLedger::Default().Record(draw);

  HttpResponse response = Get(server_->port(), "/healthz");
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.head.find("application/json"), std::string::npos);
  EXPECT_NE(response.body.find("\"status\":\"ok\""), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"uptime_ns\":"), std::string::npos);
  EXPECT_NE(response.body.find("\"noise_draws\":1"), std::string::npos);
  EXPECT_NE(response.body.find("\"charges\":1"), std::string::npos);
  EXPECT_NE(response.body.find("\"epsilon_charged\":0.5"),
            std::string::npos);
}

TEST_F(ObsHttpTest, LedgerTailReturnsLastNEvents) {
  for (int i = 0; i < 5; ++i) {
    LedgerEvent event;
    event.kind = "noise_draw";
    event.label = StrFormat("draw%d", i);
    PrivacyLedger::Default().Record(event);
  }
  HttpResponse response = Get(server_->port(), "/ledger?tail=2");
  ASSERT_EQ(response.status, 200);
  std::vector<std::string> lines;
  for (const std::string& line : StrSplit(response.body, '\n')) {
    if (!line.empty()) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 2u) << response.body;
  EXPECT_NE(lines[0].find("\"seq\":4"), std::string::npos);
  EXPECT_NE(lines[1].find("\"seq\":5"), std::string::npos);
  EXPECT_NE(lines[1].find("\"label\":\"draw4\""), std::string::npos);

  // tail=0 means everything.
  HttpResponse all = Get(server_->port(), "/ledger?tail=0");
  int count = 0;
  for (const std::string& line : StrSplit(all.body, '\n')) {
    if (!line.empty()) ++count;
  }
  EXPECT_EQ(count, 5);
}

TEST_F(ObsHttpTest, LedgerTailRejectsMalformedValues) {
  EXPECT_EQ(Get(server_->port(), "/ledger?tail=abc").status, 400);
  EXPECT_EQ(Get(server_->port(), "/ledger?tail=-1").status, 400);
  EXPECT_EQ(Get(server_->port(), "/ledger?tail=").status, 400);
  HttpResponse response = Get(server_->port(), "/ledger?tail=abc");
  EXPECT_NE(response.body.find("tail must be"), std::string::npos)
      << response.body;
  // A well-formed request still works afterwards.
  EXPECT_EQ(Get(server_->port(), "/ledger?tail=10").status, 200);
}

TEST_F(ObsHttpTest, ProfileRejectsMalformedParams) {
  EXPECT_EQ(Get(server_->port(), "/profile?seconds=abc").status, 400);
  EXPECT_EQ(Get(server_->port(), "/profile?seconds=-1").status, 400);
  EXPECT_EQ(Get(server_->port(), "/profile?seconds=61").status, 400);
  EXPECT_EQ(Get(server_->port(), "/profile?seconds=1&hz=0").status, 400);
  EXPECT_EQ(Get(server_->port(), "/profile?seconds=1&hz=2000").status, 400);
  EXPECT_EQ(Get(server_->port(), "/profile?seconds=1&top=0").status, 400);
  EXPECT_EQ(Get(server_->port(), "/profile?seconds=1&format=xml").status,
            400);
}

TEST_F(ObsHttpTest, ProfileSnapshotWithoutRunningProfilerIs400) {
  HttpResponse response = Get(server_->port(), "/profile?seconds=0");
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("none is running"), std::string::npos)
      << response.body;
}

TEST_F(ObsHttpTest, ProfileTimedRequestIs503WhileProfilerBusy) {
  // An externally started session occupies the one global profiler; a
  // timed request must answer 503 instead of silently stealing it, while
  // seconds=0 reads the live session.
  ASSERT_TRUE(Profiler::Default().Start().ok());
  EXPECT_EQ(Get(server_->port(), "/profile?seconds=5").status, 503);
  HttpResponse live = Get(server_->port(), "/profile?seconds=0&format=json");
  EXPECT_EQ(live.status, 200);
  EXPECT_NE(live.body.find("\"schema\":\"boltondp-profile-v1\""),
            std::string::npos)
      << live.body;
  ASSERT_TRUE(Profiler::Default().Stop().ok());
}

TEST_F(ObsHttpTest, ProfileTimedWindowReturnsCollapsedStacks) {
  // Keep the server's request thread sampled: the window covers whatever
  // the process does during it, which here is this thread burning CPU.
  std::atomic<bool> done{false};
  std::thread burner([&done] {
    ProfiledThreadScope scope;
    volatile double acc = 0.0;
    while (!done.load()) {
      for (int i = 0; i < 4000; ++i) acc = acc + i * 0.5;
    }
  });
  HttpResponse response = Get(server_->port(), "/profile?seconds=1&hz=499");
  done.store(true);
  burner.join();
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.head.find("text/plain"), std::string::npos);
  // Collapsed line shape: "frame;frame;... COUNT".
  EXPECT_FALSE(response.body.empty());
  const std::string first_line =
      response.body.substr(0, response.body.find('\n'));
  EXPECT_NE(first_line.rfind(' '), std::string::npos) << first_line;
  EXPECT_FALSE(Profiler::Default().running());
}

TEST_F(ObsHttpTest, SpansEndpointDumpsCompletedSpans) {
  { ScopedSpan span("http_test.work"); }
  HttpResponse response = Get(server_->port(), "/spans");
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"name\":\"http_test.work\""),
            std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"start_ns\":"), std::string::npos);
  EXPECT_NE(response.body.find("\"parent\":"), std::string::npos);
}

TEST_F(ObsHttpTest, SpansChromeFormatRendersTraceEventJson) {
  SetCurrentThreadName("http-test");
  { ScopedSpan span("http_test.chrome"); }
  HttpResponse response = Get(server_->port(), "/spans?format=chrome");
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.head.find("application/json"), std::string::npos);
  EXPECT_EQ(response.body.front(), '[');
  EXPECT_NE(response.body.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(response.body.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(response.body.find("\"name\":\"http-test\""), std::string::npos)
      << response.body;

  // Unknown formats are a client error, not silently the default.
  EXPECT_EQ(Get(server_->port(), "/spans?format=nope").status, 400);
}

TEST_F(ObsHttpTest, LogzServesRecentLogsAsJsonl) {
  ::testing::internal::CaptureStderr();
  BOLTON_LOG(kInfo) << "logz marker info";
  BOLTON_LOG(kWarning) << "logz marker warning";
  ::testing::internal::GetCapturedStderr();

  HttpResponse response = Get(server_->port(), "/logz");
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.head.find("application/jsonl"), std::string::npos);
  EXPECT_NE(response.body.find("logz marker info"), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("logz marker warning"), std::string::npos);
  EXPECT_NE(response.body.find("\"mono_ns\":"), std::string::npos);
  EXPECT_NE(response.body.find("\"level\":\"W\""), std::string::npos);

  // tail caps the event count; level filters below-threshold events out.
  HttpResponse one = Get(server_->port(), "/logz?tail=1");
  ASSERT_EQ(one.status, 200);
  int lines = 0;
  for (const std::string& line : StrSplit(one.body, '\n')) {
    if (!line.empty()) ++lines;
  }
  EXPECT_EQ(lines, 1);
  HttpResponse warnings = Get(server_->port(), "/logz?level=W");
  ASSERT_EQ(warnings.status, 200);
  EXPECT_EQ(warnings.body.find("\"level\":\"I\""), std::string::npos)
      << warnings.body;
  EXPECT_NE(warnings.body.find("logz marker warning"), std::string::npos);
}

TEST_F(ObsHttpTest, LogzRejectsMalformedParams) {
  EXPECT_EQ(Get(server_->port(), "/logz?tail=abc").status, 400);
  EXPECT_EQ(Get(server_->port(), "/logz?tail=-1").status, 400);
  EXPECT_EQ(Get(server_->port(), "/logz?level=verbose").status, 400);
  // A well-formed request still works afterwards.
  EXPECT_EQ(Get(server_->port(), "/logz?tail=5&level=D").status, 200);
}

TEST_F(ObsHttpTest, FlightRecorderEndpointDumpsRingsAndMetrics) {
  MetricsRegistry::Default().GetCounter("flightrec.test_counter")
      ->Increment(3);
  ::testing::internal::CaptureStderr();
  BOLTON_LOG(kInfo) << "flightrecorder marker";
  ::testing::internal::GetCapturedStderr();
  { ScopedSpan span("flightrec.span"); }

  HttpResponse response = Get(server_->port(), "/flightrecorder");
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.head.find("application/json"), std::string::npos);
  EXPECT_NE(response.body.find("\"schema\":\"bolton-flightrecorder-v1\""),
            std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"log_ring\":{"), std::string::npos);
  EXPECT_NE(response.body.find("\"span_ring\":{"), std::string::npos);
  EXPECT_NE(response.body.find("flightrecorder marker"), std::string::npos);
  EXPECT_NE(response.body.find("flightrec.span"), std::string::npos);
  // The endpoint refreshes the metrics snapshot before rendering.
  EXPECT_NE(response.body.find("flightrec.test_counter"), std::string::npos);
}

TEST_F(ObsHttpTest, BuildzReportsBuildIdentity) {
  HttpResponse response = Get(server_->port(), "/buildz");
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.head.find("application/json"), std::string::npos);
  EXPECT_NE(response.body.find("\"git_sha\":\""), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"compiler\":\""), std::string::npos);
  EXPECT_NE(response.body.find("\"simd\":\""), std::string::npos);
  EXPECT_NE(response.body.find("\"perf_tier\":\""), std::string::npos);
  // The body matches the library's own rendering (one rendering path).
  EXPECT_EQ(response.body, RenderBuildInfoJson() + "\n");
}

TEST_F(ObsHttpTest, UnknownPathIs404AndPostIs405) {
  EXPECT_EQ(Get(server_->port(), "/nope").status, 404);

  auto fd = net::ConnectTcp(static_cast<uint16_t>(server_->port()));
  ASSERT_TRUE(fd.ok());
  const std::string request =
      "POST /metrics HTTP/1.0\r\nHost: x\r\nContent-Length: 0\r\n\r\n";
  ASSERT_TRUE(net::SendAll(fd.value(), request.data(), request.size()).ok());
  auto response = net::RecvAll(fd.value(), 1 << 20);
  net::CloseFd(fd.value());
  ASSERT_TRUE(response.ok());
  EXPECT_NE(response.value().find("405"), std::string::npos);
  EXPECT_NE(response.value().find("Allow: GET"), std::string::npos);
}

TEST_F(ObsHttpTest, RegisteredHandlerReplacesBuiltin) {
  server_->RegisterHandler("GET", "/buildz", [](const HttpRequest&) {
    obs::HttpResponse response;
    response.body = "replaced\n";
    return response;
  });
  const HttpResponse response = Get(server_->port(), "/buildz");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "replaced\n");
}

TEST_F(ObsHttpTest, QuitEndpointUnblocksWaitForQuit) {
  EXPECT_FALSE(server_->quit_requested());
  EXPECT_FALSE(server_->WaitForQuit(10));  // times out, no quit yet
  EXPECT_EQ(Get(server_->port(), "/quitquitquit").status, 200);
  EXPECT_TRUE(server_->WaitForQuit(5000));
  EXPECT_TRUE(server_->quit_requested());
}

TEST_F(ObsHttpTest, ScrapesWhileRecordingThreadsAreHot) {
  // The TSan pass leans on this: scrape repeatedly while other threads
  // hammer the lock-free recording paths.
  Counter* c = MetricsRegistry::Default().GetCounter("hot.counter");
  Histogram* h =
      MetricsRegistry::Default().GetHistogram("hot.hist", {1.0, 2.0});
  std::atomic<bool> done{false};
  std::thread writer([&] {
    while (!done.load()) {
      c->Increment();
      h->Observe(1.5);
      LedgerEvent event;
      event.kind = "noise_draw";
      PrivacyLedger::Default().Record(event);
    }
  });
  for (int i = 0; i < 20; ++i) {
    HttpResponse response = Get(server_->port(), "/metrics");
    EXPECT_EQ(response.status, 200);
  }
  done.store(true);
  writer.join();
  HttpResponse response = Get(server_->port(), "/metrics");
  EXPECT_NE(response.body.find("hot_counter"), std::string::npos);
}

TEST_F(ObsHttpTest, SilentClientIsDroppedAndServerStaysResponsive) {
  // A slow-loris peer: connects, never sends a byte. With a short
  // per-connection deadline the server must hang up on it and keep
  // serving other clients instead of wedging its accept loop.
  auto short_server = ObsServer::Start({.port = 0, .io_timeout_ms = 100});
  ASSERT_TRUE(short_server.ok()) << short_server.status().ToString();
  const int port = short_server.value()->port();

  auto silent = net::ConnectTcp(static_cast<uint16_t>(port));
  ASSERT_TRUE(silent.ok());
  // The server drops us without an answer: EOF, not a 2s client timeout.
  auto nothing = net::RecvAll(silent.value(), 1 << 20, /*timeout_ms=*/2000);
  net::CloseFd(silent.value());
  ASSERT_TRUE(nothing.ok()) << nothing.status().ToString();
  EXPECT_TRUE(nothing.value().empty());

  // And the next client is served normally.
  EXPECT_EQ(Get(port, "/healthz").status, 200);
}

TEST_F(ObsHttpTest, ClientStallingMidRequestHeadIsDropped) {
  // Worse than the silent peer: this one sends HALF a request line and
  // then stalls, so the server is already inside its head-read loop when
  // the poll deadline has to fire.
  auto short_server = ObsServer::Start({.port = 0, .io_timeout_ms = 100});
  ASSERT_TRUE(short_server.ok()) << short_server.status().ToString();
  const int port = short_server.value()->port();

  auto staller = net::ConnectTcp(static_cast<uint16_t>(port));
  ASSERT_TRUE(staller.ok());
  const std::string partial = "GET /metr";
  ASSERT_TRUE(
      net::SendAll(staller.value(), partial.data(), partial.size()).ok());
  // No terminator ever arrives; the server must hang up (EOF) within its
  // deadline, well before our 2s client-side cap.
  auto nothing = net::RecvAll(staller.value(), 1 << 20, /*timeout_ms=*/2000);
  net::CloseFd(staller.value());
  ASSERT_TRUE(nothing.ok()) << nothing.status().ToString();
  EXPECT_TRUE(nothing.value().empty()) << nothing.value();

  // The accept loop survived: the next request is answered.
  EXPECT_EQ(Get(port, "/healthz").status, 200);
}

TEST_F(ObsHttpTest, UnterminatedOversizedHeadIsRejectedWith400) {
  auto fd = net::ConnectTcp(static_cast<uint16_t>(server_->port()));
  ASSERT_TRUE(fd.ok());
  // 17 KiB of header with no terminating blank line: over the 16 KiB cap.
  std::string junk = "GET /metrics HTTP/1.0\r\nX-Junk: ";
  junk.append(17 * 1024, 'a');
  ASSERT_TRUE(
      net::SendAll(fd.value(), junk.data(), junk.size(), 5000).ok());
  auto response = net::RecvAll(fd.value(), 1 << 20, /*timeout_ms=*/5000);
  net::CloseFd(fd.value());
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response.value().find("400"), std::string::npos)
      << response.value();
  EXPECT_NE(response.value().find("exceeds"), std::string::npos);
}

TEST_F(ObsHttpTest, StartRejectsNonPositiveIoTimeout) {
  EXPECT_FALSE(ObsServer::Start({.port = 0, .io_timeout_ms = 0}).ok());
  EXPECT_FALSE(ObsServer::Start({.port = 0, .io_timeout_ms = -5}).ok());
}

TEST_F(ObsHttpTest, StopIsIdempotentAndFreesThePort) {
  const int port = server_->port();
  server_->Stop();
  server_->Stop();
  // The port is free again: a second server can bind it.
  auto second = ObsServer::Start({.port = port});
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.value()->port(), port);
}

}  // namespace
}  // namespace obs
}  // namespace bolton
