#include "obs/http_server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <thread>
#include <utility>

#include "obs/build_info.h"
#include "obs/export.h"
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

constexpr size_t kMaxRequestBytes = 16 * 1024;
/// Largest accepted request body; bigger POSTs get 413.
constexpr size_t kMaxBodyBytes = 1 << 20;

constexpr char kPlainText[] = "text/plain; charset=utf-8";

std::string StatusLine(int http_status) {
  switch (http_status) {
    case 200:
      return "HTTP/1.0 200 OK";
    case 400:
      return "HTTP/1.0 400 Bad Request";
    case 404:
      return "HTTP/1.0 404 Not Found";
    case 405:
      return "HTTP/1.0 405 Method Not Allowed";
    case 408:
      return "HTTP/1.0 408 Request Timeout";
    case 413:
      return "HTTP/1.0 413 Payload Too Large";
    case 429:
      return "HTTP/1.0 429 Too Many Requests";
    case 500:
      return "HTTP/1.0 500 Internal Server Error";
    case 503:
      return "HTTP/1.0 503 Service Unavailable";
    default:
      return StrFormat("HTTP/1.0 %d Error", http_status);
  }
}

std::string RenderResponse(const HttpResponse& response) {
  std::string out = StatusLine(response.status);
  out += StrFormat("\r\nContent-Type: %s\r\nContent-Length: %zu",
                   response.content_type.c_str(), response.body.size());
  for (const auto& header : response.headers) {
    out += StrFormat("\r\n%s: %s", header.first.c_str(),
                     header.second.c_str());
  }
  out += "\r\nConnection: close\r\n\r\n";
  out += response.body;
  return out;
}

/// "/ledger?tail=25" -> path "/ledger", query "tail=25".
void SplitTarget(const std::string& target, std::string* path,
                 std::string* query) {
  const size_t mark = target.find('?');
  if (mark == std::string::npos) {
    *path = target;
    query->clear();
  } else {
    *path = target.substr(0, mark);
    *query = target.substr(mark + 1);
  }
}

/// Case-insensitive "Content-Length" value from a raw header block, or -1
/// when absent, or an error when present but malformed.
Result<int64_t> ContentLengthOf(const std::string& head) {
  for (const std::string& line : StrSplit(head, '\n')) {
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string name = line.substr(0, colon);
    for (char& c : name) {
      if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    }
    if (name != "content-length") continue;
    const std::string value(StripWhitespace(line.substr(colon + 1)));
    auto parsed = ParseInt(value);
    if (!parsed.ok() || parsed.value() < 0) {
      return Status::InvalidArgument(
          StrFormat("bad Content-Length '%s'", value.c_str()));
    }
    return parsed.value();
  }
  return static_cast<int64_t>(-1);
}

HttpResponse MakeResponse(int status, const char* content_type,
                          std::string body) {
  HttpResponse response;
  response.status = status;
  response.content_type = content_type;
  response.body = std::move(body);
  return response;
}

/// The integer value of query parameter `key`, or `fallback` when it is
/// absent. A key that IS present but malformed (non-numeric, junk) is an
/// InvalidArgument — handlers answer 400 instead of silently defaulting.
Result<int64_t> QueryIntParam(const HttpRequest& request,
                              const std::string& key, int64_t fallback) {
  const std::optional<std::string> text = request.QueryParam(key);
  if (!text.has_value()) return fallback;
  auto parsed = ParseInt(*text);
  if (!parsed.ok()) {
    return Status::InvalidArgument(
        StrFormat("query parameter '%s' must be an integer, got '%s'",
                  key.c_str(), text->c_str()));
  }
  return parsed.value();
}

constexpr int64_t kMaxProfileSeconds = 60;

/// GET /profile?seconds=N&hz=H&format=collapsed|json&top=K
///
/// seconds > 0: run the sampling profiler for that long (capped at
/// kMaxProfileSeconds) and answer with the dump — the request blocks for
/// the duration, which is fine since profiling IS the work the caller
/// asked for. seconds = 0: snapshot a profiler some other surface (e.g.
/// `train --profile-out`) already started, without stopping it. 503 when a
/// timed request races a profiling session already in flight — there is
/// one global profiler.
HttpResponse HandleProfile(const HttpRequest& request,
                           const std::atomic<bool>& server_stop) {
  auto seconds = QueryIntParam(request, "seconds", 2);
  auto hz = QueryIntParam(request, "hz", 97);
  auto top = QueryIntParam(request, "top", 30);
  if (!seconds.ok() || seconds.value() < 0 ||
      seconds.value() > kMaxProfileSeconds) {
    return MakeResponse(
        400, kPlainText,
        StrFormat("seconds must be an integer in [0, %lld]\n",
                  static_cast<long long>(kMaxProfileSeconds)));
  }
  if (!hz.ok() || hz.value() < 1 || hz.value() > 1000) {
    return MakeResponse(400, kPlainText,
                        "hz must be an integer in [1, 1000]\n");
  }
  if (!top.ok() || top.value() < 1) {
    return MakeResponse(400, kPlainText, "top must be a positive integer\n");
  }
  const std::string format = request.QueryParam("format").value_or("collapsed");
  if (format != "collapsed" && format != "json") {
    return MakeResponse(400, kPlainText,
                        "format must be 'collapsed' or 'json'\n");
  }

  Profiler& profiler = Profiler::Default();
  ProfileDump dump;
  if (seconds.value() == 0) {
    // Live snapshot of an externally managed session.
    if (!profiler.running()) {
      return MakeResponse(
          400, kPlainText,
          "seconds=0 snapshots a running profiler, but none is running\n");
    }
    dump = profiler.Dump();
  } else {
    ProfilerOptions options;
    options.hz = static_cast<int>(hz.value());
    Status started = profiler.Start(options);
    if (!started.ok()) {
      return MakeResponse(
          503, kPlainText,
          StrFormat("profiler busy: %s\n", started.message().c_str()));
    }
    // Sleep in short slices so server Stop() aborts the session promptly
    // instead of holding shutdown for the full window.
    const uint64_t deadline_ns =
        MonotonicNanos() +
        static_cast<uint64_t>(seconds.value()) * 1000000000ull;
    while (MonotonicNanos() < deadline_ns &&
           !server_stop.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    profiler.Stop();
    dump = profiler.Dump();
  }

  if (format == "json") {
    return MakeResponse(
        200, "application/json",
        RenderProfileSummaryJson(dump, static_cast<size_t>(top.value())));
  }
  return MakeResponse(200, kPlainText, RenderCollapsed(dump));
}

/// GET /metrics. Prometheus scrapers key on this exact version tag. Memory
/// and perf gauges are polled on read: every scrape sees current values,
/// not a stale sample.
HttpResponse HandleMetrics(const HttpRequest&) {
  UpdateProcessMemoryGauges();
  UpdatePerfGauges();
  return MakeResponse(200, "text/plain; version=0.0.4; charset=utf-8",
                      RenderPrometheus(MetricsRegistry::Default().Snapshot()));
}

HttpResponse HandleHealthz(uint64_t start_ns) {
  const LedgerTotals totals =
      SummarizeLedger(PrivacyLedger::Default().Snapshot());
  return MakeResponse(
      200, "application/json",
      StrFormat(
          "{\"status\":\"ok\",\"uptime_ns\":%llu,"
          "\"metrics_enabled\":%s,\"trace_enabled\":%s,"
          "\"ledger_enabled\":%s,\"privacy_spend\":{"
          "\"events\":%llu,\"noise_draws\":%llu,\"charges\":%llu,"
          "\"rejected\":%llu,\"calibrations\":%llu,"
          "\"epsilon_charged\":%.17g,\"delta_charged\":%.17g}}\n",
          static_cast<unsigned long long>(MonotonicNanos() - start_ns),
          MetricsEnabled() ? "true" : "false",
          TraceRecorder::Default().enabled() ? "true" : "false",
          PrivacyLedger::Default().enabled() ? "true" : "false",
          static_cast<unsigned long long>(totals.events),
          static_cast<unsigned long long>(totals.noise_draws),
          static_cast<unsigned long long>(totals.charges),
          static_cast<unsigned long long>(totals.rejected),
          static_cast<unsigned long long>(totals.calibrations),
          totals.epsilon_charged, totals.delta_charged));
}

HttpResponse HandleLedger(const HttpRequest& request) {
  auto tail = QueryIntParam(request, "tail", 100);
  if (!tail.ok() || tail.value() < 0) {
    return MakeResponse(400, kPlainText,
                        "tail must be a non-negative integer\n");
  }
  std::vector<LedgerEvent> events = PrivacyLedger::Default().Snapshot();
  if (tail.value() > 0 && static_cast<size_t>(tail.value()) < events.size()) {
    events.erase(events.begin(),
                 events.end() - static_cast<size_t>(tail.value()));
  }
  return MakeResponse(200, "application/jsonl", RenderLedgerJsonl(events));
}

HttpResponse HandleSpans(const HttpRequest& request) {
  const std::string format = request.QueryParam("format").value_or("jsonl");
  if (format == "chrome") {
    return MakeResponse(200, "application/json",
                        RenderChromeTrace(TraceRecorder::Default().Snapshot()));
  }
  if (format != "jsonl") {
    return MakeResponse(400, kPlainText,
                        "format must be 'jsonl' or 'chrome'\n");
  }
  return MakeResponse(200, "application/jsonl",
                      RenderSpansJsonl(TraceRecorder::Default().Snapshot()));
}

HttpResponse HandleLogz(const HttpRequest& request) {
  auto tail = QueryIntParam(request, "tail", 100);
  if (!tail.ok() || tail.value() < 0) {
    return MakeResponse(400, kPlainText,
                        "tail must be a non-negative integer\n");
  }
  LogLevel min_level = LogLevel::kDebug;
  const std::string level_text = request.QueryParam("level").value_or("");
  if (!level_text.empty() && !ParseLogLevel(level_text, &min_level)) {
    return MakeResponse(
        400, kPlainText,
        "level must be one of D/I/W/E (or debug/info/warning/error)\n");
  }
  const size_t max = tail.value() == 0 ? FlightRecorder::kLogSlots
                                       : static_cast<size_t>(tail.value());
  return MakeResponse(
      200, "application/jsonl",
      RenderRecordedLogsJsonl(
          FlightRecorder::Default().RecentLogs(max, min_level)));
}

HttpResponse HandleFlightRecorder(const HttpRequest&) {
  // Refresh the snapshot so the payload's metrics are current, not up to
  // a second stale.
  FlightRecorder::Default().SnapshotMetricsNow();
  return MakeResponse(200, "application/json",
                      RenderFlightRecorderJson(FlightRecorder::Default()));
}

HttpResponse HandleBuildz(const HttpRequest&) {
  return MakeResponse(200, "application/json", RenderBuildInfoJson() + "\n");
}

}  // namespace

std::optional<std::string> HttpRequest::QueryParam(
    const std::string& key) const {
  for (const std::string& pair : StrSplit(query, '&')) {
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) continue;
    if (pair.substr(0, eq) == key) return pair.substr(eq + 1);
  }
  return std::nullopt;
}

Result<std::unique_ptr<ObsServer>> ObsServer::Start(
    const ObsServerOptions& options) {
  if (options.port < 0 || options.port > 65535) {
    return Status::InvalidArgument(
        StrFormat("obs server port out of range: %d", options.port));
  }
  if (options.io_timeout_ms <= 0) {
    return Status::InvalidArgument(
        StrFormat("obs server io timeout must be > 0 ms, got %d",
                  options.io_timeout_ms));
  }
  if (options.handler_threads < 1) {
    return Status::InvalidArgument("obs server needs >= 1 handler thread");
  }
  if (options.max_pending < 1) {
    return Status::InvalidArgument("obs server pending queue must hold >= 1");
  }
  std::unique_ptr<ObsServer> server(new ObsServer());
  server->options_ = options;
  BOLTON_ASSIGN_OR_RETURN(
      server->listen_fd_,
      net::ListenTcp(static_cast<uint16_t>(options.port)));
  BOLTON_ASSIGN_OR_RETURN(server->port_, net::LocalPort(server->listen_fd_));
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    net::CloseFd(server->listen_fd_);
    return net::ErrnoStatus("pipe");
  }
  server->wake_read_fd_ = pipe_fds[0];
  server->wake_write_fd_ = pipe_fds[1];
  server->start_ns_ = MonotonicNanos();

  // The built-in endpoints are ordinary GET routes in the one table.
  ObsServer* self = server.get();
  self->RegisterHandler("GET", "/metrics", &HandleMetrics);
  self->RegisterHandler("GET", "/healthz", [self](const HttpRequest&) {
    return HandleHealthz(self->start_ns_);
  });
  self->RegisterHandler("GET", "/ledger", &HandleLedger);
  self->RegisterHandler("GET", "/spans", &HandleSpans);
  self->RegisterHandler("GET", "/logz", &HandleLogz);
  self->RegisterHandler("GET", "/flightrecorder", &HandleFlightRecorder);
  self->RegisterHandler("GET", "/buildz", &HandleBuildz);
  self->RegisterHandler("GET", "/profile", [self](const HttpRequest& request) {
    return HandleProfile(request, self->stop_);
  });
  self->RegisterHandler("GET", "/quitquitquit", [self](const HttpRequest&) {
    {
      std::lock_guard<std::mutex> lock(self->quit_mu_);
      self->quit_.store(true, std::memory_order_release);
    }
    self->quit_cv_.notify_all();
    return MakeResponse(200, kPlainText, "quitting\n");
  });

  server->handler_threads_.reserve(options.handler_threads);
  for (size_t i = 0; i < options.handler_threads; ++i) {
    server->handler_threads_.emplace_back(&ObsServer::HandlerLoop,
                                          server.get());
  }
  server->accept_thread_ = std::thread(&ObsServer::AcceptLoop, server.get());
  return server;
}

ObsServer::~ObsServer() { Stop(); }

void ObsServer::RegisterHandler(const std::string& method,
                                const std::string& path,
                                HttpHandler handler) {
  std::lock_guard<std::mutex> lock(handlers_mu_);
  handlers_[path][method] = std::move(handler);
}

void ObsServer::Stop() {
  bool expected = false;
  if (!stop_.compare_exchange_strong(expected, true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    for (std::thread& t : handler_threads_) {
      if (t.joinable()) t.join();
    }
    return;
  }
  // Wake the poll loop so the accept thread notices stop_ immediately.
  const char byte = 'q';
  (void)!::write(wake_write_fd_, &byte, 1);
  if (accept_thread_.joinable()) accept_thread_.join();
  // Handler threads drain whatever was already accepted, then exit.
  queue_cv_.notify_all();
  for (std::thread& t : handler_threads_) {
    if (t.joinable()) t.join();
  }
  net::CloseFd(listen_fd_);
  net::CloseFd(wake_read_fd_);
  net::CloseFd(wake_write_fd_);
  listen_fd_ = wake_read_fd_ = wake_write_fd_ = -1;
}

bool ObsServer::WaitForQuit(int64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(quit_mu_);
  quit_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                    [this] { return quit_requested(); });
  return quit_requested();
}

void ObsServer::AcceptLoop() {
  SetCurrentThreadName("http-accept");
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {wake_read_fd_, POLLIN, 0};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (stop_.load(std::memory_order_acquire)) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (pending_.size() < options_.max_pending) {
        pending_.push_back(conn);
        queue_cv_.notify_one();
        continue;
      }
    }
    // Queue full: shed on the accept thread with a canned refusal. Fast,
    // bounded by the io timeout, and it keeps memory flat under overload.
    ShedConnection(conn);
  }
}

void ObsServer::ShedConnection(int fd) {
  shed_count_.fetch_add(1, std::memory_order_relaxed);
  static Counter* shed_total =
      MetricsRegistry::Default().GetCounter("http.shed_total");
  shed_total->Increment();
  HttpResponse response;
  response.status = 503;
  response.content_type = "application/json";
  response.body = StrFormat(
      "{\"error\":\"overloaded\",\"detail\":\"pending queue full "
      "(%zu)\"}\n", options_.max_pending);
  response.headers.emplace_back("Retry-After",
                                 std::to_string(kRetryAfterSeconds));
  const std::string wire = RenderResponse(response);
  (void)net::SendAll(fd, wire.data(), wire.size(), options_.io_timeout_ms);
  ::shutdown(fd, SHUT_WR);
  (void)net::RecvAll(fd, kMaxRequestBytes, options_.io_timeout_ms);
  net::CloseFd(fd);
}

void ObsServer::HandlerLoop() {
  SetCurrentThreadName("http-handler");
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return !pending_.empty() || stop_.load(std::memory_order_acquire);
      });
      if (pending_.empty()) {
        // stop_ set and nothing left to drain.
        if (stop_.load(std::memory_order_acquire)) return;
        continue;
      }
      fd = pending_.front();
      pending_.pop_front();
    }
    HandleConnection(fd);
    net::CloseFd(fd);
  }
}

void ObsServer::HandleConnection(int fd) {
  const int io_timeout_ms = options_.io_timeout_ms;
  // Per-connection read deadline: a silent or slow-loris client is dropped
  // after io_timeout_ms instead of wedging a handler thread for good.
  auto head = net::RecvHttpHead(fd, kMaxRequestBytes, io_timeout_ms);
  if (!head.ok()) return;  // timeout / reset: nothing sensible to answer
  const std::string& text = head.value();

  HttpResponse response;
  response.content_type = kPlainText;
  const size_t head_end = text.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    // Request head hit the size cap (or the client half-closed) without a
    // terminating blank line: reject, don't guess.
    response.status = 400;
    response.body =
        StrFormat("request head exceeds %zu bytes or is unterminated\n",
                  kMaxRequestBytes);
  } else {
    // Request line: METHOD SP TARGET SP VERSION.
    const size_t line_end = text.find("\r\n");
    const std::string line = text.substr(0, line_end);
    std::vector<std::string> parts = StrSplit(line, ' ');
    HttpRequest request;
    request.method = parts.size() > 0 ? parts[0] : "";
    const std::string target = parts.size() > 1 ? parts[1] : "/";
    SplitTarget(target, &request.path, &request.query);

    auto content_length = ContentLengthOf(text.substr(0, head_end));
    if (!content_length.ok()) {
      response.status = 400;
      response.body = content_length.status().message() + "\n";
    } else if (content_length.value() >
               static_cast<int64_t>(kMaxBodyBytes)) {
      response.status = 413;
      response.body =
          StrFormat("request body exceeds %zu bytes\n", kMaxBodyBytes);
    } else {
      bool body_ok = true;
      if (content_length.value() > 0) {
        // RecvHttpHead may have read a prefix of the body past the blank
        // line; take it, then read exactly the rest.
        request.body = text.substr(head_end + 4);
        const size_t want = static_cast<size_t>(content_length.value());
        if (request.body.size() > want) {
          request.body.resize(want);
        } else if (request.body.size() < want) {
          Status rest = net::RecvExact(fd, want - request.body.size(),
                                       io_timeout_ms, &request.body);
          if (!rest.ok()) body_ok = false;  // truncated: drop, don't guess
        }
      }
      if (body_ok) response = Dispatch(request);
      else return;
    }
  }

  const std::string wire = RenderResponse(response);
  // Write deadline: a client that stops reading cannot park us in send().
  (void)net::SendAll(fd, wire.data(), wire.size(), io_timeout_ms);
  ::shutdown(fd, SHUT_WR);
  // Drain whatever the client still sends so its write path never sees a
  // reset before it reads our response — but bounded: at most the request
  // cap, within the same deadline.
  (void)net::RecvAll(fd, kMaxRequestBytes, io_timeout_ms);
}

HttpResponse ObsServer::Dispatch(const HttpRequest& request) {
  // A scrape loop hitting every endpoint once a second would otherwise
  // bury the training output.
  const uint64_t request_number =
      request_count_.fetch_add(1, std::memory_order_relaxed) + 1;
  BOLTON_LOG_EVERY_N(kInfo, 100)
      << "obs server request #" << request_number << ": " << request.method
      << " " << request.path;

  HttpHandler handler;
  bool path_known = false;
  std::string allow;
  {
    std::lock_guard<std::mutex> lock(handlers_mu_);
    auto by_path = handlers_.find(request.path);
    if (by_path != handlers_.end()) {
      path_known = true;
      for (const auto& entry : by_path->second) {
        if (!allow.empty()) allow += ", ";
        allow += entry.first;
      }
      auto by_method = by_path->second.find(request.method);
      if (by_method != by_path->second.end()) handler = by_method->second;
    }
  }
  if (handler) return handler(request);
  if (!path_known) {
    return MakeResponse(
        404, kPlainText,
        StrFormat("no handler for '%s'; try /metrics /healthz /ledger /spans "
                  "/logz /flightrecorder /buildz /profile\n",
                  request.path.c_str()));
  }
  HttpResponse response = MakeResponse(
      405, kPlainText,
      StrFormat("method %s not allowed for %s (allow: %s)\n",
                request.method.c_str(), request.path.c_str(), allow.c_str()));
  response.headers.emplace_back("Allow", allow);
  return response;
}

namespace {
std::mutex g_default_server_mu;
std::unique_ptr<ObsServer>& DefaultServerSlot() {
  static std::unique_ptr<ObsServer>* slot =
      new std::unique_ptr<ObsServer>();
  return *slot;
}
}  // namespace

Status StartDefaultObsServer(int port) {
  std::lock_guard<std::mutex> lock(g_default_server_mu);
  std::unique_ptr<ObsServer>& slot = DefaultServerSlot();
  if (slot != nullptr) {
    return Status::FailedPrecondition(StrFormat(
        "obs server already running on port %d", slot->port()));
  }
  BOLTON_ASSIGN_OR_RETURN(slot, ObsServer::Start({.port = port}));
  return Status::OK();
}

ObsServer* DefaultObsServer() {
  std::lock_guard<std::mutex> lock(g_default_server_mu);
  return DefaultServerSlot().get();
}

void StopDefaultObsServer() {
  std::lock_guard<std::mutex> lock(g_default_server_mu);
  DefaultServerSlot().reset();
}

}  // namespace obs
}  // namespace bolton
