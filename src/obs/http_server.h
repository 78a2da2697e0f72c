#ifndef BOLTON_OBS_HTTP_SERVER_H_
#define BOLTON_OBS_HTTP_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/result.h"

namespace bolton {
namespace obs {

/// One parsed HTTP request as handed to a registered handler.
struct HttpRequest {
  std::string method;  // "GET", "POST", ...
  std::string path;    // "/v1/train" (query stripped)
  std::string query;   // "tenant=t1&tail=5" (no leading '?')
  std::string body;    // exactly Content-Length bytes ("" for bodyless)

  /// The value of `key` in `query` ("a=1&b=2"), or nullopt when absent.
  std::optional<std::string> QueryParam(const std::string& key) const;
};

/// A handler's answer. `headers` carries extras beyond Content-Type/Length
/// (e.g. Retry-After).
struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  std::vector<std::pair<std::string, std::string>> headers;
};

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

/// The Retry-After header, in seconds, on every 503 that invites a retry:
/// the server's own queue-full shed and the serve daemon's overload
/// refusals.
inline constexpr int kRetryAfterSeconds = 1;

/// Server shape. The defaults give the plain observability server: one
/// handler thread (requests strictly serialized) and a small
/// accepted-connection queue. Request heads are capped at 16 KiB (400
/// beyond) and bodies at 1 MiB (413 beyond).
struct ObsServerOptions {
  /// 127.0.0.1:`port`; 0 = kernel-assigned ephemeral port.
  int port = 0;
  /// Per-connection read AND write deadline (poll-based), ms. Must be > 0.
  int io_timeout_ms = 5000;
  /// Concurrent request handlers. 1 keeps the classic strictly-serial obs
  /// server; `boltondp serve` raises it to overlap independent tenants.
  size_t handler_threads = 1;
  /// Accepted connections waiting for a handler beyond this are shed
  /// immediately with 503 + Retry-After instead of queuing without bound —
  /// overload degrades to fast refusals, not to memory growth.
  size_t max_pending = 16;
};

/// In-process HTTP endpoint: a dependency-free HTTP/1.0 server on
/// background threads, loopback only. Serves the live state of the
/// telemetry pillars, plus any routes registered with RegisterHandler —
/// the serve daemon mounts its /v1 API here.
///
/// Built-in endpoints (all GET, registered by Start in the same route
/// table as everything else):
///   /metrics        Prometheus text exposition of the MetricsRegistry
///                   snapshot (cumulative buckets, _sum/_count, +Inf,
///                   derived p50/p95/p99 gauges).
///   /healthz        JSON liveness: uptime, pillar enablement, and the
///                   ledger's running privacy-spend totals.
///   /ledger?tail=N  Last N privacy-ledger events as JSONL (default 100,
///                   tail=0 for the whole in-memory ring).
///   /spans?format=F The flight recorder's span ring, oldest first: JSONL
///                   (default) or a Chrome trace (format=chrome).
///   /logz?tail=N&level=L
///                   Last N retained log events from the flight recorder
///                   as JSONL (default 100), at or above level L
///                   ("D"/"I"/"W"/"E" or the long names; default all).
///   /buildz         Build/runtime identity JSON (git sha, compiler,
///                   build type, SIMD level, perf-counter tier).
///   /quitquitquit   Asks the owner to stop lingering (see WaitForQuit);
///                   lets tests and operators end a --serve-obs run cleanly.
///
/// Concurrency: one accept thread feeds a bounded queue drained by
/// `handler_threads` workers. Handlers race only against the lock-free
/// telemetry recording paths (which snapshots tolerate) and whatever
/// state registered handlers bring — those synchronize themselves.
class ObsServer {
 public:
  static Result<std::unique_ptr<ObsServer>> Start(
      const ObsServerOptions& options);

  ~ObsServer();

  /// Mounts `handler` at exactly (`method`, `path`). A path with handlers
  /// answers 405 (with an Allow header) for unregistered methods, and an
  /// unknown path answers 404. Registering over an existing (method, path),
  /// built-in or not, replaces it. Thread-safe; callable before or after
  /// traffic starts.
  void RegisterHandler(const std::string& method, const std::string& path,
                       HttpHandler handler);

  /// The actually bound port (resolves port 0 requests).
  int port() const { return port_; }

  /// Stops accepting, drains already-accepted connections, joins all
  /// threads. Idempotent. Bounded: each drained connection is capped by
  /// io_timeout_ms plus its handler's own runtime.
  void Stop();

  /// True once a /quitquitquit request has been served.
  bool quit_requested() const {
    return quit_.load(std::memory_order_acquire);
  }

  /// Blocks until /quitquitquit arrives or `timeout_ms` elapses; returns
  /// quit_requested(). Lets `boltondp train --serve-obs` outlive training
  /// long enough to be scraped without hanging forever.
  bool WaitForQuit(int64_t timeout_ms);

  ObsServer(const ObsServer&) = delete;
  ObsServer& operator=(const ObsServer&) = delete;

 private:
  ObsServer() = default;

  void AcceptLoop();
  void HandlerLoop();
  void HandleConnection(int fd);
  void ShedConnection(int fd);
  HttpResponse Dispatch(const HttpRequest& request);

  ObsServerOptions options_;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;   // self-pipe: Stop() wakes the poll loop
  int wake_write_fd_ = -1;
  int port_ = 0;
  uint64_t start_ns_ = 0;
  std::thread accept_thread_;
  std::vector<std::thread> handler_threads_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_;  // accepted fds awaiting a handler

  std::mutex handlers_mu_;
  std::map<std::string, std::map<std::string, HttpHandler>> handlers_;

  std::atomic<uint64_t> request_count_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> quit_{false};
  std::mutex quit_mu_;
  std::condition_variable quit_cv_;
};

/// A client's view of a response.
struct HttpReply {
  int status = 0;    // from the status line; 0 when it has none
  std::string head;  // status line and headers
  std::string body;
};

/// One HTTP/1.0 request to 127.0.0.1:`port` in one attempt: connect, send,
/// read to EOF. `timeout_ms` >= 0 bounds the send and the receive each.
/// Never retried: a request whose answer timed out may still have run, and
/// sending a POST /v1/train again would train, and charge, twice.
Result<HttpReply> HttpCall(int port, const std::string& method,
                           const std::string& target,
                           const std::string& body = "", int timeout_ms = -1);

}  // namespace obs
}  // namespace bolton

#endif  // BOLTON_OBS_HTTP_SERVER_H_
