// Serve-daemon throughput under multi-tenant load: 1 / 4 / 16 concurrent
// tenants hammer POST /v1/train on an in-process ServeDaemon and we report
// p50/p99 latency, sustained request rate, and the refusal rate produced by
// the admission ladder (tenant caps + global cap). Each daemon keeps its
// budget state in a fresh directory under $TMPDIR (removed afterwards), so
// every reserve and commit is durable before the request is answered.
//
// Rows land in --json-out as figure "serve_throughput" for benchdiff.

#include <algorithm>
#include <filesystem>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "serve/daemon.h"

namespace bolton {
namespace bench {
namespace {

struct ClientStats {
  std::vector<double> latencies_ms;  // successful requests only
  int ok = 0;
  int refused = 0;  // 429/503 from the degradation ladder
  int failed = 0;   // transport errors / unexpected statuses
};

/// One POST /v1/train; returns the HTTP status (0 on transport failure).
int PostTrain(int port, const std::string& body) {
  const Result<obs::HttpReply> reply =
      obs::HttpCall(port, "POST", "/v1/train", body, 30000);
  return reply.ok() ? reply.value().status : 0;
}

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t index = std::min(
      sorted.size() - 1, static_cast<size_t>(p * (sorted.size() - 1) + 0.5));
  return sorted[index];
}

}  // namespace

int Main(int argc, char** argv) {
  CommonFlags flags("bench_serve_throughput");
  if (!flags.Parse(argc, argv)) return 1;

  // Enough requests per tenant that p99 means something and every row
  // lasts over benchdiff's 50 ms floor, scaled by --scale.
  const int requests_per_tenant =
      std::max(8, static_cast<int>(192 * flags.scale));

  std::printf("Serve throughput: POST /v1/train, bolton, protein@0.05\n");
  std::printf("  %-8s %-8s %-6s %-8s %-12s %-9s %-9s %-10s\n", "tenants",
              "requests", "ok", "refused", "refusal_rate", "p50_ms",
              "p99_ms", "req_per_s");

  for (const size_t tenants : {1u, 4u, 16u}) {
    serve::ServeOptions options;
    options.port = 0;
    // More handler threads than admission slots, so saturation reaches the
    // admission ladder and sheds (rather than queueing invisibly in the
    // HTTP layer and reporting a zero refusal rate forever).
    options.handler_threads = 16;
    options.max_pending = 64;
    // Effectively infinite budget: the refusals this bench measures come
    // from the admission ladder, not from ε exhaustion.
    options.budget.default_budget = PrivacyParams{1e9, 1e-3};
    options.admission.max_inflight = 8;
    options.admission.max_inflight_per_tenant = 2;
    Result<std::string> state_dir = MakeTempDir("bolton_serve_bench");
    if (!state_dir.ok()) {
      std::fprintf(stderr, "%s\n", state_dir.status().ToString().c_str());
      return 1;
    }
    options.budget.state_dir = state_dir.value();
    auto daemon = serve::ServeDaemon::Start(options);
    if (!daemon.ok()) {
      std::fprintf(stderr, "daemon start failed: %s\n",
                   daemon.status().ToString().c_str());
      std::filesystem::remove_all(state_dir.value());
      return 1;
    }
    const int port = daemon.value()->port();

    auto body_for = [&](size_t tenant) {
      // Heavy enough that solver time dominates the request: saturation
      // then shows up as admission-ladder refusals, not just queueing.
      JsonWriter w;
      w.BeginObject().Field("tenant", StrFormat("t%zu", tenant));
      w.Field("algorithm", "bolton").Field("epsilon", 0.01);
      w.Field("delta", 1e-7).Field("passes", 3).Field("batch_size", 50);
      w.Field("scale", 0.05);
      w.Field("seed", static_cast<uint64_t>(flags.seed) + tenant);
      return w.EndObject().str();
    };
    // Warm the daemon's dataset cache so the timed window measures request
    // handling, not one-time synthesis.
    (void)PostTrain(port, body_for(0));

    std::vector<ClientStats> stats(tenants);
    double wall = TimedSeconds("bench.serve_throughput", [&] {
      std::vector<std::thread> clients;
      clients.reserve(tenants);
      for (size_t t = 0; t < tenants; ++t) {
        clients.emplace_back([&, t] {
          const std::string body = body_for(t);
          for (int i = 0; i < requests_per_tenant; ++i) {
            const uint64_t start_ns = obs::MonotonicNanos();
            const int status = PostTrain(port, body);
            const double ms =
                static_cast<double>(obs::MonotonicNanos() - start_ns) * 1e-6;
            if (status == 200) {
              stats[t].latencies_ms.push_back(ms);
              ++stats[t].ok;
            } else if (status == 429 || status == 503) {
              ++stats[t].refused;
            } else {
              ++stats[t].failed;
            }
          }
        });
      }
      for (std::thread& client : clients) client.join();
    });

    std::vector<double> latencies;
    int ok = 0, refused = 0, failed = 0;
    for (const ClientStats& s : stats) {
      latencies.insert(latencies.end(), s.latencies_ms.begin(),
                       s.latencies_ms.end());
      ok += s.ok;
      refused += s.refused;
      failed += s.failed;
    }
    std::sort(latencies.begin(), latencies.end());
    const int total = ok + refused + failed;
    const double refusal_rate =
        total > 0 ? static_cast<double>(refused) / total : 0.0;
    const double p50 = Percentile(latencies, 0.50);
    const double p99 = Percentile(latencies, 0.99);
    const double rate = wall > 0.0 ? ok / wall : 0.0;
    std::printf("  %-8zu %-8d %-6d %-8d %-12.3f %-9.2f %-9.2f %-10.1f\n",
                tenants, total, ok, refused, refusal_rate, p50, p99, rate);
    if (failed > 0) {
      std::fprintf(stderr, "WARNING: %d transport failures at %zu tenants\n",
                   failed, tenants);
    }

    BenchResultRow row;
    row.figure = "serve_throughput";
    row.name = StrFormat("tenants_%zu", tenants);
    row.dataset = "protein";
    row.algo = "bolton";
    row.epsilon = 0.01;
    row.wall_seconds = wall;
    row.rows_per_sec = rate;  // served requests per second
    AddBenchResult(std::move(row));

    daemon.value()->Shutdown();
    std::filesystem::remove_all(state_dir.value());
  }
  return flags.Finish();
}

}  // namespace bench
}  // namespace bolton

int main(int argc, char** argv) { return bolton::bench::Main(argc, argv); }
