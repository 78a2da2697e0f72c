// `perfbench load`: the closed-loop load generator for the serve workloads.
//
// One process with at most nproc threads (the main thread is caller 0) and
// one connection per caller at a time. Each caller owns a disjoint set of
// tenants, so the daemon's per-tenant in-flight cap never refuses it, and
// sends its next request only when the previous one has been answered.
// Every request opens its own connection (the daemon speaks HTTP/1.0) and is
// timed from connect to the last byte of the response.
//
// Phases against one fresh daemon: warm-up (one train per tenant, plus one
// aggregate on serve_mix so every dataset is synthesized), the measured
// window of --requests requests, budget reconciliation against
// GET /v1/budget, and a /metrics scrape.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <thread>

#include "bench.h"
#include "data/synthetic.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/net.h"
#include "util/strings.h"

namespace bolton {
namespace perfbench {
namespace {

bool FiniteNumber(const JsonValue& json, const char* key, double* out) {
  const JsonValue* v = json.Find(key);
  if (v == nullptr || !v->is_number() || !std::isfinite(v->number_value())) {
    return false;
  }
  if (out != nullptr) *out = v->number_value();
  return true;
}

/// The response checks: every 200 parses and carries its fields. Returns
/// the model id of a train in `model_id`.
bool CheckReply(const Request& request, const Reply& reply,
                std::string* model_id) {
  if (reply.status != 200) return false;
  auto parsed = ParseJson(reply.body);
  if (!parsed.ok() || !parsed.value().is_object()) return false;
  const JsonValue& json = parsed.value();
  double value = 0.0;
  switch (request.kind) {
    case Kind::kTrain: {
      const JsonValue* id = json.Find("model_id");
      if (id == nullptr || !id->is_string() || id->string_value().empty()) {
        return false;
      }
      if (model_id != nullptr) *model_id = id->string_value();
      return FiniteNumber(json, "dim", &value) && value == kProteinDim &&
             FiniteNumber(json, "epsilon", &value) &&
             value == request.epsilon;
    }
    case Kind::kPredict: {
      double score = 0.0, prediction = 0.0;
      return FiniteNumber(json, "score", &score) &&
             FiniteNumber(json, "prediction", &prediction) &&
             (prediction == 1.0 || prediction == -1.0) &&
             (prediction == 1.0) == (score >= 0.0);
    }
    case Kind::kBudget: {
      const JsonValue* tenant = json.Find("tenant");
      return tenant != nullptr && tenant->is_string() &&
             tenant->string_value() == TenantName(request.tenant) &&
             FiniteNumber(json, "spent_epsilon", &value) && value >= 0.0;
    }
    case Kind::kAggregate:
      return FiniteNumber(json, "value", nullptr);
  }
  return false;
}

/// What one caller saw.
struct CallerResult {
  std::vector<double> write_s, read_s;
  size_t attempted = 0, ok = 0;
  double rows = 0.0;  // dataset rows scanned by successful writes
  std::map<size_t, double> charged;  // tenant -> ε of successful writes
};

/// Mangles a response body so the checks must reject it (smoke test).
void Corrupt(Reply* reply) {
  reply->body = reply->body.substr(0, reply->body.size() / 2);
}

double PrometheusValue(const std::string& text, const std::string& name) {
  for (const std::string& line : StrSplit(text, '\n')) {
    if (line.compare(0, name.size() + 1, name + " ") == 0) {
      return std::atof(line.c_str() + name.size() + 1);
    }
  }
  return 0.0;
}

}  // namespace

int LoadMain(int argc, char** argv) {
  int64_t port = 0, daemon_pid = 0, seed = 1, requests = 1000;
  int64_t read_rounds = 0, corrupt_every = 0;
  bool smoke = false;
  std::string workload = "serve_train";
  FlagParser parser;
  parser.AddInt("port", &port, "daemon port on 127.0.0.1");
  parser.AddInt("daemon-pid", &daemon_pid, "daemon pid, for /proc readings");
  parser.AddString("workload", &workload, "serve_train | serve_mix");
  parser.AddInt("seed", &seed, "workload seed");
  parser.AddInt("requests", &requests, "requests in the measured window");
  parser.AddInt("read-rounds", &read_rounds,
                "extra timed rounds of per-tenant budget reads after the "
                "reconciliation round");
  parser.AddInt("corrupt-every", &corrupt_every,
                "corrupt every Nth response before checking it (0 = never)");
  parser.AddBool("smoke", &smoke, "smoke-sized tenant counts");
  Status parsed = parser.Parse(argc, argv);
  if (!parsed.ok() || port <= 0 || daemon_pid <= 0) {
    std::fprintf(stderr, "load: %s\n",
                 parsed.ok() ? "--port and --daemon-pid are required"
                             : parsed.ToString().c_str());
    return 2;
  }
  const ServeShape shape = ServeShapeFor(workload, smoke);
  const size_t callers = std::min<size_t>(
      4, std::max(1u, std::thread::hardware_concurrency()));
  const pid_t pid = static_cast<pid_t>(daemon_pid);
  const int p = static_cast<int>(port);

  // Rows behind each write, for rows_per_s: the daemon's datasets are
  // deterministic (protein, data_seed 42).
  const double train_rows = static_cast<double>(
      GenerateByName("protein", shape.train_scale, 42).value().first.size());
  const double aggregate_rows = static_cast<double>(
      GenerateByName("protein", kAggregateScale, 42).value().first.size());

  // Runs fn(caller) on callers - 1 threads plus the main thread.
  auto run_callers = [&](const auto& fn) {
    std::vector<std::thread> threads;
    for (size_t c = 1; c < callers; ++c) threads.emplace_back(fn, c);
    fn(0);
    for (std::thread& t : threads) t.join();
  };

  // ---- warm-up: one train per tenant (each tenant's model for predicts),
  // and on serve_mix one aggregate so protein@0.05 is synthesized too.
  std::vector<std::string> model_ids(shape.tenants);
  std::vector<CallerResult> results(callers);
  std::atomic<bool> warm_ok{true};
  const double warm_start = NowSeconds();
  run_callers([&](size_t c) {
    for (size_t t = c; t < shape.tenants; t += callers) {
      Request request;
      request.kind = Kind::kTrain;
      request.tenant = t;
      request.epsilon = kTrainEpsilon;
      const Reply reply = Exchange(p, "POST", "/v1/train",
                                   TrainBody(t, shape.train_scale, 7 + t));
      if (!CheckReply(request, reply, &model_ids[t])) warm_ok = false;
      results[c].charged[t] += kTrainEpsilon;
    }
    if (c == 0 && shape.aggregate_share > 0.0) {
      Request request;
      request.kind = Kind::kAggregate;
      const Reply reply =
          Exchange(p, "POST", "/v1/aggregate", AggregateBody(0, 0, 7));
      if (!CheckReply(request, reply, nullptr)) warm_ok = false;
      results[c].charged[0] += kAggregateEpsilon;
    }
  });
  const double warmup_s = NowSeconds() - warm_start;

  JsonLine out;
  out.Num("warmup_s", warmup_s);
  out.Num("warmup_ok", warm_ok ? 1 : 0);
  out.Num("tenants", static_cast<double>(shape.tenants));
  out.Num("callers", static_cast<double>(callers));
  if (!warm_ok) {
    out.Print();
    return 1;
  }
  const bool window = requests > 0;

  // ---- measured window (none with --requests 0: set-up only)
  const size_t per_caller = static_cast<size_t>(requests) / callers;
  const CpuTimes cpu_times0 = ReadCpuTimes();
  const double cpu0 = ProcessCpuSeconds(pid);
  const double rss0 = ProcessStatusKb(pid, "VmRSS:");
  const double window_start = NowSeconds();
  run_callers([&](size_t c) {
    RequestStream stream(shape, static_cast<uint64_t>(seed), c, callers);
    CallerResult& r = results[c];
    for (size_t i = 0; i < per_caller; ++i) {
      const Request request = stream.Next(model_ids);
      Reply reply = Exchange(p, request.method, request.path, request.body);
      ++r.attempted;
      if (corrupt_every > 0 && r.attempted % corrupt_every == 0) {
        Corrupt(&reply);
      }
      // A write answered 200 charged budget whatever its body says.
      if (IsWrite(request.kind) && reply.status == 200) {
        r.charged[request.tenant] += request.epsilon;
      }
      if (!CheckReply(request, reply, nullptr)) continue;
      ++r.ok;
      if (IsWrite(request.kind)) {
        r.write_s.push_back(reply.seconds);
        r.rows += request.kind == Kind::kTrain ? train_rows : aggregate_rows;
      } else {
        r.read_s.push_back(reply.seconds);
      }
    }
  });
  const double wall_s = NowSeconds() - window_start;
  const double cpu_s = ProcessCpuSeconds(pid) - cpu0;
  const double rss1 = ProcessStatusKb(pid, "VmRSS:");
  const double hwm_kb = ProcessStatusKb(pid, "VmHWM:");
  const double steal = StealShare(cpu_times0, ReadCpuTimes());

  // ---- budget reconciliation, each caller over its own tenants: spent ε
  // equals the ε of the tenant's successful writes, nothing left reserved.
  // Later rounds re-read the same accounts as timed budget reads.
  std::vector<std::vector<double>> reconcile_parts(callers);
  std::atomic<size_t> mismatched{0};
  run_callers([&](size_t c) {
    for (int64_t round = 0; round <= (window ? read_rounds : 0); ++round) {
      for (size_t t = c; t < shape.tenants; t += callers) {
        Request request;
        request.kind = Kind::kBudget;
        request.tenant = t;
        const Reply reply =
            Exchange(p, "GET", "/v1/budget?tenant=" + TenantName(t), "");
        reconcile_parts[c].push_back(reply.seconds);
        auto json = ParseJson(reply.body);
        double spent = -1.0, reserved = -1.0;
        const bool read =
            CheckReply(request, reply, nullptr) && json.ok() &&
            FiniteNumber(json.value(), "spent_epsilon", &spent) &&
            FiniteNumber(json.value(), "reserved_epsilon", &reserved);
        const double expected = results[c].charged[t];
        if (!read || reserved != 0.0 ||
            std::fabs(spent - expected) > 1e-9 * std::max(1.0, expected)) {
          ++mismatched;
        }
      }
    }
  });

  CallerResult all;
  std::vector<double> reconcile_s;
  for (size_t c = 0; c < callers; ++c) {
    const CallerResult& r = results[c];
    all.write_s.insert(all.write_s.end(), r.write_s.begin(), r.write_s.end());
    all.read_s.insert(all.read_s.end(), r.read_s.begin(), r.read_s.end());
    all.attempted += r.attempted;
    all.ok += r.ok;
    all.rows += r.rows;
    reconcile_s.insert(reconcile_s.end(), reconcile_parts[c].begin(),
                       reconcile_parts[c].end());
  }

  out.Num("reconcile_mismatches", static_cast<double>(mismatched.load()));
  if (!window) {
    out.Print();
    return 0;
  }
  const Reply metrics = Exchange(p, "GET", "/metrics", "");
  const size_t completed = all.ok;
  out.Num("attempted", static_cast<double>(all.attempted));
  out.Num("ok", static_cast<double>(completed));
  out.Num("failed", static_cast<double>(all.attempted - completed));
  out.Num("wall_s", wall_s);
  out.Num("req_per_s", completed / wall_s);
  out.Num("rows_per_s", all.rows / wall_s);
  out.Num("write_p50_ms", Median(all.write_s) * 1e3);
  out.Num("write_p99_ms", Quantile(all.write_s, 0.99) * 1e3);
  out.Num("write_n", static_cast<double>(all.write_s.size()));
  out.Num("read_p50_ms", Median(all.read_s) * 1e3);
  out.Num("read_p99_ms", Quantile(all.read_s, 0.99) * 1e3);
  out.Num("read_n", static_cast<double>(all.read_s.size()));
  out.Num("reconcile_p50_ms", Median(reconcile_s) * 1e3);
  out.Num("reconcile_p99_ms", Quantile(reconcile_s, 0.99) * 1e3);
  out.Num("reconcile_n", static_cast<double>(reconcile_s.size()));
  out.Num("cpu_s", cpu_s);
  out.Num("cpu_ms_per_op", completed > 0 ? cpu_s * 1e3 / completed : 0.0);
  out.Num("peak_rss_mb", hwm_kb / 1024.0);
  out.Num("retained_kb_per_req",
          all.attempted > 0 ? (rss1 - rss0) / all.attempted : 0.0);
  out.Num("steal_share", steal);
  for (const char* counter :
       {"serve_budget_reserves", "serve_budget_commits",
        "serve_budget_refusals", "serve_persist_retries",
        "serve_persist_errors"}) {
    out.Num(counter, metrics.status == 200
                         ? PrometheusValue(metrics.body, counter)
                         : -1.0);
  }
  out.Print();
  return 0;
}

}  // namespace perfbench
}  // namespace bolton
