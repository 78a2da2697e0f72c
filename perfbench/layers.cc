// Per-layer metrics of the serve workloads (`perfbench layers`), and the
// serve-shape probes every traced run reports.
//
// The replay runs the workload's request sequence in process, telemetry on
// as in the daemon, through the calls each daemon handler makes:
// ParseJson -> Admit -> Reserve -> TrainBinary (or MakeTable +
// PrivateFeatureMean, or Dot) -> Commit. It runs on 1 thread (the callers'
// streams interleaved) and then on 4 (one stream per thread, disjoint
// tenants, as in the load generator), against a TenantBudgetManager
// persisting to --state-dir. The HTTP layer is probed on its own.
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "data/synthetic.h"
#include "engine/private_aggregates.h"
#include "engine/table.h"
#include "ml/trainer.h"
#include "obs/http_server.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "serve/admission.h"
#include "serve/budget.h"
#include "util/atomic_file.h"
#include "util/flags.h"
#include "util/json.h"

namespace bolton {
namespace perfbench {
namespace {

constexpr size_t kCallers = 4;

TrainerConfig ServeTrainConfig() {
  // The daemon's /v1/train defaults with the bodies' overrides.
  TrainerConfig config;
  config.algorithm = Algorithm::kBoltOn;
  config.model = ModelKind::kLogistic;
  config.lambda = 0.01;
  config.passes = 3;
  config.batch_size = 50;
  config.shards = 1;
  config.privacy = PrivacyParams{kTrainEpsilon, kTrainDelta};
  return config;
}

/// Stage times of one replayed request, in seconds (0 = stage not run).
struct Stages {
  Kind kind = Kind::kTrain;
  double parse = 0, admit = 0, reserve = 0, solve = 0, make_table = 0,
         aggregate = 0, dot = 0, account = 0, commit = 0, total = 0;
  double sum() const {
    return parse + admit + reserve + solve + make_table + aggregate + dot +
           account + commit;
  }
};

struct Replayer {
  const Dataset* train = nullptr;
  const Dataset* aggregate = nullptr;
  Vector model;  // scored by every predict
  serve::TenantBudgetManager* budget = nullptr;
  serve::AdmissionController* admission = nullptr;

  Stages Run(const Request& request, SpanLog* log, uint64_t op) const {
    Stages st;
    st.kind = request.kind;
    const uint64_t root = log != nullptr ? log->NewId() : 0;
    const uint64_t start = NowNanos();
    const std::string tenant = TenantName(request.tenant);
    Result<JsonValue> body = JsonValue();
    if (!request.body.empty()) {
      st.parse = Timed(log, "util.parse", root, op,
                       [&] { body = ParseJson(request.body); });
      body.status().CheckOK();
    }
    if (request.kind == Kind::kBudget) {
      st.account = Timed(log, "serve.account", root, op,
                         [&] { (void)budget->Account(tenant); });
    } else if (request.kind == Kind::kPredict) {
      st.dot = Timed(log, "ml.predict", root, op, [&] {
        const JsonValue* features = body.value().Find("features");
        Vector x(features->array_items().size());
        for (size_t i = 0; i < x.dim(); ++i) {
          x[i] = features->array_items()[i].number_value();
        }
        volatile double score = Dot(model, x);
        (void)score;
      });
    } else {
      Result<serve::AdmissionTicket> ticket = serve::AdmissionTicket();
      st.admit = Timed(log, "serve.admit", root, op,
                       [&] { ticket = admission->Admit(tenant); });
      ticket.status().CheckOK();
      std::unique_ptr<Table> table;
      if (request.kind == Kind::kAggregate) {
        st.make_table = Timed(log, "engine.make_table", root, op, [&] {
          table = MakeTable(*aggregate, StorageMode::kMemory).MoveValue();
        });
      }
      uint64_t hold = 0;
      st.reserve = Timed(log, "serve.reserve", root, op, [&] {
        hold = budget->Reserve(tenant, {request.epsilon, request.delta}, "r")
                   .value();
      });
      Rng rng(op);
      if (request.kind == Kind::kTrain) {
        st.solve = Timed(log, "core.solve", root, op, [&] {
          TrainBinary(*train, ServeTrainConfig(), &rng).status().CheckOK();
        });
      } else {
        st.aggregate = Timed(log, "engine.aggregate", root, op, [&] {
          PrivateFeatureMean(*table, 0, {request.epsilon, 0.0}, &rng)
              .status()
              .CheckOK();
        });
      }
      st.commit = Timed(log, "serve.commit", root, op,
                        [&] { budget->Commit(hold).CheckOK(); });
      st.admit += Timed(log, "serve.admit_release", root, op,
                        [&] { ticket.value().Release(); });
    }
    const uint64_t end = NowNanos();
    st.total = (end - start) * 1e-9;
    if (log != nullptr) log->Add(root, "request", 0, op, start, end);
    return st;
  }
};

std::vector<Stages> Replay(const Replayer& replayer, const ServeShape& shape,
                           uint64_t seed, size_t requests, size_t threads,
                           SpanLog* log, uint64_t op_base) {
  const std::vector<std::string> model_ids(shape.tenants, "m");
  std::vector<std::vector<Stages>> per_thread(threads);
  auto worker = [&](size_t t) {
    // One thread interleaves all callers' streams; with kCallers threads
    // each replays its own caller's stream.
    std::vector<RequestStream> streams;
    for (size_t c = t; c < kCallers; c += threads) {
      streams.emplace_back(shape, seed, c, kCallers);
    }
    for (size_t i = 0; i < requests / threads; ++i) {
      const Request request = streams[i % streams.size()].Next(model_ids);
      per_thread[t].push_back(
          replayer.Run(request, log, op_base + t * requests + i + 1));
    }
  };
  std::vector<std::thread> pool;
  for (size_t t = 1; t < threads; ++t) pool.emplace_back(worker, t);
  worker(0);
  for (std::thread& th : pool) th.join();
  std::vector<Stages> all;
  for (auto& part : per_thread) all.insert(all.end(), part.begin(), part.end());
  return all;
}

template <typename Field>
std::vector<double> Collect(const std::vector<Stages>& stages, Field field,
                            bool writes_only) {
  std::vector<double> values;
  for (const Stages& st : stages) {
    if (writes_only && !IsWrite(st.kind)) continue;
    const double v = field(st);
    if (v > 0.0) values.push_back(v);
  }
  return values;
}

/// Median seconds of `reps` calls of fn.
template <typename Fn>
double MedianOf(int reps, Fn&& fn) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) s.push_back(Timed(nullptr, "", 0, 0, fn));
  return Median(s);
}

}  // namespace

void ServeLayerMetrics(const ServeShape& shape, const std::string& state_dir,
                       const std::string& disk_dir, size_t requests,
                       uint64_t seed, SpanLog* log, JsonLine* out,
                       bool on_path) {
  obs::SetAllEnabled(true);  // every pillar on, as in the daemon
  const auto train_data =
      GenerateByName("protein", shape.train_scale, 42).MoveValue();
  const auto aggregate_data =
      GenerateByName("protein", kAggregateScale, 42).MoveValue();

  serve::TenantBudgetOptions budget_options;
  budget_options.default_budget = PrivacyParams{kBudgetEpsilon, kBudgetDelta};
  budget_options.state_dir = state_dir;
  auto budget = serve::TenantBudgetManager::Open(budget_options).MoveValue();
  serve::AdmissionController admission{serve::AdmissionOptions()};

  Replayer replayer;
  replayer.train = &train_data.first;
  replayer.aggregate = &aggregate_data.first;
  Rng rng(seed);
  replayer.model =
      TrainBinary(train_data.first, ServeTrainConfig(), &rng).MoveValue();
  replayer.budget = budget.get();
  replayer.admission = &admission;
  // Every tenant's account exists before timing, as after the warm-up.
  for (size_t t = 0; t < shape.tenants; ++t) {
    const uint64_t hold =
        budget->Reserve(TenantName(t), {kTrainEpsilon, kTrainDelta}, "warm")
            .value();
    budget->Commit(hold).CheckOK();
  }

  Replay(replayer, shape, seed + 1, std::min<size_t>(requests, 100), 1,
         nullptr, 0);
  // Untraced, traced, untraced again: the tracing overhead is taken
  // against both neighbours so drift between replays cancels.
  std::vector<Stages> untraced =
      Replay(replayer, shape, seed, requests, 1, nullptr, 0);
  const std::vector<Stages> one = Replay(replayer, shape, seed, requests, 1,
                                         log, 1000000);
  const std::vector<Stages> untraced_after =
      Replay(replayer, shape, seed, requests, 1, nullptr, 0);
  untraced.insert(untraced.end(), untraced_after.begin(),
                  untraced_after.end());
  const std::vector<Stages> four = Replay(replayer, shape, seed, requests,
                                          kCallers, log, 2000000);

  auto field = [](double Stages::*member) {
    return [member](const Stages& st) { return st.*member; };
  };
  out->Num("util.json_parse_us",
           Median(Collect(one, field(&Stages::parse), false)) * 1e6);
  out->Num("serve.admit_us",
           Median(Collect(one, field(&Stages::admit), false)) * 1e6);
  const auto reserve1 = Collect(one, field(&Stages::reserve), true);
  const auto commit1 = Collect(one, field(&Stages::commit), true);
  const auto reserve4 = Collect(four, field(&Stages::reserve), true);
  const auto commit4 = Collect(four, field(&Stages::commit), true);
  out->Num("serve.reserve_us", Median(reserve1) * 1e6);
  out->Num("serve.commit_us", Median(commit1) * 1e6);
  out->Num("serve.reserve_us_4t", Median(reserve4) * 1e6);
  out->Num("serve.commit_us_4t", Median(commit4) * 1e6);
  const double budget1 = Mean(reserve1) + Mean(commit1);
  const double budget4 = Mean(reserve4) + Mean(commit4);
  out->Num("serve.budget_wait_share", (budget4 - budget1) / budget4);
  struct stat state {};
  const std::string state_file = state_dir + "/bolton.budget";
  const double state_bytes =
      stat(state_file.c_str(), &state) == 0 ? state.st_size : 0.0;
  // Reserve and commit each rewrite the whole state file.
  out->Num("serve.persist_bytes_per_write", state_bytes * 2);

  // Stage attribution for run.py's breakdown beside the end-to-end p50.
  for (const auto& [prefix, writes] :
       {std::pair<const char*, bool>{"replay.write", true},
        {"replay.read", false}}) {
    std::vector<double> sums, totals;
    for (const Stages& st : one) {
      if (IsWrite(st.kind) != writes) continue;
      sums.push_back(st.sum());
      totals.push_back(st.total);
    }
    if (sums.empty()) continue;
    out->Num(std::string(prefix) + "_stage_sum_ms", Median(sums) * 1e3);
    out->Num(std::string(prefix) + "_total_ms", Median(totals) * 1e3);
  }

  // engine: an in-memory table of protein@0.05 and one private mean.
  std::unique_ptr<Table> table;
  out->Num("engine.make_table_ms", 1e3 * MedianOf(50, [&] {
             table = MakeTable(aggregate_data.first, StorageMode::kMemory)
                         .MoveValue();
           }));
  out->Num("engine.aggregate_us", 1e6 * MedianOf(200, [&] {
             PrivateFeatureMean(*table, 0, {kAggregateEpsilon, 0.0}, &rng)
                 .status()
                 .CheckOK();
           }));

  // obs: one HTTP exchange against an ObsServer with one trivial handler.
  {
    obs::ObsServerOptions server_options;
    server_options.handler_threads = kCallers;
    auto server = obs::ObsServer::Start(server_options).MoveValue();
    server->RegisterHandler("GET", "/ping", [](const obs::HttpRequest&) {
      obs::HttpResponse response;
      response.body = "{}\n";
      return response;
    });
    std::vector<double> roundtrip;
    for (int i = 0; i < 300; ++i) {
      const Reply reply = Exchange(server->port(), "GET", "/ping", "");
      if (reply.status == 200) roundtrip.push_back(reply.seconds);
    }
    server->Stop();
    out->Num("obs.http_roundtrip_us", Median(roundtrip) * 1e6);
  }

  // util: a state-file-sized atomic write in the state dir, and the same
  // write on the checkout's disk (reported only).
  const std::string payload(static_cast<size_t>(std::max(1.0, state_bytes)),
                            'x');
  for (const auto& [name, dir] :
       {std::pair<const char*, std::string>{"util.atomic_write_us", state_dir},
        {"util.atomic_write_disk_us", disk_dir}}) {
    const std::string path = dir + "/probe";
    out->Num(name, 1e6 * MedianOf(100, [&] {
               AtomicWriteFile(path + ".tmp", path, dir, payload).CheckOK();
             }));
    std::remove(path.c_str());
  }

  if (on_path) {
    out->Num("core.solve_ms",
             Median(Collect(one, field(&Stages::solve), false)) * 1e3);
    std::vector<double> on_s, off_s;
    for (int rep = 0; rep < 30; ++rep) {
      for (bool telemetry : {false, true}) {
        obs::SetAllEnabled(telemetry);
        Rng train_rng(seed + rep);
        (telemetry ? on_s : off_s).push_back(Timed(nullptr, "", 0, 0, [&] {
          TrainBinary(train_data.first, ServeTrainConfig(), &train_rng)
              .status()
              .CheckOK();
        }));
      }
    }
    out->Num("obs.telemetry_overhead_pct",
             (Median(on_s) / Median(off_s) - 1.0) * 100.0);
    double sum = 0.0, total = 0.0, plain = 0.0;
    for (const Stages& st : one) {
      sum += st.sum();
      total += st.total;
    }
    for (const Stages& st : untraced) plain += st.total;
    out->Num("trace.stage_sum_ratio", sum / total);
    out->Num("trace.overhead_pct", (2.0 * total / plain - 1.0) * 100.0);
  } else {
    auto& registry = obs::MetricsRegistry::Default();
    for (const auto& [name, counter] :
         {std::pair<const char*, const char*>{"serve.reserves",
                                              "serve.budget_reserves"},
          {"serve.commits", "serve.budget_commits"},
          {"serve.refusals", "serve.budget_refusals"},
          {"serve.persist_retries", "serve.persist_retries"},
          {"serve.persist_errors", "serve.persist_errors"}}) {
      out->Num(name,
               static_cast<double>(registry.GetCounter(counter)->Value()));
    }
  }
  obs::SetAllEnabled(false);
}

int LayersMain(int argc, char** argv) {
  int64_t seed = 1, requests = 2000;
  bool smoke = false;
  std::string workload = "serve_train", state_dir, disk_dir, spans_out;
  FlagParser parser;
  parser.AddString("workload", &workload, "serve_train | serve_mix");
  parser.AddInt("seed", &seed, "workload seed");
  parser.AddInt("requests", &requests, "requests per replay");
  parser.AddBool("smoke", &smoke, "smoke-sized tenant counts");
  parser.AddString("state-dir", &state_dir, "empty budget state directory");
  parser.AddString("disk-dir", &disk_dir,
                   "directory on the checkout's disk for the disk probe");
  parser.AddString("spans-out", &spans_out, "bench span JSONL");
  parser.Parse(argc, argv).CheckOK();
  const ServeShape shape = ServeShapeFor(workload, smoke);

  JsonLine out;
  SpanLog log;
  // data: the workload's synthetic datasets, as the daemon's first request
  // for each synthesizes them.
  out.Num("data.generate_s", MedianOf(3, [&] {
            GenerateByName("protein", shape.train_scale, 42).status().CheckOK();
            if (shape.aggregate_share > 0.0) {
              GenerateByName("protein", kAggregateScale, 42).status().CheckOK();
            }
          }));
  // The training-layer probes at this workload's train shape, sharded 4
  // ways (the daemon itself trains at shards = 1).
  {
    auto data = GenerateByName("protein", shape.train_scale, 42).MoveValue();
    auto loss = MakeLogisticLoss(0.01, 100.0).MoveValue();
    BoltOnOptions options = ReleaseOptions(data.first.size(), 4, 3, 50);
    options.privacy = PrivacyParams{kTrainEpsilon, kTrainDelta};
    std::vector<double> untraced_s;
    bool faithful = true;
    const std::vector<ReleaseTrace> traces =
        PairedReleases(data.first, *loss, options, 20,
                       static_cast<uint64_t>(seed), nullptr, &untraced_s,
                       &faithful);
    out.Num("replay_faithful", faithful ? 1 : 0);
    (void)ReleaseLayerMetrics(data.first, *loss, options, traces,
                              static_cast<uint64_t>(seed), nullptr, &out);
  }
  ServeLayerMetrics(shape, state_dir, disk_dir, static_cast<size_t>(requests),
                    static_cast<uint64_t>(seed), &log, &out,
                    /*on_path=*/true);
  if (!spans_out.empty()) log.WriteJsonl(spans_out);
  out.Print();
  return 0;
}

}  // namespace perfbench
}  // namespace bolton
