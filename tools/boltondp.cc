// boltondp — command-line front end for the library.
//
//   boltondp train    --data train.libsvm --algo ours --epsilon 1
//                     --model out.model [--lambda 0.01] [--passes 10] ...
//   boltondp evaluate --data test.libsvm --model out.model
//   boltondp datagen  --dataset protein --scale 0.1 --out train.libsvm
//   boltondp scrape   --port 9464 [--endpoint /metrics]
//   boltondp profile  --port 9464 --seconds 2 [--format collapsed|json]
//   boltondp serve    --port 8080 --state-dir /var/lib/boltondp
//                     [--budget-epsilon 1 --budget-delta 1e-6] ...
//   boltondp call     --port 8080 --path /v1/train --body '{"tenant":"t1"}'
//   boltondp version
//   boltondp postmortem finalize --dir crashdir
//
// `--data` accepts LIBSVM (default) or CSV (by .csv suffix); `--dataset`
// generates one of the built-in synthetic stand-ins instead. Multiclass
// datasets train one-vs-all automatically.
#include <csignal>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "core/checkpoint.h"
#include "data/loaders.h"
#include "data/projection.h"
#include "data/synthetic.h"
#include "data/transforms.h"
#include "ml/binary_stats.h"
#include "ml/metrics.h"
#include "ml/model_io.h"
#include "ml/trainer.h"
#include "obs/build_info.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/http_server.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/postmortem.h"
#include "obs/profiler.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "serve/daemon.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/net.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "util/thread_name.h"

namespace bolton {
namespace {

struct CommonDataFlags {
  std::string data;
  std::string dataset;
  double scale = 0.1;
  int64_t seed = 7;
  bool standardize = false;
  int64_t project_dim = 0;
};

void AddDataFlags(FlagParser* parser, CommonDataFlags* flags) {
  parser->AddString("data", &flags->data, "LIBSVM or .csv input file");
  parser->AddString("dataset", &flags->dataset,
                    "built-in synthetic dataset "
                    "(mnist|protein|covertype|higgs|kddcup)");
  parser->AddDouble("scale", &flags->scale, "synthetic dataset scale");
  parser->AddInt("seed", &flags->seed, "RNG seed");
  parser->AddBool("standardize", &flags->standardize,
                  "standardize features before unit-ball normalization");
  parser->AddInt("project", &flags->project_dim,
                 "Gaussian-random-project features to this dimension (0=off)");
}

Result<Dataset> LoadTrainingData(const CommonDataFlags& flags) {
  Dataset data;
  if (!flags.data.empty()) {
    if (flags.data.size() > 4 &&
        flags.data.substr(flags.data.size() - 4) == ".csv") {
      BOLTON_ASSIGN_OR_RETURN(data, LoadCsv(flags.data));
    } else {
      BOLTON_ASSIGN_OR_RETURN(data, LoadLibsvm(flags.data));
    }
  } else if (!flags.dataset.empty()) {
    BOLTON_ASSIGN_OR_RETURN(
        auto split, GenerateByName(flags.dataset, flags.scale, flags.seed));
    data = std::move(split.first);
  } else {
    return Status::InvalidArgument("pass --data FILE or --dataset NAME");
  }

  if (flags.standardize) {
    BOLTON_ASSIGN_OR_RETURN(Standardizer standardizer,
                            Standardizer::Fit(data));
    BOLTON_ASSIGN_OR_RETURN(data, standardizer.Apply(data));
  }
  if (flags.project_dim > 0) {
    BOLTON_ASSIGN_OR_RETURN(
        auto projection,
        GaussianRandomProjection::Create(
            data.dim(), static_cast<size_t>(flags.project_dim),
            flags.seed + 1));
    BOLTON_ASSIGN_OR_RETURN(data, projection.Apply(data));
  }
  data.NormalizeToUnitBall();
  return data;
}

int Train(int argc, char** argv) {
  CommonDataFlags data_flags;
  std::string algo = "ours";
  std::string model_kind = "logistic";
  std::string model_path = "model.txt";
  double epsilon = 1.0, delta = 0.0, lambda = 0.0, huber_h = 0.1;
  int64_t passes = 10, batch = 50, shards = 1, threads = 0;
  bool metrics = false;
  std::string trace_out, trace_chrome_out, ledger_out;
  int64_t serve_obs = -1, serve_obs_linger = 0;
  std::string checkpoint_dir;
  int64_t checkpoint_every = 1;
  bool resume = false;
  std::string profile_out;
  int64_t profile_hz = 97;
  std::string log_jsonl, postmortem_dir;

  FlagParser parser;
  AddDataFlags(&parser, &data_flags);
  parser.AddString("algo", &algo, "noiseless|ours|scs13|bst14");
  parser.AddString("loss", &model_kind, "logistic|huber");
  parser.AddString("model", &model_path, "output model file");
  parser.AddDouble("epsilon", &epsilon, "privacy budget epsilon");
  parser.AddDouble("delta", &delta, "privacy budget delta (0 = pure eps-DP)");
  parser.AddDouble("lambda", &lambda, "L2 regularization (0 = convex)");
  parser.AddDouble("huber", &huber_h, "Huber smoothing width");
  parser.AddInt("passes", &passes, "SGD passes");
  parser.AddInt("batch", &batch, "mini-batch size");
  parser.AddInt("shards", &shards,
                "disjoint data shards trained in parallel and averaged "
                "(noiseless/ours only; 1 = serial)");
  parser.AddInt("threads", &threads,
                "cap on concurrent shard workers dispatched to the "
                "process thread pool (0 = auto: one per shard, up to the "
                "pool's capacity); never changes the released model, only "
                "speed");
  parser.AddBool("metrics", &metrics, "print a metrics dump after training");
  parser.AddString("trace-out", &trace_out,
                   "write trace spans as JSONL to this file");
  parser.AddString("trace-chrome-out", &trace_chrome_out,
                   "write the span timeline as Chrome trace-event JSON "
                   "(loadable in chrome://tracing / ui.perfetto.dev)");
  parser.AddString("ledger-out", &ledger_out,
                   "write the privacy-spend ledger as JSONL to this file");
  parser.AddInt("serve-obs", &serve_obs,
                "serve live observability HTTP on 127.0.0.1:PORT "
                "(0 = ephemeral port, -1 = off)");
  parser.AddInt("serve-obs-linger", &serve_obs_linger,
                "after training, keep the obs server up this many ms "
                "(or until GET /quitquitquit)");
  parser.AddString("checkpoint-dir", &checkpoint_dir,
                   "write pass-boundary training checkpoints into this "
                   "existing directory (binary serial noiseless/ours only)");
  parser.AddInt("checkpoint-every", &checkpoint_every,
                "checkpoint after every N completed passes");
  parser.AddBool("resume", &resume,
                 "continue from the checkpoint in --checkpoint-dir instead "
                 "of starting fresh");
  parser.AddString("profile-out", &profile_out,
                   "sample the whole training run and write a collapsed-"
                   "stack profile (flamegraph.pl input) to this file");
  parser.AddInt("profile-hz", &profile_hz,
                "per-thread sampling frequency for --profile-out");
  parser.AddString("log-jsonl", &log_jsonl,
                   "also write every log event as structured JSONL to this "
                   "file");
  parser.AddString("postmortem-dir", &postmortem_dir,
                   "arm the crash handler: on a fatal signal or failed "
                   "check, write a bolton-postmortem-v1 report into this "
                   "directory (finish a signal crash with `boltondp "
                   "postmortem finalize --dir DIR`)");
  parser.Parse(argc, argv).CheckOK();
  if (parser.help_requested()) {
    parser.PrintHelp("boltondp train");
    return 0;
  }

  SetCurrentThreadName("main");
  if (!log_jsonl.empty()) OpenLogJsonlFile(log_jsonl).CheckOK();
  if (!postmortem_dir.empty()) {
    obs::PostmortemOptions postmortem;
    postmortem.dir = postmortem_dir;
    obs::InstallCrashHandler(postmortem).CheckOK();
  }
  if (metrics) obs::SetMetricsEnabled(true);
  if (!trace_out.empty() || !trace_chrome_out.empty()) {
    obs::TraceRecorder::Default().SetEnabled(true);
  }
  if (!ledger_out.empty()) obs::PrivacyLedger::Default().SetEnabled(true);
  // Hardware counters ride along with whichever pillar is on: spans gain
  // counter deltas, the metrics dump gains the perf_* gauges.
  if (metrics || !trace_out.empty() || !trace_chrome_out.empty()) {
    obs::SetPerfCountersEnabled(true);
  }
  // Injected faults (BOLTON_FAILPOINTS) show up in the metrics snapshot and
  // the privacy ledger; free when no failpoint is armed.
  obs::InstallFailpointObsBridge();

  std::unique_ptr<obs::ObsServer> obs_server;
  if (serve_obs >= 0) {
    // A live endpoint with nothing recording would scrape all zeros, so
    // --serve-obs implies every pillar.
    obs::SetAllEnabled(true);
    auto server =
        obs::ObsServer::Start({.port = static_cast<int>(serve_obs)});
    server.status().CheckOK();
    obs_server = server.MoveValue();
    std::printf("obs server listening on 127.0.0.1:%d\n",
                obs_server->port());
    std::fflush(stdout);
  }

  auto data = LoadTrainingData(data_flags);
  data.status().CheckOK();
  std::printf("loaded %s\n", data.value().Summary("train").c_str());

  TrainerConfig config;
  config.algorithm = ParseAlgorithm(algo).MoveValue();
  config.model =
      model_kind == "huber" ? ModelKind::kHuberSvm : ModelKind::kLogistic;
  config.lambda = lambda;
  config.huber_h = huber_h;
  config.passes = static_cast<size_t>(passes);
  config.batch_size = static_cast<size_t>(batch);
  config.shards = static_cast<size_t>(shards);
  config.executor.max_threads = static_cast<size_t>(threads);
  config.privacy = PrivacyParams{epsilon, delta};

  // The profiler brackets the training call itself: sampling starts after
  // data loading so the flamegraph answers "where does TRAINING time go",
  // not "how slow is the loader". Worker threads self-register via
  // ProfiledThreadScope inside the sharded executor.
  const bool profiling = !profile_out.empty();
  if (profiling) {
    obs::ProfilerOptions profile_options;
    profile_options.hz = static_cast<int>(profile_hz);
    obs::Profiler::Default().Start(profile_options).CheckOK();
  }

  Rng rng(data_flags.seed + 2);
  Stopwatch watch;
  if (!checkpoint_dir.empty()) {
    // Crash-safe path: same model as the plain run (checkpointing only
    // observes pass boundaries), but a SIGKILL mid-train can be resumed
    // with --resume for a bit-identical released model.
    if (data.value().num_classes() > 2) {
      std::fprintf(stderr,
                   "--checkpoint-dir supports binary models only\n");
      return 1;
    }
    auto loss = MakeLossForConfig(config);
    loss.status().CheckOK();
    CheckpointOptions ckpt;
    ckpt.dir = checkpoint_dir;
    ckpt.every_passes = static_cast<size_t>(checkpoint_every);
    ckpt.resume = resume;
    auto run = RunSolverWithCheckpoints(config.algorithm, data.value(),
                                        *loss.value(), SolverSpecForConfig(config),
                                        &rng, ckpt);
    run.status().CheckOK();
    SaveModel(run.value().model, model_path).CheckOK();
    std::printf("trained binary %s model with %s in %.2fs%s -> %s\n",
                model_kind.c_str(), AlgorithmName(config.algorithm),
                watch.ElapsedSeconds(), resume ? " (resumed)" : "",
                model_path.c_str());
    std::printf("train %s\n",
                ComputeBinaryStats(run.value().model, data.value())
                    .ToString()
                    .c_str());
  } else if (data.value().num_classes() > 2) {
    auto model = TrainMulticlass(data.value(), config, &rng);
    model.status().CheckOK();
    SaveModel(model.value(), model_path).CheckOK();
    std::printf("trained %d-class %s model with %s in %.2fs -> %s\n",
                model.value().num_classes(), model_kind.c_str(),
                AlgorithmName(config.algorithm), watch.ElapsedSeconds(),
                model_path.c_str());
    std::printf("train accuracy: %.4f\n",
                MulticlassAccuracy(model.value(), data.value()));
  } else {
    auto model = TrainBinary(data.value(), config, &rng);
    model.status().CheckOK();
    SaveModel(model.value(), model_path).CheckOK();
    std::printf("trained binary %s model with %s in %.2fs -> %s\n",
                model_kind.c_str(), AlgorithmName(config.algorithm),
                watch.ElapsedSeconds(), model_path.c_str());
    std::printf("train %s\n",
                ComputeBinaryStats(model.value(), data.value())
                    .ToString()
                    .c_str());
  }

  if (profiling) {
    obs::Profiler::Default().Stop();
    const obs::ProfileDump dump = obs::Profiler::Default().Dump();
    obs::internal::WriteStringToFile(profile_out, obs::RenderCollapsed(dump))
        .CheckOK();
    std::printf(
        "wrote profile (%llu samples @ %dHz, %.0f%% symbolized, "
        "%llu dropped) -> %s\n",
        static_cast<unsigned long long>(dump.samples), dump.hz,
        dump.leaf_symbolized_fraction * 100.0,
        static_cast<unsigned long long>(dump.dropped), profile_out.c_str());
  }

  if (metrics) {
    obs::UpdateProcessMemoryGauges();
    obs::UpdatePerfGauges();
    std::printf("%s", obs::MetricsRegistry::Default().Snapshot()
                          .ToText()
                          .c_str());
  }
  if (!trace_out.empty()) {
    obs::TraceRecorder::Default().WriteJsonl(trace_out).CheckOK();
    std::printf("wrote %zu trace spans -> %s\n",
                obs::TraceRecorder::Default().size(), trace_out.c_str());
  }
  if (!trace_chrome_out.empty()) {
    obs::internal::WriteStringToFile(
        trace_chrome_out,
        obs::RenderChromeTrace(obs::TraceRecorder::Default().Snapshot()))
        .CheckOK();
    std::printf("wrote %zu spans as Chrome trace -> %s\n",
                obs::TraceRecorder::Default().size(),
                trace_chrome_out.c_str());
  }
  if (!ledger_out.empty()) {
    obs::PrivacyLedger::Default().WriteJsonl(ledger_out).CheckOK();
    std::printf("wrote %zu ledger events -> %s\n",
                obs::PrivacyLedger::Default().size(), ledger_out.c_str());
  }
  if (obs_server != nullptr && serve_obs_linger > 0) {
    // Keep the scrape surface up past training so an external collector
    // (or the smoke test) can read the final state; /quitquitquit ends the
    // linger early.
    std::printf("obs server lingering up to %lldms (GET /quitquitquit to "
                "stop)\n",
                static_cast<long long>(serve_obs_linger));
    std::fflush(stdout);
    obs_server->WaitForQuit(serve_obs_linger);
  }
  return 0;
}

struct HttpGetReply {
  std::string head;  // status line + headers
  std::string body;
  bool ok200 = false;
};

// Raw-TCP HTTP request against a local server with a bounded retry loop:
// the server may still be binding (the smoke test races it) or wedged, so
// refused connections and timeouts are retried kAttempts times with
// exponential backoff plus jitter before declaring the request dead.
// Shared by `scrape`, `profile`, and `call`; exists so shell tests can
// talk to the server without needing curl in the image. Retrying a POST is
// safe against THIS server: a connection that failed before the response
// never reached a handler (requests are parsed before dispatch), and the
// failure modes retried here are connect/timeout, not half-done work.
Result<HttpGetReply> HttpCallWithRetry(int64_t port, const std::string& method,
                                       const std::string& path,
                                       const std::string& body,
                                       int io_timeout_ms) {
  std::string request = StrFormat(
      "%s %s HTTP/1.0\r\nHost: 127.0.0.1\r\nConnection: close\r\n",
      method.c_str(), path.c_str());
  if (!body.empty() || method == "POST") {
    request += StrFormat("Content-Type: application/json\r\n"
                         "Content-Length: %zu\r\n",
                         body.size());
  }
  request += "\r\n";
  request += body;

  constexpr int kAttempts = 3;
  constexpr int kBackoffBaseMs = 200;
  Rng jitter_rng(static_cast<uint64_t>(port) ^ 0x626f6c746f6e6a74ull);
  Status last_error = Status::OK();
  std::string text;
  bool have_response = false;
  for (int attempt = 1; attempt <= kAttempts; ++attempt) {
    if (attempt > 1) {
      const int64_t base_ms = static_cast<int64_t>(kBackoffBaseMs)
                              << (attempt - 2);
      const int64_t sleep_ms = static_cast<int64_t>(
          static_cast<double>(base_ms) * jitter_rng.UniformDouble(1.0, 1.5));
      std::fprintf(stderr,
                   "scrape attempt %d/%d failed (%s); retrying in %lldms\n",
                   attempt - 1, kAttempts, last_error.message().c_str(),
                   static_cast<long long>(sleep_ms));
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
    auto fd = net::ConnectTcp(static_cast<uint16_t>(port));
    if (!fd.ok()) {
      last_error = fd.status();
      continue;
    }
    Status sent =
        net::SendAll(fd.value(), request.data(), request.size(), io_timeout_ms);
    if (!sent.ok()) {
      last_error = sent;
      net::CloseFd(fd.value());
      continue;
    }
    auto response = net::RecvAll(fd.value(), 16 * 1024 * 1024, io_timeout_ms);
    net::CloseFd(fd.value());
    if (!response.ok()) {
      last_error = response.status();
      continue;
    }
    text = response.MoveValue();
    have_response = true;
    break;
  }
  if (!have_response) {
    return last_error.WithContext(
        StrFormat("giving up on 127.0.0.1:%lld%s after %d attempts",
                  static_cast<long long>(port), path.c_str(), kAttempts));
  }
  HttpGetReply reply;
  const size_t body_at = text.find("\r\n\r\n");
  if (body_at == std::string::npos) {
    reply.head = text;
  } else {
    reply.head = text.substr(0, body_at);
    reply.body = text.substr(body_at + 4);
  }
  reply.ok200 = reply.head.find(" 200 ") != std::string::npos;
  return reply;
}

Result<HttpGetReply> HttpGetWithRetry(int64_t port, const std::string& path,
                                      int io_timeout_ms) {
  return HttpCallWithRetry(port, "GET", path, "", io_timeout_ms);
}

// Prints the response body; exits non-zero unless the status line says 200.
int Scrape(int argc, char** argv) {
  int64_t port = 0;
  int64_t timeout_ms = 5000;
  std::string path = "/metrics";
  FlagParser parser;
  parser.AddInt("port", &port, "obs server port on 127.0.0.1");
  parser.AddString("path", &path, "request path, e.g. /metrics or /healthz");
  parser.AddString("endpoint", &path,
                   "alias for --path (e.g. /profile?seconds=1)");
  parser.AddInt("timeout-ms", &timeout_ms,
                "per-attempt IO deadline; raise it for blocking endpoints "
                "like /profile");
  parser.Parse(argc, argv).CheckOK();
  if (parser.help_requested()) {
    parser.PrintHelp("boltondp scrape");
    return 0;
  }

  auto reply = HttpGetWithRetry(port, path, static_cast<int>(timeout_ms));
  if (!reply.ok()) {
    std::fprintf(stderr, "scrape: %s\n", reply.status().message().c_str());
    return 1;
  }
  std::printf("%s", reply.value().body.c_str());
  return reply.value().ok200 ? 0 : 1;
}

// Asks a live obs server to run its sampling profiler and prints (or
// writes) the result — `boltondp profile --port N --seconds 2` is the
// flamegraph front door for an already-running `train --serve-obs` process.
int Profile(int argc, char** argv) {
  int64_t port = 0;
  int64_t seconds = 2, hz = 97, top = 30;
  std::string format = "collapsed";
  std::string out;
  FlagParser parser;
  parser.AddInt("port", &port, "obs server port on 127.0.0.1");
  parser.AddInt("seconds", &seconds,
                "sampling window; 0 snapshots a profiler the server "
                "already has running");
  parser.AddInt("hz", &hz, "sampling frequency per thread");
  parser.AddString("format", &format,
                   "collapsed (flamegraph.pl input) or json (top-frame "
                   "summary)");
  parser.AddInt("top", &top, "frames in the json summary");
  parser.AddString("out", &out, "write the profile here instead of stdout");
  parser.Parse(argc, argv).CheckOK();
  if (parser.help_requested()) {
    parser.PrintHelp("boltondp profile");
    return 0;
  }

  const std::string path = StrFormat(
      "/profile?seconds=%lld&hz=%lld&format=%s&top=%lld",
      static_cast<long long>(seconds), static_cast<long long>(hz),
      format.c_str(), static_cast<long long>(top));
  // The endpoint blocks for the whole sampling window, so the IO deadline
  // must outlast it.
  const int timeout_ms = static_cast<int>(seconds) * 1000 + 5000;
  auto reply = HttpGetWithRetry(port, path, timeout_ms);
  if (!reply.ok()) {
    std::fprintf(stderr, "profile: %s\n", reply.status().message().c_str());
    return 1;
  }
  if (!reply.value().ok200) {
    std::fprintf(stderr, "profile: server answered non-200:\n%s\n",
                 reply.value().body.c_str());
    return 1;
  }
  if (out.empty()) {
    std::printf("%s", reply.value().body.c_str());
    return 0;
  }
  obs::internal::WriteStringToFile(out, reply.value().body).CheckOK();
  std::printf("wrote profile -> %s\n", out.c_str());
  return 0;
}

int Evaluate(int argc, char** argv) {
  CommonDataFlags data_flags;
  std::string model_path = "model.txt";
  FlagParser parser;
  AddDataFlags(&parser, &data_flags);
  parser.AddString("model", &model_path, "model file to evaluate");
  parser.Parse(argc, argv).CheckOK();
  if (parser.help_requested()) {
    parser.PrintHelp("boltondp evaluate");
    return 0;
  }

  auto data = LoadTrainingData(data_flags);
  data.status().CheckOK();
  auto model = LoadMulticlassModel(model_path);
  model.status().CheckOK();

  if (model.value().num_classes() == 1) {
    const Vector& w = model.value().weights[0];
    BinaryStats stats = ComputeBinaryStats(w, data.value());
    std::printf("%s\n", stats.ToString().c_str());
    auto auc = RocAuc(w, data.value());
    if (auc.ok()) std::printf("auc=%.4f\n", auc.value());
  } else {
    ConfusionMatrix confusion = ComputeConfusion(model.value(), data.value());
    std::printf("%s", confusion.ToString().c_str());
    std::printf("accuracy=%.4f\n", confusion.Accuracy());
  }
  return 0;
}

int DataGen(int argc, char** argv) {
  std::string dataset = "protein";
  std::string out = "train.libsvm";
  double scale = 0.1;
  int64_t seed = 7;
  FlagParser parser;
  parser.AddString("dataset", &dataset,
                   "mnist|protein|covertype|higgs|kddcup");
  parser.AddString("out", &out, "output LIBSVM file");
  parser.AddDouble("scale", &scale, "dataset scale");
  parser.AddInt("seed", &seed, "RNG seed");
  parser.Parse(argc, argv).CheckOK();
  if (parser.help_requested()) {
    parser.PrintHelp("boltondp datagen");
    return 0;
  }

  auto split = GenerateByName(dataset, scale, seed);
  split.status().CheckOK();
  SaveLibsvm(split.value().first, out).CheckOK();
  SaveLibsvm(split.value().second, out + ".test").CheckOK();
  std::printf("wrote %s (%zu rows) and %s.test (%zu rows)\n", out.c_str(),
              split.value().first.size(), out.c_str(),
              split.value().second.size());
  return 0;
}

// SIGTERM/SIGINT latch for `serve`: the handler only sets a flag; the main
// thread notices and runs the graceful drain outside signal context.
std::atomic<bool> g_serve_stop{false};
void ServeSignalHandler(int) { g_serve_stop.store(true); }

// The multi-tenant daemon: mounts /v1/train, /v1/predict, /v1/aggregate,
// /v1/budget (plus the whole obs surface: /metrics, /ledger, /healthz, ...)
// and runs until SIGTERM/SIGINT or GET /quitquitquit, then drains in-flight
// requests before exiting.
int Serve(int argc, char** argv) {
  int64_t port = 0;
  std::string state_dir;
  double budget_epsilon = 1.0, budget_delta = 1e-6, max_scale = 1.0;
  int64_t handler_threads = 4, max_pending = 16;
  int64_t max_inflight = 8, max_inflight_per_tenant = 2;
  int64_t default_timeout_ms = 0, drain_timeout_ms = 5000;
  int64_t training_threads = 0;
  std::string ledger_out, log_jsonl;

  FlagParser parser;
  parser.AddInt("port", &port, "listen on 127.0.0.1:PORT (0 = ephemeral)");
  parser.AddString("state-dir", &state_dir,
                   "existing directory for the persisted per-tenant budget "
                   "state (empty = in-memory only; spend dies with the "
                   "process)");
  parser.AddDouble("budget-epsilon", &budget_epsilon,
                   "total epsilon granted to each new tenant");
  parser.AddDouble("budget-delta", &budget_delta,
                   "total delta granted to each new tenant");
  parser.AddInt("handler-threads", &handler_threads,
                "concurrent HTTP handler threads");
  parser.AddInt("max-pending", &max_pending,
                "accepted connections queued beyond this are shed with 503");
  parser.AddInt("max-inflight", &max_inflight,
                "requests executing at once across all tenants (503 beyond)");
  parser.AddInt("max-inflight-per-tenant", &max_inflight_per_tenant,
                "requests executing at once per tenant (429 beyond)");
  parser.AddInt("default-timeout-ms", &default_timeout_ms,
                "deadline for requests that send no timeout_ms (0 = none)");
  parser.AddInt("drain-timeout-ms", &drain_timeout_ms,
                "shutdown waits this long for in-flight requests before "
                "cancelling their solver runs");
  parser.AddInt("threads", &training_threads,
                "worker-pool thread cap per training request (0 = auto)");
  parser.AddDouble("max-scale", &max_scale,
                   "largest synthetic-dataset scale a request may ask for");
  parser.AddString("ledger-out", &ledger_out,
                   "write the tenant-keyed privacy ledger as JSONL here on "
                   "shutdown");
  parser.AddString("log-jsonl", &log_jsonl,
                   "also write every log event as structured JSONL to this "
                   "file");
  parser.Parse(argc, argv).CheckOK();
  if (parser.help_requested()) {
    parser.PrintHelp("boltondp serve");
    return 0;
  }

  SetCurrentThreadName("main");
  if (!log_jsonl.empty()) OpenLogJsonlFile(log_jsonl).CheckOK();
  // A daemon without its audit trail is not worth running: every pillar on.
  obs::SetAllEnabled(true);
  obs::InstallFailpointObsBridge();

  serve::ServeOptions options;
  options.port = static_cast<int>(port);
  options.handler_threads = static_cast<size_t>(handler_threads);
  options.max_pending = static_cast<size_t>(max_pending);
  options.admission.max_inflight = static_cast<size_t>(max_inflight);
  options.admission.max_inflight_per_tenant =
      static_cast<size_t>(max_inflight_per_tenant);
  options.budget.default_budget = PrivacyParams{budget_epsilon, budget_delta};
  options.budget.state_dir = state_dir;
  options.default_timeout_ms = static_cast<uint64_t>(default_timeout_ms);
  options.drain_timeout_ms = static_cast<uint64_t>(drain_timeout_ms);
  options.max_training_threads = static_cast<size_t>(training_threads);
  options.max_dataset_scale = max_scale;

  auto daemon = serve::ServeDaemon::Start(options);
  daemon.status().CheckOK();

  struct sigaction action = {};
  action.sa_handler = ServeSignalHandler;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  std::printf("serve listening on 127.0.0.1:%d\n", daemon.value()->port());
  std::fflush(stdout);

  while (!g_serve_stop.load(std::memory_order_relaxed) &&
         !daemon.value()->server().quit_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::printf("serve draining...\n");
  std::fflush(stdout);
  daemon.value()->Shutdown();
  if (!ledger_out.empty()) {
    obs::PrivacyLedger::Default().WriteJsonl(ledger_out).CheckOK();
    std::printf("wrote %zu ledger events -> %s\n",
                obs::PrivacyLedger::Default().size(), ledger_out.c_str());
  }
  std::printf("serve drained, exiting\n");
  return 0;
}

// One HTTP request against a running daemon — the curl stand-in the smoke
// tests (and quick-start examples) drive the /v1 API with.
int Call(int argc, char** argv) {
  int64_t port = 0;
  int64_t timeout_ms = 30000;
  std::string method = "POST", path = "/v1/train", body, body_file;
  FlagParser parser;
  parser.AddInt("port", &port, "daemon port on 127.0.0.1");
  parser.AddString("method", &method, "HTTP method (GET|POST)");
  parser.AddString("path", &path, "request path, e.g. /v1/train");
  parser.AddString("body", &body, "JSON request body");
  parser.AddString("body-file", &body_file,
                   "read the request body from this file instead");
  parser.AddInt("timeout-ms", &timeout_ms, "per-attempt IO deadline");
  parser.Parse(argc, argv).CheckOK();
  if (parser.help_requested()) {
    parser.PrintHelp("boltondp call");
    return 0;
  }
  if (!body_file.empty()) {
    std::ifstream in(body_file);
    if (!in) {
      std::fprintf(stderr, "call: cannot read %s\n", body_file.c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    body = buffer.str();
  }

  auto reply =
      HttpCallWithRetry(port, method, path, body, static_cast<int>(timeout_ms));
  if (!reply.ok()) {
    std::fprintf(stderr, "call: %s\n", reply.status().message().c_str());
    return 1;
  }
  // Status line to stderr (diagnostics), body to stdout (data): scripts can
  // pipe the JSON while still seeing the HTTP outcome.
  const size_t eol = reply.value().head.find("\r\n");
  std::fprintf(stderr, "%s\n",
               reply.value().head.substr(0, eol).c_str());
  std::printf("%s", reply.value().body.c_str());
  return reply.value().ok200 ? 0 : 1;
}

int Version() {
  std::printf("%s\n", obs::BuildInfoSummaryLine().c_str());
  return 0;
}

int Postmortem(int argc, char** argv) {
  if (argc < 2 || std::string(argv[1]) != "finalize") {
    std::printf("usage: boltondp postmortem finalize --dir DIR\n");
    return 1;
  }
  std::string dir;
  FlagParser parser;
  parser.AddString("dir", &dir,
                   "directory holding postmortem.raw from a crashed run");
  parser.Parse(argc - 1, argv + 1).CheckOK();
  if (parser.help_requested()) {
    parser.PrintHelp("boltondp postmortem finalize");
    return 0;
  }
  if (dir.empty()) {
    std::fprintf(stderr, "--dir is required\n");
    return 1;
  }
  const Status status = obs::FinalizePostmortem(dir);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s/postmortem.json\n", dir.c_str());
  return 0;
}

int Usage() {
  std::printf(
      "boltondp — bolt-on differentially private SGD analytics\n"
      "usage: boltondp <train|evaluate|datagen|serve|call|scrape|profile|"
      "version|postmortem> [flags]\n"
      "       boltondp <command> --help for per-command flags\n");
  return 1;
}

int Main(int argc, char** argv) {
  // Arm the flight recorder for every command: if anything crashes, the
  // recent-log ring must already be collecting.
  obs::FlightRecorder::Default();
  if (argc < 2) return Usage();
  std::string command = argv[1];
  // Shift argv so per-command parsers see only their flags.
  int sub_argc = argc - 1;
  char** sub_argv = argv + 1;
  if (command == "train") return Train(sub_argc, sub_argv);
  if (command == "evaluate") return Evaluate(sub_argc, sub_argv);
  if (command == "datagen") return DataGen(sub_argc, sub_argv);
  if (command == "serve") return Serve(sub_argc, sub_argv);
  if (command == "call") return Call(sub_argc, sub_argv);
  if (command == "scrape") return Scrape(sub_argc, sub_argv);
  if (command == "profile") return Profile(sub_argc, sub_argv);
  if (command == "version") return Version();
  if (command == "postmortem") return Postmortem(sub_argc, sub_argv);
  return Usage();
}

}  // namespace
}  // namespace bolton

int main(int argc, char** argv) { return bolton::Main(argc, argv); }
