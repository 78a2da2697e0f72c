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
#include "obs/flight_recorder.h"
#include "obs/http_server.h"
#include "obs/postmortem.h"
#include "obs/session.h"
#include "obs/telemetry.h"
#include "serve/daemon.h"
#include "util/atomic_file.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/strings.h"

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

Status RunTrain(int argc, char** argv) {
  CommonDataFlags data_flags;
  std::string algo = "ours";
  std::string model_kind = "logistic";
  std::string model_path = "model.txt";
  double epsilon = 1.0, delta = 0.0, lambda = 0.0, huber_h = 0.1;
  int64_t passes = 10, batch = 50, shards = 1, threads = 0;
  obs::TelemetryFlags telemetry;
  int64_t serve_obs_linger = 0;
  std::string checkpoint_dir;
  int64_t checkpoint_every = 1;
  bool resume = false;

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
  telemetry.AddFlags(&parser);
  parser.AddString("trace-chrome-out", &telemetry.trace_chrome_out,
                   "write the span timeline as Chrome trace-event JSON "
                   "(loadable in chrome://tracing / ui.perfetto.dev)");
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
  BOLTON_RETURN_IF_ERROR(parser.Parse(argc, argv));
  if (parser.help_requested()) {
    parser.PrintHelp("boltondp train");
    return Status::OK();
  }

  obs::TelemetrySession session("train", stdout);
  BOLTON_RETURN_IF_ERROR(session.Start(telemetry));

  BOLTON_ASSIGN_OR_RETURN(const Dataset data, LoadTrainingData(data_flags));
  std::printf("loaded %s\n", data.Summary("train").c_str());

  TrainerConfig config;
  BOLTON_ASSIGN_OR_RETURN(config.algorithm, ParseAlgorithm(algo));
  if (model_kind != "logistic" && model_kind != "huber") {
    return Status::InvalidArgument("unknown loss '" + model_kind +
                                   "' (logistic|huber)");
  }
  config.model =
      model_kind == "huber" ? ModelKind::kHuberSvm : ModelKind::kLogistic;
  config.lambda = lambda;
  config.huber_h = huber_h;
  config.passes = static_cast<size_t>(passes);
  config.batch_size = static_cast<size_t>(batch);
  config.shards = static_cast<size_t>(shards);
  config.executor.max_threads = static_cast<size_t>(threads);
  config.privacy = PrivacyParams{epsilon, delta};

  Rng rng(data_flags.seed + 2);
  Stopwatch watch;
  if (!checkpoint_dir.empty()) {
    // Crash-safe path: same model as the plain run (checkpointing only
    // observes pass boundaries), but a SIGKILL mid-train can be resumed
    // with --resume for a bit-identical released model.
    if (data.num_classes() > 2) {
      return Status::InvalidArgument(
          "--checkpoint-dir supports binary models only");
    }
    BOLTON_ASSIGN_OR_RETURN(auto loss, MakeLossForConfig(config));
    CheckpointOptions ckpt;
    ckpt.dir = checkpoint_dir;
    ckpt.every_passes = static_cast<size_t>(checkpoint_every);
    ckpt.resume = resume;
    BOLTON_ASSIGN_OR_RETURN(
        auto run, RunSolverWithCheckpoints(config.algorithm, data, *loss,
                                           config, &rng, ckpt));
    BOLTON_RETURN_IF_ERROR(SaveModel(run.model, model_path));
    std::printf("trained binary %s model with %s in %.2fs%s -> %s\n",
                model_kind.c_str(), AlgorithmName(config.algorithm),
                watch.ElapsedSeconds(), resume ? " (resumed)" : "",
                model_path.c_str());
    std::printf("train %s\n",
                ComputeBinaryStats(run.model, data).ToString().c_str());
  } else if (data.num_classes() > 2) {
    BOLTON_ASSIGN_OR_RETURN(auto model, TrainMulticlass(data, config, &rng));
    BOLTON_RETURN_IF_ERROR(SaveModel(model, model_path));
    std::printf("trained %d-class %s model with %s in %.2fs -> %s\n",
                model.num_classes(), model_kind.c_str(),
                AlgorithmName(config.algorithm), watch.ElapsedSeconds(),
                model_path.c_str());
    std::printf("train accuracy: %.4f\n", MulticlassAccuracy(model, data));
  } else {
    BOLTON_ASSIGN_OR_RETURN(auto model, TrainBinary(data, config, &rng));
    BOLTON_RETURN_IF_ERROR(SaveModel(model, model_path));
    std::printf("trained binary %s model with %s in %.2fs -> %s\n",
                model_kind.c_str(), AlgorithmName(config.algorithm),
                watch.ElapsedSeconds(), model_path.c_str());
    std::printf("train %s\n",
                ComputeBinaryStats(model, data).ToString().c_str());
  }

  BOLTON_RETURN_IF_ERROR(session.Finish());
  if (session.server() != nullptr && serve_obs_linger > 0) {
    // Keep the scrape surface up past training so an external collector
    // (or the smoke test) can read the final state; /quitquitquit ends the
    // linger early.
    std::printf("obs server lingering up to %lldms (GET /quitquitquit to "
                "stop)\n",
                static_cast<long long>(serve_obs_linger));
    std::fflush(stdout);
    session.server()->WaitForQuit(serve_obs_linger);
  }
  return Status::OK();
}

int Train(int argc, char** argv) {
  return ExitStatus("train", RunTrain(argc, argv));
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
                "send and receive deadline; raise it for blocking endpoints "
                "like /profile");
  if (const Status parsed = parser.Parse(argc, argv); !parsed.ok()) {
    return ExitStatus("scrape", parsed);
  }
  if (parser.help_requested()) {
    parser.PrintHelp("boltondp scrape");
    return 0;
  }

  auto reply = obs::HttpCall(static_cast<int>(port), "GET", path, "",
                             static_cast<int>(timeout_ms));
  if (!reply.ok()) return ExitStatus("scrape", reply.status());
  std::printf("%s", reply.value().body.c_str());
  return reply.value().status == 200 ? 0 : 1;
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
  if (const Status parsed = parser.Parse(argc, argv); !parsed.ok()) {
    return ExitStatus("profile", parsed);
  }
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
  auto reply = obs::HttpCall(static_cast<int>(port), "GET", path, "",
                             timeout_ms);
  if (!reply.ok()) return ExitStatus("profile", reply.status());
  if (reply.value().status != 200) {
    std::fprintf(stderr, "profile: server answered non-200:\n%s\n",
                 reply.value().body.c_str());
    return 1;
  }
  if (out.empty()) {
    std::printf("%s", reply.value().body.c_str());
    return 0;
  }
  if (const Status written = AtomicWriteFile(out, reply.value().body, 0666);
      !written.ok()) {
    return ExitStatus("profile", written);
  }
  std::printf("wrote profile -> %s\n", out.c_str());
  return 0;
}

Status RunEvaluate(int argc, char** argv) {
  CommonDataFlags data_flags;
  std::string model_path = "model.txt";
  FlagParser parser;
  AddDataFlags(&parser, &data_flags);
  parser.AddString("model", &model_path, "model file to evaluate");
  BOLTON_RETURN_IF_ERROR(parser.Parse(argc, argv));
  if (parser.help_requested()) {
    parser.PrintHelp("boltondp evaluate");
    return Status::OK();
  }

  BOLTON_ASSIGN_OR_RETURN(const Dataset data, LoadTrainingData(data_flags));
  BOLTON_ASSIGN_OR_RETURN(const auto model, LoadMulticlassModel(model_path));
  if (model.num_classes() == 1) {
    const Vector& w = model.weights[0];
    BinaryStats stats = ComputeBinaryStats(w, data);
    std::printf("%s\n", stats.ToString().c_str());
    auto auc = RocAuc(w, data);
    if (auc.ok()) std::printf("auc=%.4f\n", auc.value());
  } else {
    ConfusionMatrix confusion = ComputeConfusion(model, data);
    std::printf("%s", confusion.ToString().c_str());
    std::printf("accuracy=%.4f\n", confusion.Accuracy());
  }
  return Status::OK();
}

int Evaluate(int argc, char** argv) {
  return ExitStatus("evaluate", RunEvaluate(argc, argv));
}

Status RunDataGen(int argc, char** argv) {
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
  BOLTON_RETURN_IF_ERROR(parser.Parse(argc, argv));
  if (parser.help_requested()) {
    parser.PrintHelp("boltondp datagen");
    return Status::OK();
  }

  BOLTON_ASSIGN_OR_RETURN(const auto split,
                          GenerateByName(dataset, scale, seed));
  BOLTON_RETURN_IF_ERROR(SaveLibsvm(split.first, out));
  BOLTON_RETURN_IF_ERROR(SaveLibsvm(split.second, out + ".test"));
  std::printf("wrote %s (%zu rows) and %s.test (%zu rows)\n", out.c_str(),
              split.first.size(), out.c_str(), split.second.size());
  return Status::OK();
}

int DataGen(int argc, char** argv) {
  return ExitStatus("datagen", RunDataGen(argc, argv));
}

// SIGTERM/SIGINT latch for `serve`: the handler only sets a flag; the main
// thread notices and runs the graceful drain outside signal context.
std::atomic<bool> g_serve_stop{false};
void ServeSignalHandler(int) { g_serve_stop.store(true); }

// The multi-tenant daemon: mounts /v1/train, /v1/predict, /v1/aggregate,
// /v1/budget (plus the whole obs surface: /metrics, /ledger, /healthz, ...)
// and runs until SIGTERM/SIGINT or GET /quitquitquit, then drains in-flight
// requests before exiting.
Status RunServe(int argc, char** argv) {
  int64_t port = 0;
  std::string state_dir;
  double budget_epsilon = 1.0, budget_delta = 1e-6, max_scale = 1.0;
  int64_t handler_threads = 4, max_pending = 16;
  int64_t max_inflight = 8, max_inflight_per_tenant = 2;
  int64_t default_timeout_ms = 0, drain_timeout_ms = 5000;
  int64_t training_threads = 0;
  obs::TelemetryFlags telemetry;

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
  parser.AddString("ledger-out", &telemetry.ledger_out,
                   "append each tenant-keyed privacy-ledger event to this "
                   "JSONL file as it happens (opened before listening; "
                   "never truncated)");
  parser.AddString("log-jsonl", &telemetry.log_jsonl,
                   "also write every log event as structured JSONL to this "
                   "file");
  BOLTON_RETURN_IF_ERROR(parser.Parse(argc, argv));
  if (parser.help_requested()) {
    parser.PrintHelp("boltondp serve");
    return Status::OK();
  }

  obs::TelemetrySession session("serve", stdout);
  BOLTON_RETURN_IF_ERROR(session.Start(telemetry));
  // A daemon without its audit trail is not worth running: every pillar on.
  obs::SetAllEnabled(true);

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

  BOLTON_ASSIGN_OR_RETURN(auto daemon, serve::ServeDaemon::Start(options));

  struct sigaction action = {};
  action.sa_handler = ServeSignalHandler;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  std::printf("serve listening on 127.0.0.1:%d\n", daemon->port());
  std::fflush(stdout);

  while (!g_serve_stop.load(std::memory_order_relaxed) &&
         !daemon->server().quit_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::printf("serve draining...\n");
  std::fflush(stdout);
  daemon->Shutdown();
  BOLTON_RETURN_IF_ERROR(session.Finish());
  std::printf("serve drained, exiting\n");
  return Status::OK();
}

int Serve(int argc, char** argv) {
  return ExitStatus("serve", RunServe(argc, argv));
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
  parser.AddInt("timeout-ms", &timeout_ms,
                "send and receive deadline; the request is not retried");
  if (const Status parsed = parser.Parse(argc, argv); !parsed.ok()) {
    return ExitStatus("call", parsed);
  }
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

  auto reply = obs::HttpCall(static_cast<int>(port), method, path, body,
                             static_cast<int>(timeout_ms));
  if (!reply.ok()) return ExitStatus("call", reply.status());
  // Status line to stderr (diagnostics), body to stdout (data): scripts can
  // pipe the JSON while still seeing the HTTP outcome.
  const size_t eol = reply.value().head.find("\r\n");
  std::fprintf(stderr, "%s\n",
               reply.value().head.substr(0, eol).c_str());
  std::printf("%s", reply.value().body.c_str());
  return reply.value().status == 200 ? 0 : 1;
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
  if (const Status parsed = parser.Parse(argc - 1, argv + 1); !parsed.ok()) {
    return ExitStatus("postmortem", parsed);
  }
  if (parser.help_requested()) {
    parser.PrintHelp("boltondp postmortem finalize");
    return 0;
  }
  if (dir.empty()) {
    return ExitStatus("postmortem",
                      Status::InvalidArgument("--dir is required"));
  }
  if (const Status status = obs::FinalizePostmortem(dir); !status.ok()) {
    return ExitStatus("postmortem", status);
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
