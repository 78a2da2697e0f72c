// `perfbench train`: the train_1m workload, an offline private release in
// process. Two-Gaussians, d = 50, m training rows plus a held-out set drawn
// in the same generator call; logistic loss with λ = 1e-3 (R = 1/λ), b = 1,
// k = 2, shards = 4, (ε, δ) = (0.1, 1/m²), telemetry off as in
// `boltondp train`.
//
// Untraced (--trace 0): set up --setups times, then run --releases
// PrivatePsgd releases back to back and check every released model.
// Traced (--trace 1): the same set-up and a few untraced releases, then the
// release replayed stage by stage through the public calls under bench-side
// spans, the per-layer probes at this shape, and the serve-shape probes.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "core/private_sgd.h"
#include "data/synthetic.h"
#include "ml/metrics.h"
#include "obs/telemetry.h"
#include "optim/parallel_executor.h"
#include "optim/schedule.h"
#include "optim/thread_pool.h"
#include "random/dp_noise.h"
#include "random/permutation.h"
#include "util/flags.h"

namespace bolton {
namespace perfbench {
namespace {

constexpr size_t kDim = 50;
constexpr double kMargin = 1.5;
constexpr double kLambda = 1e-3;

struct TrainData {
  Dataset train{kDim, 2};
  Dataset heldout{kDim, 2};
};

/// One generator call for m + h rows, moved (not copied) into the training
/// and held-out sets so set-up never holds the rows twice.
TrainData MakeTrainData(size_t m, size_t h, uint64_t seed) {
  Dataset full = GenerateTwoGaussians(m + h, kDim, kMargin, seed).MoveValue();
  TrainData data;
  for (size_t i = 0; i < full.size(); ++i) {
    (i < m ? data.train : data.heldout).Add(std::move(full[i]));
  }
  return data;
}

double CpuSelfSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec + usage.ru_stime.tv_sec +
         (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

bool ModelOk(const Vector& model, size_t dim) {
  if (model.dim() != dim) return false;
  for (size_t j = 0; j < model.dim(); ++j) {
    if (!std::isfinite(model[j])) return false;
  }
  return true;
}

}  // namespace

BoltOnOptions ReleaseOptions(size_t m, size_t shards, size_t passes,
                             size_t batch) {
  BoltOnOptions options;
  options.passes = passes;
  options.batch_size = batch;
  options.shards = shards;
  const double md = static_cast<double>(m);
  options.privacy = PrivacyParams{0.1, 1.0 / (md * md)};
  return options;
}

ReleaseTrace TraceRelease(const Dataset& train, const LossFunction& loss,
                          const BoltOnOptions& options, Rng* rng,
                          SpanLog* log, uint64_t op) {
  // The stage order of PrivateStronglyConvexPsgd, call for call, so the
  // replay consumes `rng` exactly as the release does.
  ReleaseTrace trace;
  const uint64_t root = log != nullptr ? log->NewId() : 0;
  const uint64_t start = NowNanos();
  SensitivitySetup setup;
  setup.passes = options.passes;
  setup.batch_size = options.batch_size;
  setup.num_examples = train.size();
  double sensitivity = 0.0;
  trace.calibrate_s = Timed(log, "core.calibrate", root, op, [&] {
    sensitivity = BoltOnSensitivity(loss, 0.0, setup, options.shards,
                                    options.use_corrected_minibatch_sensitivity,
                                    options.privacy)
                      .value();
  });
  auto schedule =
      MakeInverseTimeStep(loss.strong_convexity(), loss.smoothness())
          .MoveValue();
  Rng psgd_rng = rng->Split();
  PsgdOptions psgd;
  psgd.run() = options.run();
  psgd.radius = loss.radius();
  psgd.sampling = SamplingMode::kPermutation;
  ShardedPsgdOutput run;
  const uint64_t run_start = NowNanos();
  const uint64_t sharded = log != nullptr ? log->NewId() : 0;
  trace.sharded_s = Timed(nullptr, "", 0, op, [&] {
    run = RunShardedPsgd(train, loss, *schedule, psgd, &psgd_rng).MoveValue();
  });
  trace.util = run.utilization;
  const double phases_s =
      (trace.util.partition_ns + trace.util.dispatch_ns +
       trace.util.average_ns) * 1e-9;
  trace.teardown_s = trace.sharded_s - phases_s;
  PrivateSgdOutput released;
  trace.perturb_s = Timed(log, "core.perturb", root, op, [&] {
    released = BoltOnPerturb(run.model, sensitivity, options.privacy, rng)
                   .MoveValue();
  });
  const uint64_t end = NowNanos();
  trace.total_s = (end - start) * 1e-9;
  trace.model = std::move(released.model);
  if (log != nullptr) {
    const uint64_t run_end =
        run_start + static_cast<uint64_t>(trace.sharded_s * 1e9);
    log->Add(sharded, "optim.sharded_psgd", root, op, run_start, run_end);
    // The executor's phases tile the call: partition, dispatch, average,
    // and the remainder (mostly freeing the shard copies) as teardown.
    uint64_t at = run_start;
    for (const auto& [name, ns] :
         {std::pair<const char*, uint64_t>{"optim.partition",
                                           trace.util.partition_ns},
          {"optim.dispatch", trace.util.dispatch_ns},
          {"optim.average", trace.util.average_ns}}) {
      log->Add(log->NewId(), name, sharded, op, at, at + ns);
      at += ns;
    }
    log->Add(log->NewId(), "optim.teardown", sharded, op, at, run_end);
    log->Add(root, "release", 0, op, start, end);
  }
  return trace;
}

std::vector<ReleaseTrace> PairedReleases(const Dataset& train,
                                         const LossFunction& loss,
                                         const BoltOnOptions& options,
                                         size_t count, uint64_t seed,
                                         SpanLog* log,
                                         std::vector<double>* untraced_s,
                                         bool* faithful) {
  std::vector<ReleaseTrace> traces;
  for (size_t r = 0; r < count; ++r) {
    Rng plain_rng(seed * 7919 + r);
    Vector plain;
    untraced_s->push_back(Timed(nullptr, "", 0, 0, [&] {
      plain = PrivatePsgd(train, loss, options, &plain_rng).value().model;
    }));
    Rng traced_rng(seed * 7919 + r);
    traces.push_back(
        TraceRelease(train, loss, options, &traced_rng, log, r + 1));
    const Vector& traced = traces.back().model;
    for (size_t j = 0; j < plain.dim(); ++j) {
      *faithful = *faithful && traced.dim() == plain.dim() &&
                  traced[j] == plain[j];
    }
  }
  return traces;
}

double ReleaseLayerMetrics(const Dataset& train, const LossFunction& loss,
                           const BoltOnOptions& sharded,
                           const std::vector<ReleaseTrace>& traces,
                           uint64_t seed, SpanLog* log, JsonLine* out) {
  const size_t m = train.size();
  Rng rng(seed ^ 0x6c61796572ull);

  std::vector<double> permutation_s, subset_s;
  std::vector<size_t> order;
  for (int rep = 0; rep < 3; ++rep) {
    permutation_s.push_back(Timed(log, "random.permutation", 0, 0, [&] {
      order = RandomPermutation(m, &rng);
    }));
    // The executor's shard split: a copy of each shard's rows.
    const size_t s = sharded.shards;
    subset_s.push_back(Timed(log, "data.subset", 0, 0, [&] {
      std::vector<Dataset> shards;
      size_t offset = 0;
      for (size_t j = 0; j < s; ++j) {
        const size_t size_j = m / s + (j < m % s ? 1 : 0);
        std::vector<size_t> indices(order.begin() + offset,
                                    order.begin() + offset + size_j);
        shards.push_back(train.Subset(indices));
        offset += size_j;
      }
    }));
  }
  out->Num("random.permutation_ms", Median(permutation_s) * 1e3);
  out->Num("data.subset_ms", Median(subset_s) * 1e3);

  // Serial PSGD over one shard: the per-gradient cost of the kernel.
  std::vector<size_t> first(order.begin(), order.begin() + m / sharded.shards);
  const Dataset shard = train.Subset(first);
  auto schedule =
      MakeInverseTimeStep(loss.strong_convexity(), loss.smoothness())
          .MoveValue();
  PsgdOptions psgd;
  psgd.run() = sharded.run();
  psgd.shards = 1;
  psgd.radius = loss.radius();
  std::vector<double> ns_per_gradient, off_s, on_s;
  for (int rep = 0; rep < 3; ++rep) {
    for (bool telemetry : {false, true}) {
      obs::SetAllEnabled(telemetry);
      PsgdStats stats;
      const double seconds = Timed(nullptr, "", 0, 0, [&] {
        stats = RunPsgd(shard, loss, *schedule, psgd, &rng).value().stats;
      });
      (telemetry ? on_s : off_s).push_back(seconds);
      if (!telemetry) {
        ns_per_gradient.push_back(seconds * 1e9 /
                                  std::max<size_t>(1, stats.gradient_evaluations));
      }
    }
  }
  obs::SetAllEnabled(false);
  out->Num("optim.ns_per_gradient", Median(ns_per_gradient));

  std::vector<double> partition, dispatch, average, spawn_max, busy_max,
      busy_mean, busy_fraction, teardown, calibrate, perturb, sharded_total;
  for (const ReleaseTrace& t : traces) {
    partition.push_back(t.util.partition_ns * 1e-6);
    dispatch.push_back(t.util.dispatch_ns * 1e-6);
    average.push_back(t.util.average_ns * 1e-3);
    double spawn = 0.0, bmax = 0.0, bsum = 0.0;
    for (const WorkerStats& w : t.util.workers) {
      spawn = std::max(spawn, w.spawn_ns * 1e-3);
      bmax = std::max(bmax, w.busy_ns * 1e-6);
      bsum += w.busy_ns * 1e-6;
    }
    spawn_max.push_back(spawn);
    busy_max.push_back(bmax);
    busy_mean.push_back(t.util.workers.empty()
                            ? 0.0
                            : bsum / t.util.workers.size());
    busy_fraction.push_back(t.util.busy_fraction);
    teardown.push_back(t.teardown_s * 1e3);
    calibrate.push_back(t.calibrate_s * 1e6);
    perturb.push_back(t.perturb_s * 1e6);
    sharded_total.push_back(t.total_s);
  }
  out->Num("optim.partition_ms", Median(partition));
  out->Num("optim.dispatch_ms", Median(dispatch));
  out->Num("optim.average_us", Median(average));
  out->Num("optim.spawn_us_max", Median(spawn_max));
  out->Num("optim.shard_busy_ms_max", Median(busy_max));
  out->Num("optim.shard_busy_ms_mean", Median(busy_mean));
  out->Num("optim.busy_fraction", Median(busy_fraction));
  out->Num("optim.teardown_ms", Median(teardown));
  out->Num("core.calibrate_us", Median(calibrate));
  out->Num("core.perturb_us", Median(perturb));

  // The same release at shards = 1.
  BoltOnOptions serial = sharded;
  serial.shards = 1;
  Rng serial_rng(seed * 7919);
  const double serial_s = Timed(log, "serial_release", 0, 0, [&] {
    PrivatePsgd(train, loss, serial, &serial_rng).status().CheckOK();
  });
  out->Num("optim.serial_release_s", serial_s);
  out->Num("optim.speedup", serial_s / Median(sharded_total));

  // One noise draw at this shape: all that bolt-on adds to the run.
  const double sensitivity = 1.0 / (kLambda * static_cast<double>(m));
  const NoiseMechanism mechanism = sharded.privacy.delta > 0.0
                                       ? NoiseMechanism::kGaussian
                                       : NoiseMechanism::kLaplace;
  std::vector<double> draw_us;
  for (int rep = 0; rep < 200; ++rep) {
    draw_us.push_back(1e6 * Timed(nullptr, "", 0, 0, [&] {
      SampleDpNoise(mechanism, train.dim(), sensitivity,
                    sharded.privacy.epsilon, sharded.privacy.delta, &rng)
          .status()
          .CheckOK();
    }));
  }
  out->Num("random.noise_draw_us", Median(draw_us));
  return (Median(on_s) / Median(off_s) - 1.0) * 100.0;
}

int TrainMain(int argc, char** argv) {
  int64_t m = 1000000, heldout = 20000, releases = 12, setups = 3, seed = 1;
  int64_t trace = 0, traced_releases = 4, corrupt_every = 0;
  double accuracy_floor = 0.65;
  std::string state_dir, disk_dir, spans_out;
  FlagParser parser;
  parser.AddInt("m", &m, "training rows");
  parser.AddInt("heldout", &heldout, "held-out rows");
  parser.AddInt("releases", &releases, "releases in the measured window");
  parser.AddInt("setups", &setups, "set-ups; setup_s is their median");
  parser.AddInt("seed", &seed, "workload seed");
  parser.AddInt("trace", &trace, "1 = traced per-layer run");
  parser.AddInt("traced-releases", &traced_releases,
                "releases replayed stage by stage (--trace 1)");
  parser.AddInt("corrupt-every", &corrupt_every,
                "corrupt every Nth released model before checking it");
  parser.AddDouble("accuracy-floor", &accuracy_floor,
                   "held-out accuracy every released model must reach");
  parser.AddString("state-dir", &state_dir,
                   "budget state directory for the serve-shape probes");
  parser.AddString("disk-dir", &disk_dir,
                   "directory on the checkout's disk for the disk probe");
  parser.AddString("spans-out", &spans_out, "bench span JSONL (--trace 1)");
  parser.Parse(argc, argv).CheckOK();
  obs::SetAllEnabled(false);

  // ---- set-up: generation, held-out split, pool warm-up.
  std::vector<double> setup_s, generate_s;
  TrainData data;
  for (int64_t i = 0; i < setups; ++i) {
    data = TrainData();  // free the previous set before drawing the next
    const double start = NowSeconds();
    data = MakeTrainData(static_cast<size_t>(m), static_cast<size_t>(heldout),
                         static_cast<uint64_t>(seed) + 1000 * i);
    generate_s.push_back(NowSeconds() - start);
    GlobalThreadPool().ParallelRun(GlobalThreadPool().max_threads(),
                                   [](size_t) {});
    setup_s.push_back(NowSeconds() - start);
  }
  auto loss = MakeLogisticLoss(kLambda, 1.0 / kLambda).MoveValue();
  const BoltOnOptions options =
      ReleaseOptions(static_cast<size_t>(m), 4, 2, 1);

  // One untimed release first: its shard copies fault in the heap that
  // every later release reuses.
  double warmup_release_s = 0.0;
  {
    Rng rng(static_cast<uint64_t>(seed) * 7919 + 999);
    const double start = NowSeconds();
    PrivatePsgd(data.train, *loss, options, &rng).status().CheckOK();
    warmup_release_s = NowSeconds() - start;
  }

  // ---- measured window: releases back to back, each checked.
  const int64_t window = trace ? std::min<int64_t>(releases, 4) : releases;
  std::vector<double> release_s, score_s;
  double cpu_s = 0.0;
  size_t ok = 0;
  const double rss0 = ProcessStatusKb(0, "VmRSS:");
  double min_accuracy = 1.0;
  for (int64_t r = 0; r < window; ++r) {
    Rng rng(static_cast<uint64_t>(seed) * 7919 + r);
    const double cpu0 = CpuSelfSeconds();
    const double start = NowSeconds();
    auto released = PrivatePsgd(data.train, *loss, options, &rng);
    release_s.push_back(NowSeconds() - start);
    cpu_s += CpuSelfSeconds() - cpu0;
    if (!released.ok()) continue;
    Vector model = std::move(released.value().model);
    if (corrupt_every > 0 && (r + 1) % corrupt_every == 0) {
      model[0] = std::nan("");
    }
    if (!ModelOk(model, kDim)) continue;
    double accuracy = 0.0;
    score_s.push_back(Timed(nullptr, "", 0, 0, [&] {
      accuracy = BinaryAccuracy(model, data.heldout);
    }));
    min_accuracy = std::min(min_accuracy, accuracy);
    if (accuracy >= accuracy_floor) ++ok;
  }
  const double rss1 = ProcessStatusKb(0, "VmRSS:");
  double window_s = 0.0;
  for (double s : release_s) window_s += s;

  JsonLine out;
  out.Num("attempted", static_cast<double>(window));
  out.Num("ok", static_cast<double>(ok));
  out.Num("failed", static_cast<double>(window - ok));
  out.Num("setup_s", Median(setup_s));
  out.Num("rows_per_s", static_cast<double>(m) * window / window_s);
  out.Num("req_per_s", window / window_s);
  out.Num("write_p50_ms", Median(release_s) * 1e3);
  out.Num("read_p50_ms", Median(score_s) * 1e3);
  out.Num("read_n", static_cast<double>(score_s.size()));
  out.Num("cpu_ms_per_op", cpu_s * 1e3 / window);
  out.Num("min_accuracy", min_accuracy);
  out.Num("warmup_release_s", warmup_release_s);
  out.Num("releases", static_cast<double>(window));
  if (trace) {
    out.Num("data.generate_s", Median(generate_s));
    out.Num("tail.write_p99_ms", Quantile(release_s, 0.99) * 1e3);
    out.Num("tail.write_n", static_cast<double>(release_s.size()));
    out.Num("tail.read_p99_ms", Quantile(score_s, 0.99) * 1e3);
    out.Num("tail.read_n", static_cast<double>(score_s.size()));
    out.Num("obs.retained_kb_per_req", (rss1 - rss0) / window);

    // Each traced release is paired with an untraced one of the same seed:
    // the replay must release the same model bit for bit, and the pair's
    // times give the tracing overhead.
    SpanLog log;
    std::vector<double> untraced_s;
    bool faithful = true;
    const std::vector<ReleaseTrace> traces = PairedReleases(
        data.train, *loss, options, static_cast<size_t>(traced_releases),
        static_cast<uint64_t>(seed), &log, &untraced_s, &faithful);
    out.Num("obs.telemetry_overhead_pct",
            ReleaseLayerMetrics(data.train, *loss, options, traces,
                                static_cast<uint64_t>(seed), &log, &out));
    std::vector<double> traced_s, ratio;
    for (const ReleaseTrace& t : traces) {
      traced_s.push_back(t.total_s);
      ratio.push_back((t.calibrate_s + t.sharded_s + t.perturb_s) /
                      t.total_s);
    }
    out.Num("replay_faithful", faithful ? 1 : 0);
    out.Num("core.solve_ms", Median(traced_s) * 1e3);
    out.Num("trace.stage_sum_ratio", Median(ratio));
    out.Num("trace.overhead_pct",
            (Median(traced_s) / Median(untraced_s) - 1.0) * 100.0);
    // The serve layers are off this workload's path; they are probed at
    // the serve_train shape.
    data = TrainData();
    ServeLayerMetrics(ServeShapeFor("serve_train", true), state_dir,
                      disk_dir, 400, static_cast<uint64_t>(seed), &log, &out,
                      /*on_path=*/false);
    if (!spans_out.empty()) log.WriteJsonl(spans_out);
  }
  out.Num("peak_rss_mb", ProcessStatusKb(0, "VmHWM:") / 1024.0);
  out.Print();
  return 0;
}

}  // namespace perfbench
}  // namespace bolton
