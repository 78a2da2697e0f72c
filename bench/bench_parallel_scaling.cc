// Parallel scaling of the sharded PSGD executor (the Figure 2 workload
// re-run across shard counts): total wall time for a full bolt-on private
// training run at shards ∈ {1, 2, 4, 8}, same total m, shard slices
// dispatched onto the persistent process pool. b = 1, d = 50, λ = 1e-4,
// ε = 0.1, δ = 1/m², strongly convex — the setting that maximizes
// per-update overhead, so the shard speedup is visible rather than drowned
// in noise sampling.
//
// Every m gets an explicit serial baseline row ("serial/m=..."), measured
// in THIS run, and every shard row's speedup is computed against it —
// regression tooling and readers compare rows inside one JSON file instead
// of eyeballing two. The shards=1 row is the executor's serial delegation
// and should track the serial row to noise.
//
// Sizes: m = 1e6 is perfbench's train_1m shape (~400 MB of rows, far
// beyond the caches) and m = 2e6 doubles it. With PSGD's row prefetch the
// shortest row (shards = 8 at m = 1e6) lasts ~120 ms on a 4-core host;
// at m = 2.5e5, 4 and 8 shards fell under 40 ms. Every row must last
// ≥ 50 ms to measure work rather than scheduler noise. --scale multiplies
// both sizes.
//
// Expected shape: each shard runs PSGD over m/s examples, read in place
// through its index slice, so with ≥ s hardware threads the wall time
// drops ~s× (minus the permutation draw and the average); on a single-core
// machine shards ≥ 2 should at worst track serial. Accuracy is NOT
// compared here: sharding trades sensitivity (noise grows with the
// per-shard bound) for wall time; that trade is DESIGN.md §8's topic.
#include <cstdio>

#include "bench/bench_common.h"
#include "core/private_sgd.h"
#include "optim/thread_pool.h"

namespace bolton {
namespace bench {
namespace {

// Best of kReps timed runs (after the first, the pool is warm and the
// partition path's pages are faulted in): single-shot numbers on a shared
// machine mostly measure scheduler noise, and a regression gate built on
// them flaps. Each rep re-seeds, so every rep does identical work.
constexpr int kReps = 3;

double RunSeconds(const Dataset& data, const LossFunction& loss,
                  size_t shards, uint64_t seed) {
  BoltOnOptions options;
  options.passes = 2;
  options.batch_size = 1;
  options.shards = shards;
  options.privacy = PrivacyParams{0.1, DeltaFor(data.size())};
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    Rng rng(seed);
    const double seconds = TimedSeconds("bench.parallel_scaling", [&] {
      PrivatePsgd(data, loss, options, &rng).status().CheckOK();
    });
    if (rep == 0 || seconds < best) best = seconds;
  }
  return best;
}

void AddRow(const char* name_fmt, size_t shards_or_zero, size_t m,
            double seconds, double rows_per_sec) {
  BenchResultRow row;
  row.figure = "parallel_scaling";
  row.name = shards_or_zero == 0
                 ? StrFormat(name_fmt, m)
                 : StrFormat(name_fmt, shards_or_zero, m);
  row.dataset = "two_gaussians";
  row.algo = "ours";
  row.epsilon = 0.1;
  row.wall_seconds = seconds;
  row.rows_per_sec = rows_per_sec;
  AddBenchResult(std::move(row));
}

int Run(int argc, char** argv) {
  CommonFlags flags("bench_parallel_scaling");
  if (!flags.Parse(argc, argv)) return 1;

  std::printf("== Parallel scaling: sharded bolt-on PSGD (total wall "
              "seconds; b=1, d=50, k=2, strongly convex (eps,delta)-DP) "
              "==\n\n");
  std::printf("  %-10s %-8s %-12s %-10s %-12s %-8s %-10s\n", "m", "shards",
              "seconds", "speedup", "rows/sec", "ipc", "cache-miss");

  // Warm the persistent pool once so the first shard row measures steady
  // state (pool dispatch), not one-time worker spawn — the process-lifetime
  // cost the pool design amortizes away by construction.
  GlobalThreadPool().ParallelRun(GlobalThreadPool().max_threads(),
                                 [](size_t) {});

  auto loss = MakeLogisticLoss(1e-4, 1e4).MoveValue();
  std::vector<size_t> sizes;
  for (size_t base : {1000000, 2000000}) {
    sizes.push_back(static_cast<size_t>(base * flags.scale));
  }
  for (size_t m : sizes) {
    Dataset data =
        GenerateTwoGaussians(m, 50, 1.5, flags.seed + m).MoveValue();

    // The serial baseline row: shards = 1 IS the serial path (bit-identical
    // delegation to RunPsgd), measured fresh here so every speedup below is
    // an in-bench ratio.
    const double serial_seconds = RunSeconds(data, *loss, 1, flags.seed);
    const double serial_rows =
        serial_seconds > 0 ? static_cast<double>(m) / serial_seconds : 0;
    std::printf("  %-10zu %-8s %-12.4f %-10.2f %-12.0f %-8s %-10s\n", m,
                "serial", serial_seconds, 1.0, serial_rows, "-", "-");
    AddRow("serial/m=%zu", 0, m, serial_seconds, serial_rows);

    for (size_t shards : {1, 2, 4, 8}) {
      const obs::PerfCounterDelta before = obs::ProcessPerfTotals();
      const double seconds = RunSeconds(data, *loss, shards, flags.seed);
      const obs::PerfCounterDelta run = obs::ProcessPerfTotals() - before;
      const double speedup = seconds > 0 ? serial_seconds / seconds : 0;
      const double rows_per_sec =
          seconds > 0 ? static_cast<double>(m) / seconds : 0;
      if (run.available) {
        std::printf("  %-10zu %-8zu %-12.4f %-10.2f %-12.0f %-8.2f %-10.4f\n",
                    m, shards, seconds, speedup, rows_per_sec, run.Ipc(),
                    run.CacheMissRate());
      } else {
        std::printf("  %-10zu %-8zu %-12.4f %-10.2f %-12.0f %-8s %-10s\n", m,
                    shards, seconds, speedup, rows_per_sec, "-", "-");
      }
      AddRow("shards=%zu/m=%zu", shards, m, seconds, rows_per_sec);
    }
  }
  std::printf("\nShape check: with >= s hardware threads the wall time "
              "drops ~s x at s shards; on a single core the pool keeps "
              "shard rows tracking the serial row (same arithmetic, "
              "serialized, no per-run thread spawn).\n");
  return flags.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace bolton

int main(int argc, char** argv) { return bolton::bench::Run(argc, argv); }
