// Figure 2 — scalability of the (ε,δ)-DP SGD algorithms inside the engine:
// per-epoch runtime as the number of examples grows, for (a) in-memory
// tables and (b) disk-backed tables. Mini-batch size 1 (the paper's
// setting, which maximizes the white-box algorithms' noise-sampling
// overhead), d = 50, ε = 0.1, λ = 1e-4, strongly convex.
//
// Expected shape (paper): all four curves are linear in m. In memory,
// SCS13 and BST14 sit well above Noiseless/Ours (per-update noise sampling
// dominates CPU); on disk all curves converge because I/O dominates and is
// identical across algorithms. "Ours" tracks Noiseless exactly.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "engine/driver.h"
#include "random/distributions.h"
#include "random/dp_noise.h"

namespace bolton {
namespace bench {
namespace {

// Per-update white-box noise with a fixed configuration; the runtime cost,
// not the calibration, is what Figure 2 measures.
class Scs13StyleNoise final : public GradientNoiseSource {
 public:
  Result<Vector> Sample(size_t, size_t dim, Rng* rng) override {
    return SampleSphericalLaplace(dim, 0.04, 0.01, rng);
  }
};

class Bst14StyleNoise final : public GradientNoiseSource {
 public:
  Result<Vector> Sample(size_t, size_t dim, Rng* rng) override {
    return SampleGaussianVector(dim, 0.5, rng);
  }
};

// Each cell runs 1 + kWarmEpochs epochs in one driver call and reports the
// median of the warm ones: the first epoch after MakeTable runs on cold
// caches and alone moved identical runs 0.6-1.7x per cell.
constexpr size_t kWarmEpochs = 5;

double EpochSeconds(Table* table, const LossFunction& loss, bool bolt_on,
                    GradientNoiseSource* noise, uint64_t seed) {
  auto schedule =
      MakeInverseTimeStep(loss.strong_convexity(), loss.smoothness())
          .MoveValue();
  DriverOptions options;
  options.max_epochs = 1 + kWarmEpochs;
  options.batch_size = 1;
  options.radius = loss.radius();
  Rng rng(seed);
  auto out = RunSgdDriver(table, loss, *schedule, options, &rng, noise);
  out.status().CheckOK();
  std::vector<double> warm(out.value().epoch_seconds.begin() + 1,
                           out.value().epoch_seconds.end());
  std::nth_element(warm.begin(), warm.begin() + kWarmEpochs / 2, warm.end());
  double seconds = warm[kWarmEpochs / 2];
  if (bolt_on) {
    // Ours adds exactly one draw after the run; include it for honesty.
    Rng noise_rng(seed + 1);
    seconds += TimedSeconds("bench.bolton_draw", [&] {
      SampleSphericalLaplace(table->dim(), 1e-4, 0.1, &noise_rng)
          .status()
          .CheckOK();
    });
  }
  return seconds;
}

// `spill_dir` holds the disk panel's table files.
void RunPanel(const char* title, StorageMode mode,
              const std::vector<size_t>& sizes, uint64_t seed,
              const std::string& spill_dir) {
  std::printf("%s\n", title);
  std::printf("  %-10s %-12s %-12s %-12s %-12s\n", "m", "noiseless",
              "ours", "scs13", "bst14");
  const char* storage = mode == StorageMode::kMemory ? "memory" : "disk";
  auto loss = MakeLogisticLoss(1e-4, 1e4).MoveValue();
  for (size_t m : sizes) {
    Dataset data = GenerateTwoGaussians(m, 50, 1.5, seed + m).MoveValue();
    const std::string spill = StrFormat("%s/m%zu.bin", spill_dir.c_str(), m);
    auto table = MakeTable(data, mode, spill, 4096).MoveValue();

    Scs13StyleNoise scs13;
    Bst14StyleNoise bst14;
    const std::pair<const char*, double> timings[] = {
        {"noiseless", EpochSeconds(table.get(), *loss, false, nullptr, seed)},
        {"ours", EpochSeconds(table.get(), *loss, true, nullptr, seed)},
        {"scs13", EpochSeconds(table.get(), *loss, false, &scs13, seed)},
        {"bst14", EpochSeconds(table.get(), *loss, false, &bst14, seed)},
    };
    std::printf("  %-10zu %-12.4f %-12.4f %-12.4f %-12.4f\n", m,
                timings[0].second, timings[1].second, timings[2].second,
                timings[3].second);
    for (const auto& [algo, seconds] : timings) {
      BenchResultRow row;
      row.figure = "fig2_scalability";
      row.name = StrFormat("%s/%s/m=%zu", storage, algo, m);
      row.dataset = "two_gaussians";
      row.algo = algo;
      row.wall_seconds = seconds;
      row.rows_per_sec = seconds > 0 ? static_cast<double>(m) / seconds : 0;
      AddBenchResult(std::move(row));
    }
  }
}

int Run(int argc, char** argv) {
  CommonFlags flags("bench_fig2_scalability");
  if (!flags.Parse(argc, argv)) return 1;

  const Result<std::string> spill_dir = MakeTempDir("bolton_fig2");
  if (!spill_dir.ok()) return flags.Fail(spill_dir.status());

  std::printf("== Figure 2: Scalability (per-epoch runtime, seconds, median "
              "of %zu warm epochs; b=1, d=50, strongly convex "
              "(eps,delta)-DP) ==\n\n",
              kWarmEpochs);
  std::vector<size_t> sizes;
  for (size_t base : {25000, 50000, 100000, 200000}) {
    sizes.push_back(static_cast<size_t>(base * flags.scale));
  }
  RunPanel("(a) In-memory table", StorageMode::kMemory, sizes, flags.seed,
           spill_dir.value());
  std::printf("\n");
  RunPanel("(b) Disk-backed table (paged scans + external shuffle)",
           StorageMode::kDisk, sizes, flags.seed + 1, spill_dir.value());
  std::filesystem::remove_all(spill_dir.value());
  std::printf("\nShape check: runtimes grow linearly in m; SCS13/BST14 carry "
              "per-update sampling overhead that Ours avoids entirely.\n");
  return flags.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace bolton

int main(int argc, char** argv) { return bolton::bench::Run(argc, argv); }
