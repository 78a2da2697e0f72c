// Figure 4 — the effect of the pass count and of the mini-batch size on the
// MNIST-like workload.
//
// (a) Convex ε-DP with b = 1: more passes ⇒ more noise (Δ₂ = 2kLη) ⇒
//     WORSE accuracy.
// (b) Strongly convex ε-DP with b = 50: Δ₂ = 2L/(γm) is pass-oblivious, so
//     more passes only improve convergence ⇒ BETTER (or equal) accuracy.
// (c) Convex ε-DP with k = 20: growing the batch from 1 to 10 to 50 divides
//     the noise by b and drastically recovers accuracy.
#include <cstdio>

#include "bench/bench_common.h"

namespace bolton {
namespace bench {
namespace {

void PrintSweep(const char* title, const BenchData& data,
                const std::vector<size_t>& passes_grid, size_t batch,
                double lambda, int repeats, uint64_t seed) {
  std::printf("%s\n", title);
  std::printf("  %-8s", "epsilon");
  for (size_t k : passes_grid) std::printf(" %zu-pass%s ", k, k == 1 ? " " : "");
  std::printf("\n");
  for (double epsilon : EpsilonGridFor("mnist")) {
    std::printf("  %-8.3g", epsilon);
    for (size_t k : passes_grid) {
      TrainerConfig config;
      config.algorithm = Algorithm::kBoltOn;
      config.lambda = lambda;
      config.passes = k;
      config.batch_size = batch;
      config.privacy = PrivacyParams{epsilon, 0.0};
      auto acc = MeanAccuracy(data, config, repeats, seed + k);
      acc.status().CheckOK();
      std::printf(" %-8.4f", acc.value());
    }
    std::printf("\n");
  }
}

int Run(int argc, char** argv) {
  CommonFlags flags("bench_fig4_passes");
  if (!flags.Parse(argc, argv)) return 1;
  const int repeats = static_cast<int>(flags.repeats);

  auto data = LoadBenchData("mnist", flags.scale, flags.seed);
  if (!data.ok()) return flags.Fail(data.status());
  std::printf("== Figure 4: Effect of passes and mini-batch size "
              "(mnist-like, m=%zu) ==\n\n",
              data.value().train.size());

  // (a) Convex, ε-DP, b = 1: accuracy should FALL as passes grow.
  PrintSweep("(a) Convex eps-DP, b=1: more passes -> more noise", data.value(),
             {1, 10, 20}, 1, 0.0, repeats, flags.seed);

  // (b) Strongly convex, ε-DP, b = 50: accuracy should not fall.
  std::printf("\n");
  PrintSweep("(b) Strongly convex eps-DP, b=50: passes are noise-free",
             data.value(), {1, 10, 20}, 50, 1e-3, repeats, flags.seed + 50);

  // (c) Convex, ε-DP, k = 20, batch sweep.
  std::printf("\n(c) Convex eps-DP, k=20: batch size rescues accuracy\n");
  std::printf("  %-8s %-8s %-8s %-8s\n", "epsilon", "b=1", "b=10", "b=50");
  for (double epsilon : EpsilonGridFor("mnist")) {
    std::printf("  %-8.3g", epsilon);
    for (size_t b : {1, 10, 50}) {
      TrainerConfig config;
      config.algorithm = Algorithm::kBoltOn;
      config.passes = 20;
      config.batch_size = b;
      config.privacy = PrivacyParams{epsilon, 0.0};
      auto acc = MeanAccuracy(data.value(), config, repeats,
                              flags.seed + 100 + b);
      acc.status().CheckOK();
      std::printf(" %-8.4f", acc.value());
    }
    std::printf("\n");
  }
  return flags.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace bolton

int main(int argc, char** argv) { return bolton::bench::Run(argc, argv); }
