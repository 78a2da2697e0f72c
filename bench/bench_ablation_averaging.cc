// Ablation — model averaging (Lemma 10). Averaging all iterates never
// increases the L2-sensitivity, so it is "free" privacy-wise; this bench
// measures what it buys (or costs) in accuracy for the convex bolt-on
// algorithm at the paper's default settings.
//
// Expected shape: at small ε the two variants are statistically close (the
// perturbation dominates); at large ε the last iterate edges ahead on this
// well-separated workload, matching SGD folklore that averaging mostly
// helps noisy/ill-conditioned problems.
#include <cstdio>

#include "bench/bench_common.h"

namespace bolton {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  CommonFlags flags("bench_ablation_averaging");
  if (!flags.Parse(argc, argv)) return 1;
  const int repeats = static_cast<int>(flags.repeats);

  std::printf("== Ablation: model averaging (Lemma 10; convex eps-DP, "
              "k=10, b=50) ==\n");
  for (const std::string& dataset : {std::string("protein"),
                                     std::string("covertype")}) {
    auto data = LoadBenchData(dataset, flags.scale, flags.seed);
    if (!data.ok()) return flags.Fail(data.status());
    std::printf("\n-- %s (m=%zu) --\n", dataset.c_str(),
                data.value().train.size());
    std::printf("  %-8s %-14s %-14s\n", "epsilon", "last-iterate",
                "averaged");
    for (double epsilon : EpsilonGridFor(dataset)) {
      double accs[2];
      for (int variant = 0; variant < 2; ++variant) {
        TrainerConfig config;
        config.algorithm = Algorithm::kBoltOn;
        config.passes = 10;
        config.batch_size = 50;
        config.privacy = PrivacyParams{epsilon, 0.0};
        config.output = variant == 1 ? OutputMode::kAverageAll
                                     : OutputMode::kLastIterate;
        auto acc = MeanAccuracy(data.value(), config, repeats,
                                flags.seed + variant);
        acc.status().CheckOK();
        accs[variant] = acc.value();
      }
      std::printf("  %-8.3g %-14.4f %-14.4f\n", epsilon, accs[0], accs[1]);
    }
  }
  return flags.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace bolton

int main(int argc, char** argv) { return bolton::bench::Run(argc, argv); }
