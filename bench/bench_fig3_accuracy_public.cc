// Figure 3 — test accuracy vs ε with hyperparameters fixed from public
// knowledge (the paper's caption: k = 10 passes, b = 50, λ = 1e-4 where
// applicable). Three datasets × four test scenarios; each row compares
// Noiseless / Ours / SCS13 (and BST14 for the (ε,δ) tests).
//
// Expected shape (paper): Ours dominates SCS13 and BST14 at every ε and
// approaches Noiseless as ε grows; SCS13 degrades sharply at small ε.
#include <algorithm>
#include <cstdio>

#include "bench/bench_common.h"

namespace bolton {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  CommonFlags flags("bench_fig3_accuracy_public");
  if (!flags.Parse(argc, argv)) return 1;

  std::printf("== Figure 3: Accuracy vs epsilon (tuning with public data) "
              "==\n");
  for (const std::string& dataset : flags.DatasetList()) {
    auto data = LoadBenchData(dataset, flags.scale, flags.seed);
    if (!data.ok()) return flags.Fail(data.status());
    const size_t m = data.value().train.size();
    std::printf("\n-- %s (m=%zu, d=%zu) --\n", dataset.c_str(), m,
                data.value().train.dim());

    for (const TestScenario& scenario : AllScenarios()) {
      std::printf("%s\n", scenario.label);
      PrintAccuracyHeader();
      double max_ratio = 0.0;
      for (double epsilon : EpsilonGridFor(dataset)) {
        std::vector<double> accuracies;
        for (Algorithm algorithm : AlgorithmsFor(scenario)) {
          TrainerConfig config =
              ScenarioConfig(scenario, algorithm, epsilon, m);
          const uint64_t start_ns = obs::MonotonicNanos();
          auto acc = MeanAccuracy(data.value(), config,
                                  static_cast<int>(flags.repeats),
                                  flags.seed + scenario.id);
          acc.status().CheckOK();
          accuracies.push_back(acc.value());

          BenchResultRow row;
          row.figure = "fig3_accuracy_public";
          row.name = StrFormat("%s/test%d/%s/eps=%g", dataset.c_str(),
                               scenario.id, AlgorithmName(algorithm),
                               epsilon);
          row.dataset = dataset;
          row.algo = AlgorithmName(algorithm);
          row.epsilon = epsilon;
          row.wall_seconds =
              static_cast<double>(obs::MonotonicNanos() - start_ns) * 1e-9;
          row.rows_per_sec =
              row.wall_seconds > 0
                  ? static_cast<double>(m) * 10 * flags.repeats /
                        row.wall_seconds
                  : 0;
          row.accuracy = acc.value();
          AddBenchResult(std::move(row));
        }
        PrintAccuracyRow(epsilon, accuracies, scenario.approx_dp);
        for (size_t baseline = 2; baseline < accuracies.size(); ++baseline) {
          if (accuracies[baseline] > 0.0) {
            max_ratio = std::max(max_ratio,
                                 accuracies[1] / accuracies[baseline]);
          }
        }
      }
      std::printf("  max accuracy ratio ours/baseline: %.2fx "
                  "(paper reports up to 4x)\n",
                  max_ratio);
    }
  }
  return flags.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace bolton

int main(int argc, char** argv) { return bolton::bench::Run(argc, argv); }
