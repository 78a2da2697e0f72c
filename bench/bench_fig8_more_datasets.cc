// Figure 8 — accuracy vs ε on the two additional datasets (HIGGS and
// KDDCup-99), tuning with public data (fixed k = 10, b = 50, λ = 1e-4
// where applicable), all four test scenarios.
//
// Expected shape (paper): "for large datasets differential privacy comes
// for free with our algorithms" — ours sits on top of Noiseless across the
// whole ε grid on HIGGS, while SCS13/BST14 stay visibly below at small ε.
// KDDCup is near-separable, so every method's accuracy is high, with the
// same ordering.
#include <cstdio>

#include "bench/bench_common.h"

namespace bolton {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  CommonFlags flags("bench_fig8_more_datasets");
  flags.datasets = "higgs,kddcup";
  if (!flags.Parse(argc, argv)) return 1;

  std::printf("== Figure 8: Additional datasets, tuning with public data "
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
      for (double epsilon : EpsilonGridFor(dataset)) {
        std::vector<double> accuracies;
        for (Algorithm algorithm : AlgorithmsFor(scenario)) {
          TrainerConfig config =
              ScenarioConfig(scenario, algorithm, epsilon, m);
          auto acc = MeanAccuracy(data.value(), config,
                                  static_cast<int>(flags.repeats),
                                  flags.seed + scenario.id);
          acc.status().CheckOK();
          accuracies.push_back(acc.value());
        }
        PrintAccuracyRow(epsilon, accuracies, scenario.approx_dp);
      }
    }
  }
  return flags.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace bolton

int main(int argc, char** argv) { return bolton::bench::Run(argc, argv); }
