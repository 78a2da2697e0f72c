// Figure 10 — mini-batch size vs accuracy on the MNIST-like workload for
// b ∈ {50, 100, 150, 200}, strongly convex (ε,δ)-DP setting, all four
// algorithms.
//
// Expected shape (paper): ours reaches near-noiseless accuracy at every
// batch size; SCS13 and BST14 improve with b but stay significantly below.
#include <cstdio>

#include "bench/bench_common.h"

namespace bolton {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  CommonFlags flags("bench_fig10_batchsize");
  if (!flags.Parse(argc, argv)) return 1;
  const int repeats = static_cast<int>(flags.repeats);

  auto data = LoadBenchData("mnist", flags.scale, flags.seed);
  if (!data.ok()) return flags.Fail(data.status());
  const size_t m = data.value().train.size();
  std::printf("== Figure 10: Mini-batch size vs accuracy (mnist-like, "
              "m=%zu, strongly convex (eps,delta)-DP) ==\n",
              m);

  const TestScenario scenario{4, true, true,
                              "Test4: Strongly Convex, (eps,delta)-DP"};
  for (size_t b : {50, 100, 150, 200}) {
    std::printf("\n(b = %zu)\n", b);
    PrintAccuracyHeader();
    for (double epsilon : EpsilonGridFor("mnist")) {
      std::vector<double> accuracies;
      for (Algorithm algorithm : AlgorithmsFor(scenario)) {
        TrainerConfig config = ScenarioConfig(scenario, algorithm, epsilon, m);
        config.batch_size = b;
        auto acc = MeanAccuracy(data.value(), config, repeats,
                                flags.seed + b);
        acc.status().CheckOK();
        accuracies.push_back(acc.value());
      }
      PrintAccuracyRow(epsilon, accuracies, /*has_bst14=*/true);
    }
  }
  return flags.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace bolton

int main(int argc, char** argv) { return bolton::bench::Run(argc, argv); }
