// Ablation — random projection dimension (§2 "Random Projection"). The
// Laplace mechanism's noise magnitude grows linearly in d (Theorem 2), so
// projecting MNIST 784 → d trades representation quality against privacy
// noise. The paper picks d = 50.
//
// Expected shape: noiseless accuracy rises with d and saturates; private
// accuracy at fixed ε peaks at an intermediate d (too small loses signal,
// too large drowns in noise) — the peak sits near the paper's choice of 50.
#include <cstdio>

#include "bench/bench_common.h"
#include "data/projection.h"
#include "data/synthetic.h"

namespace bolton {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  CommonFlags flags("bench_ablation_projection");
  if (!flags.Parse(argc, argv)) return 1;
  const int repeats = static_cast<int>(flags.repeats);

  MnistLikeSpec spec;
  spec.scale = 0.25 * flags.scale;
  spec.seed = flags.seed;
  auto split = GenerateMnistLike(spec);
  if (!split.ok()) return flags.Fail(split.status());

  std::printf("== Ablation: projection dimension (mnist-like 784 -> d, "
              "one-vs-all, strongly convex eps-DP, lambda=1e-3) ==\n\n");
  std::printf("  %-8s %-12s %-12s %-12s %-12s\n", "d", "noiseless",
              "ours(e=0.2)", "ours(e=1)", "ours(e=4)");

  for (size_t d : {10, 25, 50, 100, 200}) {
    auto projection =
        GaussianRandomProjection::Create(784, d, flags.seed + d).MoveValue();
    BenchData data;
    data.name = "mnist";
    data.multiclass = true;
    data.train = projection.Apply(split.value().first).MoveValue();
    data.test = projection.Apply(split.value().second).MoveValue();

    TrainerConfig noiseless;
    noiseless.algorithm = Algorithm::kNoiseless;
    noiseless.passes = 10;
    noiseless.batch_size = 50;
    auto clean = MeanAccuracy(data, noiseless, 1, flags.seed);
    clean.status().CheckOK();
    std::printf("  %-8zu %-12.4f", d, clean.value());

    for (double epsilon : {0.2, 1.0, 4.0}) {
      TrainerConfig ours = noiseless;
      ours.algorithm = Algorithm::kBoltOn;
      ours.lambda = 1e-3;
      ours.privacy = PrivacyParams{epsilon, 0.0};
      auto priv = MeanAccuracy(data, ours, repeats, flags.seed + 1);
      priv.status().CheckOK();
      std::printf(" %-12.4f", priv.value());
    }
    std::printf("\n");
  }
  std::printf("\nTheorem 2: Laplace noise norm scales linearly with d — the "
              "private column should peak at an intermediate dimension.\n");
  return flags.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace bolton

int main(int argc, char** argv) { return bolton::bench::Run(argc, argv); }
