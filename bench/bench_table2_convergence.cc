// Table 2 — convergence comparison for (ε,δ)-DP at a constant number of
// passes: ours vs BST14, convex and strongly convex.
//
// The paper's table is analytic:
//             Ours                  BST14
//   Convex    O(√d/√m)              O(√d log^{3/2} m / √m)
//   Strongly  O(√d log m / m)       O(d log² m / m)
//
// This bench measures the empirical counterpart: excess empirical risk
// L_S(w̃) − L_S(w*) as m grows (w* approximated by a long noiseless run),
// averaged over seeds. Expected shape: both shrink with m; ours is smaller
// at every m, and the ours/BST14 gap does not close as m grows (BST14
// carries extra log factors).
#include <algorithm>
#include <cstdio>
#include <limits>

#include "bench/bench_common.h"
#include "core/bst14.h"
#include "core/private_sgd.h"
#include "data/synthetic.h"
#include "optim/psgd.h"
#include "optim/schedule.h"

namespace bolton {
namespace bench {
namespace {

// Approximates w* = argmin L_S with many noiseless passes.
Vector ReferenceMinimizer(const Dataset& data, const LossFunction& loss,
                          uint64_t seed) {
  TrainerConfig config;
  config.algorithm = Algorithm::kNoiseless;
  config.lambda = loss.IsStronglyConvex() ? loss.strong_convexity() : 0.0;
  config.passes = 40;
  config.batch_size = 10;
  Rng rng(seed);
  return TrainBinary(data, config, &rng).MoveValue();
}

struct ExcessRisks {
  double ours;
  double bst14;
};

ExcessRisks MeasureExcess(const Dataset& data, const LossFunction& loss,
                          bool strongly_convex, int repeats, uint64_t seed) {
  const size_t m = data.size();
  const PrivacyParams privacy{0.5, DeltaFor(m)};
  Vector reference = ReferenceMinimizer(data, loss, seed);
  const double risk_star = loss.EmpiricalRisk(reference, data);

  double ours_total = 0.0, bst14_total = 0.0;
  for (int r = 0; r < repeats; ++r) {
    Rng rng_ours(seed + 10 * r);
    BoltOnOptions ours;
    ours.privacy = privacy;
    ours.passes = 10;
    ours.batch_size = 50;
    auto ours_out = PrivatePsgd(data, loss, ours, &rng_ours);
    ours_out.status().CheckOK();
    ours_total += loss.EmpiricalRisk(ours_out.value().model, data) - risk_star;

    Rng rng_bst(seed + 10 * r + 5);
    Bst14Options bst;
    bst.privacy = privacy;
    bst.passes = 10;
    bst.batch_size = 50;
    if (!strongly_convex) bst.radius = 10.0;
    auto bst_out = RunBst14(data, loss, bst, &rng_bst);
    bst_out.status().CheckOK();
    bst14_total += loss.EmpiricalRisk(bst_out.value().model, data) - risk_star;
  }
  return {ours_total / repeats, bst14_total / repeats};
}

int Run(int argc, char** argv) {
  CommonFlags flags("bench_table2_convergence");
  if (!flags.Parse(argc, argv)) return 1;
  const int repeats = static_cast<int>(flags.repeats);

  std::printf("== Table 2: Excess empirical risk vs m, (eps,delta)-DP, "
              "constant passes (eps=0.5, k=10, b=50, d=20) ==\n");
  std::printf("Paper rates — convex: ours O(sqrt(d)/sqrt(m)) vs BST14 "
              "O(sqrt(d) log^1.5 m / sqrt(m));\n");
  std::printf("strongly convex: ours O(sqrt(d) log m / m) vs BST14 "
              "O(d log^2 m / m)\n");

  const std::vector<size_t> sizes = {1000, 4000, 16000};

  std::printf("\nConvex (plain logistic):\n");
  std::printf("  %-8s %-14s %-14s %-8s\n", "m", "ours", "bst14",
              "ratio");
  for (size_t m : sizes) {
    SyntheticConfig config;
    config.num_examples = m;
    config.dim = 20;
    config.margin = 2.0;
    config.noise_stddev = 0.6;
    config.seed = flags.seed + m;
    Dataset data = GenerateSynthetic(config).MoveValue();
    auto loss =
        MakeLogisticLoss(0.0, std::numeric_limits<double>::infinity())
            .MoveValue();
    ExcessRisks excess =
        MeasureExcess(data, *loss, false, repeats, flags.seed);
    std::printf("  %-8zu %-14.5f %-14.5f %-8.2f\n", m, excess.ours,
                excess.bst14, excess.bst14 / std::max(1e-9, excess.ours));
  }

  std::printf("\nStrongly convex (L2 logistic, lambda=1e-2, R=100):\n");
  std::printf("  %-8s %-14s %-14s %-8s\n", "m", "ours", "bst14",
              "ratio");
  for (size_t m : sizes) {
    SyntheticConfig config;
    config.num_examples = m;
    config.dim = 20;
    config.margin = 2.0;
    config.noise_stddev = 0.6;
    config.seed = flags.seed + 2 * m;
    Dataset data = GenerateSynthetic(config).MoveValue();
    auto loss = MakeLogisticLoss(1e-2, 100.0).MoveValue();
    ExcessRisks excess = MeasureExcess(data, *loss, true, repeats, flags.seed);
    std::printf("  %-8zu %-14.5f %-14.5f %-8.2f\n", m, excess.ours,
                excess.bst14, excess.bst14 / std::max(1e-9, excess.ours));
  }
  return flags.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace bolton

int main(int argc, char** argv) { return bolton::bench::Run(argc, argv); }
