// Ablation — paper vs corrected mini-batch sensitivity for Algorithm 2.
//
// DESIGN.md §6 documents a reproduction finding: the paper's claim that
// mini-batching divides Lemma 8's Δ₂ by b is unsound (the decreasing
// schedule sees b× fewer updates, cancelling the 1/b). This bench
// quantifies what the sound calibration costs: accuracy of the bolt-on
// strongly convex algorithm under the paper's Δ₂ = 2L/(γmb) vs the
// corrected Δ₂ = 2L/(γm), across ε, plus the empirical worst-case δ_T the
// two bounds are protecting against.
//
// Expected shape: the corrected curve needs roughly b× larger ε to reach
// the same accuracy; the empirical δ_T sits between the two bounds,
// violating the paper's and respecting the corrected one.
#include <algorithm>
#include <cstdio>

#include "bench/bench_common.h"
#include "core/private_sgd.h"
#include "core/sensitivity.h"
#include "optim/schedule.h"

namespace bolton {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  CommonFlags flags("bench_ablation_sensitivity");
  if (!flags.Parse(argc, argv)) return 1;
  const int repeats = static_cast<int>(flags.repeats);

  auto data = LoadBenchData("protein", flags.scale, flags.seed);
  if (!data.ok()) return flags.Fail(data.status());
  const Dataset& train = data.value().train;
  const Dataset& test = data.value().test;
  const size_t m = train.size();
  const size_t k = 10, b = 50;
  const double lambda = 0.01;

  auto loss = MakeLogisticLoss(lambda, 1.0 / lambda).MoveValue();
  SensitivitySetup setup{k, b, m};
  double paper_bound =
      StronglyConvexDecreasingStepSensitivity(*loss, setup).value();
  double corrected_bound =
      StronglyConvexDecreasingStepSensitivityCorrected(*loss, setup).value();

  // Empirical worst case over a few label flips (the adversarial direction
  // the growth recursion is protecting against).
  auto schedule =
      MakeInverseTimeStep(loss->strong_convexity(), loss->smoothness())
          .MoveValue();
  PsgdOptions psgd;
  psgd.passes = k;
  psgd.batch_size = b;
  psgd.radius = loss->radius();
  double worst_delta = 0.0;
  for (size_t index : {size_t{0}, m / 2, m - 1}) {
    Example flipped = train[index];
    flipped.label = -flipped.label;
    double delta =
        SimulateDeltaT(train, index, flipped, *loss, *schedule, psgd,
                       flags.seed)
            .value();
    worst_delta = std::max(worst_delta, delta);
  }

  std::printf("== Ablation: mini-batch sensitivity calibration "
              "(protein-like, m=%zu, k=%zu, b=%zu, lambda=%g) ==\n\n",
              m, k, b, lambda);
  std::printf("  paper Delta2 = 2L/(gamma*m*b)      : %.6f\n", paper_bound);
  std::printf("  corrected Delta2 = 2L/(gamma*m)    : %.6f (b x larger)\n",
              corrected_bound);
  std::printf("  empirical worst-case delta_T       : %.6f  %s\n\n",
              worst_delta,
              worst_delta > paper_bound
                  ? "(VIOLATES the paper bound; within the corrected one)"
                  : "(within both bounds on this data)");

  std::printf("  %-8s %-14s %-14s %-12s\n", "epsilon", "ours(paper)",
              "ours(corrected)", "noiseless");
  for (double epsilon : EpsilonGridFor("protein")) {
    double accs[2];
    for (int variant = 0; variant < 2; ++variant) {
      double total = 0.0;
      for (int r = 0; r < repeats; ++r) {
        BoltOnOptions options;
        options.privacy = PrivacyParams{epsilon, 0.0};
        options.passes = k;
        options.batch_size = b;
        options.use_corrected_minibatch_sensitivity = (variant == 1);
        Rng rng(flags.seed + 100 * r + variant);
        auto out = PrivatePsgd(train, *loss, options, &rng);
        out.status().CheckOK();
        total += BinaryAccuracy(out.value().model, test);
      }
      accs[variant] = total / repeats;
    }
    // The noiseless reference comes along for free from any run above.
    BoltOnOptions reference_options;
    reference_options.privacy = PrivacyParams{epsilon, 0.0};
    reference_options.passes = k;
    reference_options.batch_size = b;
    Rng reference_rng(flags.seed);
    auto reference =
        PrivatePsgd(train, *loss, reference_options, &reference_rng);
    reference.status().CheckOK();
    std::printf("  %-8.3g %-14.4f %-14.4f %-12.4f\n", epsilon, accs[0],
                accs[1],
                BinaryAccuracy(reference.value().noiseless_model, test));
  }
  return flags.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace bolton

int main(int argc, char** argv) { return bolton::bench::Run(argc, argv); }
