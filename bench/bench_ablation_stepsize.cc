// Ablation — step-size schedule (Corollary 1 vs 2 vs 3). The paper derives
// L2-sensitivities for three convex step-size families; this bench shows
// the trade-off each implies between sensitivity (privacy noise) and
// convergence, at fixed k and b on the Protein-like workload.
//
// Expected shape: the decreasing schedule (Cor. 2) has the smallest Δ₂ but
// the slowest convergence; the constant 1/√m schedule (Cor. 1, the paper's
// default) balances both and wins on private accuracy at moderate ε.
#include <cmath>
#include <cstdio>
#include <limits>

#include "bench/bench_common.h"
#include "core/private_sgd.h"
#include "core/sensitivity.h"
#include "optim/psgd.h"
#include "optim/schedule.h"

namespace bolton {
namespace bench {
namespace {

struct ScheduleCase {
  const char* name;
  std::unique_ptr<StepSizeSchedule> schedule;
  double sensitivity;
};

int Run(int argc, char** argv) {
  CommonFlags flags("bench_ablation_stepsize");
  if (!flags.Parse(argc, argv)) return 1;
  const int repeats = static_cast<int>(flags.repeats);

  auto data = LoadBenchData("protein", flags.scale, flags.seed);
  if (!data.ok()) return flags.Fail(data.status());
  const Dataset& train = data.value().train;
  const Dataset& test = data.value().test;
  const size_t m = train.size();
  const size_t k = 10, b = 50;
  const double c = 0.5;

  auto loss =
      MakeLogisticLoss(0.0, std::numeric_limits<double>::infinity())
          .MoveValue();
  SensitivitySetup setup{k, b, m};
  const double eta = 1.0 / std::sqrt(static_cast<double>(m));

  std::vector<ScheduleCase> cases;
  cases.push_back(
      {"constant 1/sqrt(m) (Cor.1)", MakeConstantStep(eta).MoveValue(),
       ConvexConstantStepSensitivity(*loss, eta, setup).value()});
  cases.push_back(
      {"decreasing 2/(B(t+m^c)) (Cor.2)",
       MakeDecreasingStep(loss->smoothness(), m, c).MoveValue(),
       ConvexDecreasingStepSensitivity(*loss, c, setup).value()});
  cases.push_back(
      {"sqrt 2/(B(sqrt(t)+m^c)) (Cor.3)",
       MakeSqrtOffsetStep(loss->smoothness(), m, c).MoveValue(),
       ConvexSqrtStepSensitivity(*loss, c, setup).value()});

  std::printf("== Ablation: step-size schedule (protein-like, m=%zu, k=%zu, "
              "b=%zu, convex eps-DP) ==\n\n",
              m, k, b);
  std::printf("  %-34s %-12s %-12s", "schedule", "delta2", "noiseless");
  for (double epsilon : EpsilonGridFor("protein")) {
    std::printf(" eps=%-6.3g", epsilon);
  }
  std::printf("\n");

  for (const ScheduleCase& sc : cases) {
    PsgdOptions psgd;
    psgd.passes = k;
    psgd.batch_size = b;
    Rng clean_rng(flags.seed);
    auto clean = RunPsgd(train, *loss, *sc.schedule, psgd, &clean_rng);
    clean.status().CheckOK();
    std::printf("  %-34s %-12.3g %-12.4f", sc.name, sc.sensitivity,
                BinaryAccuracy(clean.value().model, test));

    for (double epsilon : EpsilonGridFor("protein")) {
      double total = 0.0;
      for (int r = 0; r < repeats; ++r) {
        Rng rng(flags.seed + 100 * r);
        auto run = RunPsgd(train, *loss, *sc.schedule, psgd, &rng);
        run.status().CheckOK();
        Rng noise_rng(flags.seed + 100 * r + 7);
        auto priv = BoltOnPerturb(run.value().model, sc.sensitivity,
                                  PrivacyParams{epsilon, 0.0}, &noise_rng);
        priv.status().CheckOK();
        total += BinaryAccuracy(priv.value().model, test);
      }
      std::printf(" %-10.4f", total / repeats);
    }
    std::printf("\n");
  }
  return flags.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace bolton

int main(int argc, char** argv) { return bolton::bench::Run(argc, argv); }
