// Private least-squares fitting — the bolt-on method beyond logistic loss.
//
// The squared loss ½(⟨w,x⟩ − y)² + (λ/2)‖w‖² on ±1 targets (the classic
// least-squares classifier) is Lipschitz on the unit feature ball, smooth,
// and λ-strongly convex, so Algorithm 2 applies verbatim: the same
// Δ₂ = 2L/(γmb) calibration privatizes a ridge-style model. This example
// fits one privately, reports RMSE and accuracy against the noiseless fit,
// and persists/reloads the private model with ml/model_io.h.
#include <cmath>
#include <cstdio>

#include "core/private_sgd.h"
#include "data/synthetic.h"
#include "ml/metrics.h"
#include "ml/model_io.h"
#include "util/flags.h"

using namespace bolton;

namespace {

double Rmse(const Vector& model, const Dataset& data) {
  double acc = 0.0;
  for (size_t i = 0; i < data.size(); ++i) {
    double r = Dot(model, data[i].x) - data[i].label;
    acc += r * r;
  }
  return std::sqrt(acc / data.size());
}

}  // namespace

int main(int argc, char** argv) {
  double epsilon = 1.0;
  double lambda = 0.01;
  std::string save_path;
  FlagParser flags;
  flags.AddDouble("epsilon", &epsilon, "privacy budget (pure eps-DP)");
  flags.AddDouble("lambda", &lambda, "ridge strength (R = 1/lambda)");
  flags.AddString("save", &save_path, "optional path to persist the model");
  flags.Parse(argc, argv).CheckOK();
  if (flags.help_requested()) {
    flags.PrintHelp("private_regression");
    return 0;
  }

  auto split = GenerateCovertypeLike(/*scale=*/0.04, /*seed=*/51);
  split.status().CheckOK();
  const Dataset& train = split.value().first;
  const Dataset& test = split.value().second;
  std::printf("train: %s\n", train.Summary("covertype-like").c_str());

  // Squared loss with ‖x‖ ≤ 1, |y| = 1, ‖w‖ ≤ R = 1/λ:
  // L = R + 1 + λR, β = 1 + λ, γ = λ (see optim/loss.h).
  auto loss = MakeSquaredLoss(lambda, 1.0 / lambda);
  loss.status().CheckOK();

  BoltOnOptions options;
  options.privacy = PrivacyParams{epsilon, 0.0};
  options.passes = 10;
  options.batch_size = 50;
  Rng rng(54);
  auto out = PrivatePsgd(train, *loss.value(), options, &rng);
  out.status().CheckOK();

  std::printf("\nprivate least-squares model (Algorithm 2, squared loss):\n");
  std::printf("  sensitivity      : %.6f\n", out.value().sensitivity);
  std::printf("  noise norm drawn : %.6f\n", out.value().noise_norm);
  std::printf("  test RMSE        : %.4f (noiseless %.4f)\n",
              Rmse(out.value().model, test),
              Rmse(out.value().noiseless_model, test));
  std::printf("  test accuracy    : %.4f (noiseless %.4f)\n",
              BinaryAccuracy(out.value().model, test),
              BinaryAccuracy(out.value().noiseless_model, test));

  if (!save_path.empty()) {
    SaveModel(out.value().model, save_path).CheckOK();
    auto reloaded = LoadBinaryModel(save_path);
    reloaded.status().CheckOK();
    std::printf("  model persisted to %s and reloaded (%zu weights)\n",
                save_path.c_str(), reloaded.value().dim());
  }
  return 0;
}
