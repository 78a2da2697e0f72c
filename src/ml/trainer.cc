#include "ml/trainer.h"

#include <limits>
#include <utility>

namespace bolton {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

Result<std::unique_ptr<LossFunction>> MakeLossForConfig(
    const TrainerConfig& config) {
  // §4.3: R = 1/λ for the strongly convex tests; unconstrained otherwise.
  const double radius = config.lambda > 0.0 ? 1.0 / config.lambda : kInf;
  switch (config.model) {
    case ModelKind::kLogistic:
      return MakeLogisticLoss(config.lambda, radius);
    case ModelKind::kHuberSvm:
      return MakeHuberSvmLoss(config.huber_h, config.lambda, radius);
  }
  return Status::Internal("unknown model kind");
}

Result<Vector> TrainBinary(const Dataset& train, const TrainerConfig& config,
                           Rng* rng) {
  if (train.empty()) return Status::InvalidArgument("empty training set");
  BOLTON_ASSIGN_OR_RETURN(auto loss, MakeLossForConfig(config));
  BOLTON_ASSIGN_OR_RETURN(
      SolverOutput out,
      RunPrivateSolver(config.algorithm, train, *loss, config, rng));
  return std::move(out.model);
}

Result<MulticlassModel> TrainMulticlass(const Dataset& train,
                                        const TrainerConfig& config,
                                        Rng* rng) {
  BinaryTrainFn train_fn = [&config](const Dataset& binary,
                                     const PrivacyParams& budget,
                                     Rng* sub_rng) -> Result<Vector> {
    TrainerConfig sub = config;
    sub.privacy = budget;
    return TrainBinary(binary, sub, sub_rng);
  };
  // Noiseless training needs no budget split but flows through the same
  // machinery; hand it a placeholder budget that Validate() accepts.
  PrivacyParams budget = config.privacy;
  if (config.algorithm == Algorithm::kNoiseless && budget.epsilon <= 0.0) {
    budget = PrivacyParams{1.0, 0.0};
  }
  return TrainOneVsAll(train, budget, train_fn, rng);
}

}  // namespace bolton
