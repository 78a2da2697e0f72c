#include "core/multiclass.h"

#include <limits>
#include <string>

#include "util/logging.h"

namespace bolton {

int MulticlassModel::Predict(const Vector& x) const {
  BOLTON_CHECK(!weights.empty());
  int best = 0;
  double best_score = -std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < weights.size(); ++c) {
    double score = Dot(weights[c], x);
    if (score > best_score) {
      best_score = score;
      best = static_cast<int>(c);
    }
  }
  return best;
}

Result<MulticlassModel> TrainOneVsAll(const Dataset& data,
                                      const PrivacyParams& total_budget,
                                      const BinaryTrainFn& train, Rng* rng) {
  BOLTON_RETURN_IF_ERROR(total_budget.Validate());
  if (!train) return Status::InvalidArgument("null train function");
  if (data.num_classes() < 2) {
    return Status::InvalidArgument("need at least 2 classes");
  }
  const int num_classes = data.num_classes();
  const PrivacyParams per_model = total_budget.SplitEvenly(num_classes);

  MulticlassModel model;
  model.weights.reserve(num_classes);
  for (int c = 0; c < num_classes; ++c) {
    Rng class_rng = rng->Split();
    Result<Vector> weights = train(data.OneVsAllView(c), per_model, &class_rng);
    if (!weights.ok()) {
      return weights.status().WithContext("training one-vs-all class " +
                                          std::to_string(c));
    }
    model.weights.push_back(weights.MoveValue());
  }
  return model;
}

}  // namespace bolton
