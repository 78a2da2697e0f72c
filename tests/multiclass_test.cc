#include "core/multiclass.h"

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "ml/metrics.h"
#include "ml/trainer.h"

namespace bolton {
namespace {

Dataset MakeMulticlassData(size_t m = 1200, uint64_t seed = 151) {
  SyntheticConfig config;
  config.num_examples = m;
  config.dim = 12;
  config.num_classes = 4;
  config.margin = 3.0;
  config.noise_stddev = 0.6;
  config.seed = seed;
  return GenerateSynthetic(config).MoveValue();
}

TEST(MulticlassModelTest, PredictIsArgmax) {
  MulticlassModel model;
  model.weights = {Vector{1.0, 0.0}, Vector{0.0, 1.0}, Vector{-1.0, -1.0}};
  EXPECT_EQ(model.Predict(Vector{2.0, 0.1}), 0);
  EXPECT_EQ(model.Predict(Vector{0.1, 2.0}), 1);
  EXPECT_EQ(model.Predict(Vector{-3.0, -3.0}), 2);
  EXPECT_EQ(model.num_classes(), 3);
}

TEST(TrainOneVsAllTest, SplitsBudgetEvenly) {
  Dataset data = MakeMulticlassData();
  std::vector<double> budgets_seen;
  BinaryTrainFn record = [&](const Dataset& binary,
                             const PrivacyParams& budget,
                             Rng*) -> Result<Vector> {
    budgets_seen.push_back(budget.epsilon);
    EXPECT_EQ(binary.num_classes(), 2);
    return Vector(binary.dim());
  };
  Rng rng(1);
  auto model = TrainOneVsAll(data, PrivacyParams{2.0, 4e-6}, record, &rng);
  ASSERT_TRUE(model.ok());
  ASSERT_EQ(budgets_seen.size(), 4u);
  for (double eps : budgets_seen) EXPECT_DOUBLE_EQ(eps, 0.5);
  EXPECT_EQ(model.value().num_classes(), 4);
}

TEST(TrainOneVsAllTest, BinaryViewsHaveCorrectPolarity) {
  Dataset data = MakeMulticlassData(400, 152);
  int call = 0;
  BinaryTrainFn check = [&](const Dataset& binary, const PrivacyParams&,
                            Rng*) -> Result<Vector> {
    size_t positives = 0;
    for (size_t i = 0; i < binary.size(); ++i) {
      EXPECT_TRUE(binary[i].label == +1 || binary[i].label == -1);
      if (binary[i].label == +1) ++positives;
    }
    // Roughly a quarter of a 4-class balanced set is the positive class.
    EXPECT_GT(positives, binary.size() / 8);
    EXPECT_LT(positives, binary.size() / 2);
    ++call;
    return Vector(binary.dim());
  };
  Rng rng(2);
  ASSERT_TRUE(TrainOneVsAll(data, PrivacyParams{1.0, 0.0}, check, &rng).ok());
  EXPECT_EQ(call, 4);
}

TEST(TrainOneVsAllTest, NoiselessLearnsSeparableMulticlass) {
  Dataset data = MakeMulticlassData();
  TrainerConfig config;
  config.algorithm = Algorithm::kNoiseless;
  config.passes = 10;
  config.batch_size = 10;
  Rng rng(3);
  auto model = TrainMulticlass(data, config, &rng);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(MulticlassAccuracy(model.value(), data), 0.85);
}

TEST(TrainOneVsAllTest, PrivateTrainingAtLargeEpsilonStaysAccurate) {
  Dataset data = MakeMulticlassData();
  TrainerConfig config;
  config.algorithm = Algorithm::kBoltOn;
  config.lambda = 1e-3;
  config.passes = 10;
  config.batch_size = 50;
  config.privacy = PrivacyParams{40.0, 0.0};  // 10 per class
  Rng rng(4);
  auto model = TrainMulticlass(data, config, &rng);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(MulticlassAccuracy(model.value(), data), 0.7);
}

// Classes train in order, and the first failure stops the run.
TEST(TrainOneVsAllTest, PropagatesSubTrainerErrors) {
  Dataset data = MakeMulticlassData(200, 155);
  int calls = 0;
  BinaryTrainFn failing = [&calls](const Dataset&, const PrivacyParams&,
                                   Rng*) -> Result<Vector> {
    ++calls;
    return Status::Internal("boom");
  };
  Rng rng(7);
  auto out = TrainOneVsAll(data, PrivacyParams{1.0, 0.0}, failing, &rng);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInternal);
  EXPECT_EQ(out.status().message(), "training one-vs-all class 0: boom");
  EXPECT_EQ(calls, 1);
}

TEST(TrainOneVsAllTest, Validation) {
  Dataset data = MakeMulticlassData(200, 153);
  Rng rng(5);
  BinaryTrainFn ok_fn = [](const Dataset& d, const PrivacyParams&,
                           Rng*) -> Result<Vector> { return Vector(d.dim()); };
  EXPECT_FALSE(TrainOneVsAll(data, PrivacyParams{0.0, 0.0}, ok_fn, &rng).ok());
  EXPECT_FALSE(TrainOneVsAll(data, PrivacyParams{1.0, 0.0}, nullptr, &rng).ok());

  BinaryTrainFn failing = [](const Dataset&, const PrivacyParams&,
                             Rng*) -> Result<Vector> {
    return Status::Internal("sub-trainer failed");
  };
  EXPECT_FALSE(
      TrainOneVsAll(data, PrivacyParams{1.0, 0.0}, failing, &rng).ok());
}

}  // namespace
}  // namespace bolton
