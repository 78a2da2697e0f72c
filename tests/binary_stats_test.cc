#include "ml/binary_stats.h"

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "ml/metrics.h"
#include "ml/trainer.h"

namespace bolton {
namespace {

Dataset MakeScored() {
  // Model w = (1) scores x directly; construct known confusion counts.
  Dataset test(1, 2);
  test.Add(Example{Vector{2.0}, +1});   // TP
  test.Add(Example{Vector{1.0}, +1});   // TP
  test.Add(Example{Vector{0.5}, -1});   // FP
  test.Add(Example{Vector{-1.0}, -1});  // TN
  test.Add(Example{Vector{-2.0}, +1});  // FN
  return test;
}

TEST(BinaryStatsTest, CountsMatchHandConstruction) {
  BinaryStats stats = ComputeBinaryStats(Vector{1.0}, MakeScored());
  EXPECT_EQ(stats.true_positives, 2u);
  EXPECT_EQ(stats.false_positives, 1u);
  EXPECT_EQ(stats.true_negatives, 1u);
  EXPECT_EQ(stats.false_negatives, 1u);
  EXPECT_DOUBLE_EQ(stats.Accuracy(), 0.6);
  EXPECT_DOUBLE_EQ(stats.Precision(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(stats.Recall(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(stats.F1(), 2.0 / 3.0);
}

TEST(BinaryStatsTest, AccuracyAgreesWithMetricsModule) {
  Dataset test = MakeScored();
  Vector model{1.0};
  EXPECT_DOUBLE_EQ(ComputeBinaryStats(model, test).Accuracy(),
                   BinaryAccuracy(model, test));
}

TEST(BinaryStatsTest, DegenerateCases) {
  BinaryStats empty;
  EXPECT_DOUBLE_EQ(empty.Accuracy(), 0.0);
  EXPECT_DOUBLE_EQ(empty.Precision(), 1.0);  // no positive predictions
  EXPECT_DOUBLE_EQ(empty.Recall(), 1.0);     // no positives
  EXPECT_DOUBLE_EQ(empty.F1(), 1.0);

  BinaryStats all_wrong;
  all_wrong.false_positives = 3;
  all_wrong.false_negatives = 2;
  EXPECT_DOUBLE_EQ(all_wrong.Precision(), 0.0);
  EXPECT_DOUBLE_EQ(all_wrong.Recall(), 0.0);
  EXPECT_DOUBLE_EQ(all_wrong.F1(), 0.0);
}

TEST(BinaryStatsTest, ToStringMentionsEverything) {
  std::string s = ComputeBinaryStats(Vector{1.0}, MakeScored()).ToString();
  EXPECT_NE(s.find("tp=2"), std::string::npos);
  EXPECT_NE(s.find("f1="), std::string::npos);
}

TEST(RocAucTest, PerfectSeparationIsOne) {
  Dataset test(1, 2);
  test.Add(Example{Vector{3.0}, +1});
  test.Add(Example{Vector{2.0}, +1});
  test.Add(Example{Vector{-1.0}, -1});
  test.Add(Example{Vector{-2.0}, -1});
  EXPECT_DOUBLE_EQ(RocAuc(Vector{1.0}, test).value(), 1.0);
  // An anti-model gets AUC 0.
  EXPECT_DOUBLE_EQ(RocAuc(Vector{-1.0}, test).value(), 0.0);
}

TEST(RocAucTest, TiesGetHalfCredit) {
  // All scores identical: AUC must be exactly 0.5 via midranks.
  Dataset test(1, 2);
  test.Add(Example{Vector{1.0}, +1});
  test.Add(Example{Vector{1.0}, -1});
  test.Add(Example{Vector{1.0}, +1});
  test.Add(Example{Vector{1.0}, -1});
  EXPECT_DOUBLE_EQ(RocAuc(Vector{1.0}, test).value(), 0.5);
}

TEST(RocAucTest, HandComputedMixedCase) {
  // Scores: +1 examples at {3, 1}, −1 examples at {2, 0}.
  // Pairs: (3>2, 3>0, 1<2, 1>0) → 3 of 4 → AUC 0.75.
  Dataset test(1, 2);
  test.Add(Example{Vector{3.0}, +1});
  test.Add(Example{Vector{1.0}, +1});
  test.Add(Example{Vector{2.0}, -1});
  test.Add(Example{Vector{0.0}, -1});
  EXPECT_DOUBLE_EQ(RocAuc(Vector{1.0}, test).value(), 0.75);
}

TEST(RocAucTest, SingleClassRejected) {
  Dataset test(1, 2);
  test.Add(Example{Vector{1.0}, +1});
  test.Add(Example{Vector{2.0}, +1});
  EXPECT_FALSE(RocAuc(Vector{1.0}, test).ok());
}

TEST(RocAucTest, TrainedModelBeatsChance) {
  SyntheticConfig config;
  config.num_examples = 600;
  config.dim = 8;
  config.margin = 2.0;
  config.noise_stddev = 0.6;
  config.seed = 201;
  Dataset data = GenerateSynthetic(config).MoveValue();
  TrainerConfig trainer;
  trainer.passes = 5;
  trainer.batch_size = 10;
  Rng rng(1);
  Vector model = TrainBinary(data, trainer, &rng).MoveValue();
  EXPECT_GT(RocAuc(model, data).value(), 0.9);
}

}  // namespace
}  // namespace bolton
