#include "data/synthetic.h"

#include <cstring>

#include <gtest/gtest.h>

#include "ml/trainer.h"
#include "ml/metrics.h"

namespace bolton {
namespace {

TEST(SyntheticTest, ShapeMatchesConfig) {
  SyntheticConfig config;
  config.num_examples = 500;
  config.dim = 12;
  config.num_classes = 4;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds.value().size(), 500u);
  EXPECT_EQ(ds.value().dim(), 12u);
  EXPECT_EQ(ds.value().num_classes(), 4);
}

TEST(SyntheticTest, FeaturesNormalizedToUnitBall) {
  SyntheticConfig config;
  config.num_examples = 300;
  config.margin = 10.0;  // would overflow the ball without normalization
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  EXPECT_LE(ds.value().MaxFeatureNorm(), 1.0 + 1e-12);
}

TEST(SyntheticTest, BinaryLabelsArePlusMinusOne) {
  SyntheticConfig config;
  config.num_examples = 200;
  config.num_classes = 2;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  for (size_t i = 0; i < ds.value().size(); ++i) {
    int y = ds.value()[i].label;
    EXPECT_TRUE(y == -1 || y == +1);
  }
}

TEST(SyntheticTest, MulticlassLabelsInRange) {
  SyntheticConfig config;
  config.num_examples = 200;
  config.num_classes = 5;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  for (size_t i = 0; i < ds.value().size(); ++i) {
    int y = ds.value()[i].label;
    EXPECT_GE(y, 0);
    EXPECT_LT(y, 5);
  }
}

TEST(SyntheticTest, SameSeedReproduces) {
  SyntheticConfig config;
  config.num_examples = 100;
  config.seed = 77;
  auto a = GenerateSynthetic(config);
  auto b = GenerateSynthetic(config);
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t i = 0; i < a.value().size(); ++i) {
    EXPECT_EQ(a.value()[i].x, b.value()[i].x);
    EXPECT_EQ(a.value()[i].label, b.value()[i].label);
  }
}

TEST(SyntheticTest, DifferentSeedsDiffer) {
  SyntheticConfig config;
  config.num_examples = 100;
  config.seed = 1;
  auto a = GenerateSynthetic(config);
  config.seed = 2;
  auto b = GenerateSynthetic(config);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a.value()[0].x, b.value()[0].x);
}

TEST(SyntheticTest, InvalidConfigsRejected) {
  SyntheticConfig config;
  config.num_examples = 0;
  EXPECT_FALSE(GenerateSynthetic(config).ok());
  config = SyntheticConfig{};
  config.dim = 0;
  EXPECT_FALSE(GenerateSynthetic(config).ok());
  config = SyntheticConfig{};
  config.num_classes = 1;
  EXPECT_FALSE(GenerateSynthetic(config).ok());
  config = SyntheticConfig{};
  config.label_flip_prob = 1.0;
  EXPECT_FALSE(GenerateSynthetic(config).ok());
  config = SyntheticConfig{};
  config.noise_stddev = -0.5;
  EXPECT_FALSE(GenerateSynthetic(config).ok());
}

TEST(SyntheticTest, LabelFlipRaisesBayesError) {
  // A heavily flipped dataset cannot be learned past ~1 − flip_prob.
  SyntheticConfig config;
  config.num_examples = 2000;
  config.dim = 10;
  config.margin = 5.0;
  config.noise_stddev = 0.1;
  config.label_flip_prob = 0.3;
  config.seed = 5;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  size_t flipped_fraction_check = 0;
  // With margin >> noise, the example's nearest prototype recovers the
  // pre-flip class; count label disagreements as a flip-rate estimate.
  // (Indirect check: just verify the config was accepted and labels vary.)
  for (size_t i = 0; i < ds.value().size(); ++i) {
    if (ds.value()[i].label == +1) ++flipped_fraction_check;
  }
  EXPECT_GT(flipped_fraction_check, 0u);
  EXPECT_LT(flipped_fraction_check, ds.value().size());
}

TEST(DatasetStandInsTest, ShapesMatchTable3) {
  // At scale=1 the generators must match the paper's Table 3 sizes; use a
  // small scale to keep the test fast and verify proportionality.
  auto protein = GenerateProteinLike(0.01, 1);
  ASSERT_TRUE(protein.ok());
  EXPECT_EQ(protein.value().first.dim(), 74u);
  EXPECT_EQ(protein.value().first.num_classes(), 2);

  auto covertype = GenerateCovertypeLike(0.001, 1);
  ASSERT_TRUE(covertype.ok());
  EXPECT_EQ(covertype.value().first.dim(), 54u);

  auto higgs = GenerateHiggsLike(0.0001, 1);
  ASSERT_TRUE(higgs.ok());
  EXPECT_EQ(higgs.value().first.dim(), 28u);

  auto kddcup = GenerateKddcupLike(0.001, 1);
  ASSERT_TRUE(kddcup.ok());
  EXPECT_EQ(kddcup.value().first.dim(), 41u);

  MnistLikeSpec spec;
  spec.scale = 0.01;
  auto mnist = GenerateMnistLike(spec);
  ASSERT_TRUE(mnist.ok());
  EXPECT_EQ(mnist.value().first.dim(), 784u);
  EXPECT_EQ(mnist.value().first.num_classes(), 10);
}

TEST(DatasetStandInsTest, SplitIsTheGeneratedSetCutInTwo) {
  // A stand-in's (train, test) pair is one generated set cut after the
  // training rows. The cut moves the rows; every byte must be what the
  // generator made, as the copying split gave it. Protein's config at
  // scale 0.01: 364 rows for each side.
  SyntheticConfig config;
  config.num_examples = 2 * 364;
  config.dim = 74;
  config.num_classes = 2;
  config.margin = 2.5;
  config.noise_stddev = 1.0;
  config.label_flip_prob = 0.01;
  config.seed = 5;
  const Dataset all = GenerateSynthetic(config).MoveValue();
  auto [train, test] = GenerateByName("protein", 0.01, 5).MoveValue();
  ASSERT_EQ(train.size(), 364u);
  ASSERT_EQ(test.size(), 364u);
  for (size_t i = 0; i < all.size(); ++i) {
    const Example& row = i < train.size() ? train[i] : test[i - train.size()];
    EXPECT_EQ(row.label, all[i].label) << "row " << i;
    ASSERT_EQ(row.x.dim(), all[i].x.dim());
    EXPECT_EQ(std::memcmp(row.x.data(), all[i].x.data(),
                          row.x.dim() * sizeof(double)),
              0)
        << "row " << i;
  }
}

TEST(DatasetStandInsTest, GenerateByNameDispatches) {
  EXPECT_TRUE(GenerateByName("protein", 0.01, 1).ok());
  EXPECT_TRUE(GenerateByName("covertype", 0.001, 1).ok());
  EXPECT_EQ(GenerateByName("imagenet", 1.0, 1).status().code(),
            StatusCode::kNotFound);
}

TEST(DatasetStandInsTest, ProteinLikeIsLearnable) {
  // The Protein stand-in must be well-fit by logistic regression, as the
  // paper observes for the real dataset (§4.5).
  auto split = GenerateProteinLike(0.05, 3);
  ASSERT_TRUE(split.ok());
  const auto& [train, test] = split.value();

  TrainerConfig config;
  config.algorithm = Algorithm::kNoiseless;
  config.passes = 10;
  config.batch_size = 10;
  Rng rng(9);
  auto model = TrainBinary(train, config, &rng);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(BinaryAccuracy(model.value(), test), 0.85);
}

}  // namespace
}  // namespace bolton
