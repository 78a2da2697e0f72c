#include "data/dataset.h"

#include <utility>

#include <gtest/gtest.h>

#include "random/rng.h"

namespace bolton {
namespace {

Dataset MakeSmall() {
  Dataset ds(2, 2);
  ds.Add(Example{Vector{1.0, 0.0}, +1});
  ds.Add(Example{Vector{0.0, 2.0}, -1});
  ds.Add(Example{Vector{3.0, 4.0}, +1});
  return ds;
}

TEST(DatasetTest, BasicAccess) {
  Dataset ds = MakeSmall();
  EXPECT_EQ(ds.size(), 3u);
  EXPECT_EQ(ds.dim(), 2u);
  EXPECT_EQ(ds.num_classes(), 2);
  EXPECT_EQ(ds[0].label, +1);
  EXPECT_EQ(ds[1].x, (Vector{0.0, 2.0}));
  EXPECT_FALSE(ds.empty());
  EXPECT_TRUE(Dataset(2, 2).empty());
}

TEST(DatasetTest, ReplaceSwapsOneExample) {
  Dataset ds = MakeSmall();
  ds.Replace(1, Example{Vector{9.0, 9.0}, +1});
  EXPECT_EQ(ds[1].x, (Vector{9.0, 9.0}));
  EXPECT_EQ(ds[1].label, +1);
  EXPECT_EQ(ds.size(), 3u);
  EXPECT_EQ(ds[0].x, (Vector{1.0, 0.0}));  // others untouched
}

TEST(DatasetTest, NormalizeToUnitBall) {
  Dataset ds = MakeSmall();
  ds.NormalizeToUnitBall();
  EXPECT_LE(ds.MaxFeatureNorm(), 1.0 + 1e-12);
  // Vectors already inside the ball are left alone.
  EXPECT_EQ(ds[0].x, (Vector{1.0, 0.0}));
  // The (3,4) vector is scaled to norm 1, direction preserved.
  EXPECT_NEAR(ds[2].x.Norm(), 1.0, 1e-12);
  EXPECT_NEAR(ds[2].x[0] / ds[2].x[1], 0.75, 1e-12);
}

TEST(DatasetTest, SubsetSelectsInOrder) {
  Dataset ds = MakeSmall();
  Dataset sub = ds.Subset({2, 0});
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub[0].x, (Vector{3.0, 4.0}));
  EXPECT_EQ(sub[1].x, (Vector{1.0, 0.0}));
}

TEST(DatasetTest, SplitAtPartitions) {
  Dataset ds = MakeSmall();
  auto [head, tail] = std::move(ds).SplitAt(1);
  EXPECT_EQ(head.size(), 1u);
  EXPECT_EQ(tail.size(), 2u);
  EXPECT_EQ(head[0].label, +1);
  EXPECT_EQ(tail[0].label, -1);
  EXPECT_EQ(tail[1].x, (Vector{3.0, 4.0}));
}

TEST(DatasetTest, SplitEvenBalances) {
  Dataset ds(1, 2);
  for (int i = 0; i < 10; ++i) {
    ds.Add(Example{Vector{static_cast<double>(i)}, +1});
  }
  std::vector<Dataset> parts = ds.SplitEven(3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0].size(), 4u);  // 10 = 4 + 3 + 3
  EXPECT_EQ(parts[1].size(), 3u);
  EXPECT_EQ(parts[2].size(), 3u);
  // Order preserved across the split.
  EXPECT_EQ(parts[1][0].x[0], 4.0);
  EXPECT_EQ(parts[2][2].x[0], 9.0);
}

TEST(DatasetTest, OneVsAllViewMapsLabels) {
  Dataset ds(1, 3);
  ds.Add(Example{Vector{0.0}, 0});
  ds.Add(Example{Vector{1.0}, 1});
  ds.Add(Example{Vector{2.0}, 2});
  Dataset view = ds.OneVsAllView(1);
  EXPECT_EQ(view.num_classes(), 2);
  EXPECT_EQ(view[0].label, -1);
  EXPECT_EQ(view[1].label, +1);
  EXPECT_EQ(view[2].label, -1);
  // The original is untouched.
  EXPECT_EQ(ds[1].label, 1);
}

TEST(DatasetTest, ShuffleKeepsContents) {
  Rng rng(51);
  Dataset ds(1, 2);
  for (int i = 0; i < 100; ++i) {
    ds.Add(Example{Vector{static_cast<double>(i)}, i % 2 == 0 ? 1 : -1});
  }
  double sum_before = 0.0;
  for (size_t i = 0; i < ds.size(); ++i) sum_before += ds[i].x[0];
  ds.Shuffle(&rng);
  double sum_after = 0.0;
  bool order_changed = false;
  for (size_t i = 0; i < ds.size(); ++i) {
    sum_after += ds[i].x[0];
    if (ds[i].x[0] != static_cast<double>(i)) order_changed = true;
  }
  EXPECT_DOUBLE_EQ(sum_before, sum_after);
  EXPECT_TRUE(order_changed);
}

TEST(DatasetTest, SummaryMentionsShape) {
  Dataset ds = MakeSmall();
  std::string summary = ds.Summary("tiny");
  EXPECT_NE(summary.find("tiny"), std::string::npos);
  EXPECT_NE(summary.find("m=3"), std::string::npos);
  EXPECT_NE(summary.find("d=2"), std::string::npos);
}

}  // namespace
}  // namespace bolton
