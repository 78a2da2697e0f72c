#include "random/permutation.h"

#include <algorithm>
#include <map>
#include <numeric>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "reference_random.h"

namespace bolton {
namespace {

TEST(PermutationTest, IsAPermutation) {
  Rng rng(41);
  for (size_t n : {1u, 2u, 7u, 100u}) {
    std::vector<size_t> perm = RandomPermutation(n, &rng);
    ASSERT_EQ(perm.size(), n);
    std::vector<size_t> sorted = perm;
    std::sort(sorted.begin(), sorted.end());
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(sorted[i], i);
  }
}

TEST(PermutationTest, EmptyAndSingleton) {
  Rng rng(42);
  EXPECT_TRUE(RandomPermutation(0, &rng).empty());
  EXPECT_EQ(RandomPermutation(1, &rng), (std::vector<size_t>{0}));
}

TEST(PermutationTest, AllOrderingsReachable) {
  // For n=3 every one of the 6 orderings should appear with roughly equal
  // frequency — a direct uniformity check of Fisher–Yates.
  Rng rng(43);
  std::map<std::vector<size_t>, int> counts;
  const int trials = 60000;
  for (int t = 0; t < trials; ++t) {
    ++counts[RandomPermutation(3, &rng)];
  }
  ASSERT_EQ(counts.size(), 6u);
  for (const auto& [perm, count] : counts) {
    EXPECT_NEAR(static_cast<double>(count) / trials, 1.0 / 6.0, 0.01);
  }
}

TEST(PermutationTest, FirstPositionUniform) {
  Rng rng(44);
  const size_t n = 10;
  std::vector<int> first_counts(n, 0);
  const int trials = 50000;
  for (int t = 0; t < trials; ++t) {
    ++first_counts[RandomPermutation(n, &rng)[0]];
  }
  for (int c : first_counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.1, 0.01);
  }
}

TEST(PermutationTest, MatchesTheReferenceFisherYates) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{17},
                   size_t{1000}, size_t{65537}, size_t{1} << 20}) {
    for (uint64_t seed : {1u, 7u, 2024u}) {
      Rng rng(seed);
      Rng ref = rng;
      std::vector<size_t> expected(n);
      std::iota(expected.begin(), expected.end(), size_t{0});
      reference::Shuffle(&expected, &ref);
      ASSERT_EQ(RandomPermutation(n, &rng), expected)
          << "n=" << n << " seed=" << seed;
      EXPECT_EQ(rng.Next(), ref.Next()) << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(ShuffleInPlaceTest, ExamplesMatchTheReferenceFisherYates) {
  for (size_t n : {size_t{2}, size_t{5}, size_t{16}, size_t{17}, size_t{40},
                   size_t{1000}}) {
    std::vector<Example> rows;
    for (size_t i = 0; i < n; ++i) {
      rows.push_back(Example{Vector{static_cast<double>(i), -1.0 * i},
                             static_cast<int>(i)});
    }
    std::vector<Example> expected = rows;
    Rng rng(n);
    Rng ref = rng;
    ShuffleInPlace(&rows, &rng);
    reference::Shuffle(&expected, &ref);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(rows[i].label, expected[i].label) << "n=" << n << " i=" << i;
      ASSERT_EQ(rows[i].x, expected[i].x) << "n=" << n << " i=" << i;
    }
    EXPECT_EQ(rng.Next(), ref.Next()) << "n=" << n;
  }
}

TEST(ShuffleInPlaceTest, PreservesMultiset) {
  Rng rng(45);
  std::vector<int> items{5, 5, 1, 2, 3};
  std::vector<int> original = items;
  ShuffleInPlace(&items, &rng);
  std::sort(items.begin(), items.end());
  std::sort(original.begin(), original.end());
  EXPECT_EQ(items, original);
}

TEST(ShuffleInPlaceTest, SmallInputsAreNoOps) {
  Rng rng(46);
  std::vector<int> empty;
  ShuffleInPlace(&empty, &rng);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{9};
  ShuffleInPlace(&one, &rng);
  EXPECT_EQ(one, (std::vector<int>{9}));
}

}  // namespace
}  // namespace bolton
