#include "data/dataset.h"

#include <sys/mman.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "random/rng.h"

#ifndef MADV_COLLAPSE
#define MADV_COLLAPSE 25
#endif

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

constexpr uintptr_t kHugePage = uintptr_t{2} << 20;

// The 2 MiB pages (address / 2 MiB) that hold some of a set's features.
std::set<uintptr_t> RowPages(const Dataset& data) {
  std::set<uintptr_t> pages;
  for (const Example& e : data.examples()) {
    const auto p = reinterpret_cast<uintptr_t>(e.x.data());
    pages.insert(p / kHugePage);
    pages.insert((p + e.x.dim() * sizeof(double) - 1) / kHugePage);
  }
  return pages;
}

// AnonHugePages, in KiB, summed over the mappings of /proc/self/smaps
// that overlap `pages`.
size_t AnonHugeKib(const std::set<uintptr_t>& pages) {
  std::ifstream smaps("/proc/self/smaps");
  std::string line;
  bool overlaps = false;
  size_t total = 0;
  while (std::getline(smaps, line)) {
    unsigned long long lo = 0, hi = 0;
    char dash = 0;
    std::istringstream fields(line);
    if (line.rfind("AnonHugePages:", 0) == 0) {
      std::string key;
      size_t kib = 0;
      fields >> key >> kib;
      if (overlaps) total += kib;
    } else if (fields >> std::hex >> lo >> dash >> hi && dash == '-') {
      const auto first = pages.lower_bound(lo / kHugePage);
      overlaps = first != pages.end() && *first * kHugePage < hi;
    }
  }
  return total;
}

// Empty when MADV_COLLAPSE works on a populated anonymous mapping here;
// else why not (a kernel before 6.1 or without THP, THP "never").
std::string CollapseUnavailable() {
  const size_t bytes = 2 * kHugePage;
  void* map = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (map == MAP_FAILED) return std::strerror(errno);
  const uintptr_t aligned =
      (reinterpret_cast<uintptr_t>(map) + kHugePage - 1) / kHugePage *
      kHugePage;
  std::memset(reinterpret_cast<void*>(aligned), 1, kHugePage);
  std::string why;
  if (madvise(reinterpret_cast<void*>(aligned), kHugePage, MADV_COLLAPSE) !=
      0) {
    why = std::strerror(errno);
  }
  munmap(map, bytes);
  return why;
}

TEST(DatasetTest, AdviseRandomReadsPutsALargeSetsRowsOnHugePages) {
  const std::string unavailable = CollapseUnavailable();
  if (!unavailable.empty()) {
    GTEST_SKIP() << "madvise(MADV_COLLAPSE) on an anonymous mapping failed: "
                 << unavailable;
  }
  std::ifstream thp("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string thp_mode;
  std::getline(thp, thp_mode);
  if (thp_mode.find("[always]") != std::string::npos) {
    GTEST_SKIP() << "THP is in 'always' mode: rows are faulted in on huge "
                    "pages, so the advice has nothing to show";
  }

  // 180000 x 50 doubles = 72 MB, above the 64 MiB floor.
  Dataset data = GenerateTwoGaussians(180000, 50, 1.5, 3).MoveValue();
  ASSERT_GE(data.size() * data.dim() * sizeof(double),
            Dataset::kHugePageFloorBytes);
  const std::set<uintptr_t> pages = RowPages(data);
  const size_t before = AnonHugeKib(pages);
  data.AdviseRandomReads();
  const size_t after = AnonHugeKib(pages);
  ASSERT_GE(after, before);  // so the gain below cannot wrap
  EXPECT_GE(after - before, pages.size() * 2048 * 9 / 10)
      << "KiB gained over " << pages.size() << " pages of rows";

  // A copy's rows are new allocations: its own first call advises the
  // pages they hold beside the original's, and every value stays.
  Dataset copy = data;
  std::set<uintptr_t> fresh = RowPages(copy);
  for (uintptr_t page : pages) fresh.erase(page);
  ASSERT_FALSE(fresh.empty());
  const size_t copy_before = AnonHugeKib(fresh);
  data.AdviseRandomReads();  // the original's flag is set: a no-op
  EXPECT_EQ(AnonHugeKib(fresh), copy_before);
  copy.AdviseRandomReads();
  const size_t copy_after = AnonHugeKib(fresh);
  ASSERT_GE(copy_after, copy_before);
  EXPECT_GE(copy_after - copy_before, fresh.size() * 2048 * 9 / 10)
      << "KiB gained over " << fresh.size() << " pages of the copy's rows";
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(copy[i].x, data[i].x) << "row " << i;
    ASSERT_EQ(copy[i].label, data[i].label) << "row " << i;
  }
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
