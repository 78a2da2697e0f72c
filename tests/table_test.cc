#include "engine/table.h"

#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "random/permutation.h"

namespace bolton {
namespace {

Dataset MakeData(size_t m = 200, uint64_t seed = 161) {
  SyntheticConfig config;
  config.num_examples = m;
  config.dim = 6;
  config.seed = seed;
  return GenerateSynthetic(config).MoveValue();
}

std::string SpillPath(const std::string& tag) {
  return ::testing::TempDir() + "table_test_" + tag + ".bin";
}

// Sums features + labels as an order-independent content fingerprint.
std::pair<double, long> Fingerprint(const Table& table) {
  double feature_sum = 0.0;
  long label_sum = 0;
  table
      .Scan([&](const Example& e) {
        for (size_t i = 0; i < e.x.dim(); ++i) feature_sum += e.x[i];
        label_sum += e.label;
      })
      .CheckOK();
  return {feature_sum, label_sum};
}

class TableModeTest : public ::testing::TestWithParam<StorageMode> {
 protected:
  Result<std::unique_ptr<Table>> Make(const Dataset& data) {
    return MakeTable(data, GetParam(), SpillPath(TestName()), 16);
  }
  std::string TestName() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = info->name();  // e.g. "RoundTripsRows/disk"
    for (char& c : name) {
      if (c == '/') c = '_';
    }
    return name + (GetParam() == StorageMode::kMemory ? "_mem" : "_disk");
  }
};

TEST_P(TableModeTest, RoundTripsRows) {
  Dataset data = MakeData();
  auto table = Make(data);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value()->num_rows(), data.size());
  EXPECT_EQ(table.value()->dim(), data.dim());

  // Before any shuffle, scan order matches insertion order.
  size_t i = 0;
  table.value()
      ->Scan([&](const Example& e) {
        EXPECT_NEAR(Distance(e.x, data[i].x), 0.0, 1e-12);
        EXPECT_EQ(e.label, data[i].label);
        ++i;
      })
      .CheckOK();
  EXPECT_EQ(i, data.size());
}

TEST_P(TableModeTest, ShufflePreservesContentAndChangesOrder) {
  Dataset data = MakeData(500, 162);
  auto table = Make(data);
  ASSERT_TRUE(table.ok());
  auto before = Fingerprint(*table.value());

  Rng rng(1);
  ASSERT_TRUE(table.value()->Shuffle(&rng).ok());
  auto after = Fingerprint(*table.value());
  EXPECT_NEAR(before.first, after.first, 1e-9);
  EXPECT_EQ(before.second, after.second);

  // At least one row moved (probability of identity order ~ 1/500!).
  bool moved = false;
  size_t i = 0;
  table.value()
      ->Scan([&](const Example& e) {
        if (Distance(e.x, data[i].x) > 1e-12) moved = true;
        ++i;
      })
      .CheckOK();
  EXPECT_TRUE(moved);
}

TEST_P(TableModeTest, RepeatedScansAreStable) {
  Dataset data = MakeData(100, 163);
  auto table = Make(data);
  ASSERT_TRUE(table.ok());
  Rng rng(2);
  ASSERT_TRUE(table.value()->Shuffle(&rng).ok());
  // Two scans after one shuffle must see the identical order — Bismarck
  // shuffles once and then does sequential epochs.
  std::vector<int> labels_a, labels_b;
  table.value()->Scan([&](const Example& e) { labels_a.push_back(e.label); })
      .CheckOK();
  table.value()->Scan([&](const Example& e) { labels_b.push_back(e.label); })
      .CheckOK();
  EXPECT_EQ(labels_a, labels_b);
}

INSTANTIATE_TEST_SUITE_P(Modes, TableModeTest,
                         ::testing::Values(StorageMode::kMemory,
                                           StorageMode::kDisk),
                         [](const ::testing::TestParamInfo<StorageMode>& i) {
                           return i.param == StorageMode::kMemory ? "memory"
                                                                  : "disk";
                         });

TEST(TableTest, DiskModeRequiresSpillPath) {
  Dataset data = MakeData(10, 165);
  EXPECT_FALSE(MakeTable(data, StorageMode::kDisk).ok());
}

TEST(TableTest, EmptyDatasetRejected) {
  Dataset empty(4, 2);
  EXPECT_FALSE(MakeTable(empty, StorageMode::kMemory).ok());
}

TEST(TableTest, TruncatedSpillFileSurfacesIOError) {
  // Failure injection: corrupt the backing file after creation; the next
  // scan must fail with IOError rather than emit garbage rows.
  Dataset data = MakeData(64, 167);
  std::string path = SpillPath("truncated");
  auto table = MakeTable(data, StorageMode::kDisk, path, 16);
  ASSERT_TRUE(table.ok());
  {
    std::ofstream truncate(path, std::ios::binary | std::ios::trunc);
    truncate << "short";
  }
  Status scan = table.value()->Scan([](const Example&) {});
  EXPECT_EQ(scan.code(), StatusCode::kIOError);
  // Shuffle reads the same file and must fail loudly too.
  Rng rng(4);
  EXPECT_EQ(table.value()->Shuffle(&rng).code(), StatusCode::kIOError);
}

TEST(TableTest, DiskTableUsesMultiplePages) {
  // 100 rows with 16-row pages exercises the paging path; content must
  // survive a shuffle that rewrites the file.
  Dataset data = MakeData(100, 166);
  auto table = MakeTable(data, StorageMode::kDisk, SpillPath("paging"), 16);
  ASSERT_TRUE(table.ok());
  Rng rng(3);
  ASSERT_TRUE(table.value()->Shuffle(&rng).ok());
  size_t rows = 0;
  table.value()->Scan([&](const Example&) { ++rows; }).CheckOK();
  EXPECT_EQ(rows, 100u);
}

TEST(MemoryTableTest, ShuffledScansFollowTheShuffledRows) {
  // A memory table shuffles a row order, not the rows: after Shuffle(Rng(s))
  // row k of a scan is data[RandomPermutation(m, Rng(s))[k]], the row a
  // Fisher–Yates shuffle of the rows themselves puts at k; a second
  // shuffle permutes the first one's order, as it would the rows.
  Dataset data = MakeData(300, 168);
  auto table = MakeTable(data, StorageMode::kMemory);
  ASSERT_TRUE(table.ok());
  Rng replay(5);
  const std::vector<size_t> perm = RandomPermutation(data.size(), &replay);
  std::vector<Example> rows = data.examples();
  for (uint64_t seed : {5, 6}) {
    Rng rows_rng(seed), table_rng(seed);
    ShuffleInPlace(&rows, &rows_rng);
    ASSERT_TRUE(table.value()->Shuffle(&table_rng).ok());
    EXPECT_EQ(table_rng.Next(), rows_rng.Next());
    size_t k = 0;
    table.value()
        ->Scan([&](const Example& e) {
          ASSERT_LT(k, rows.size());
          EXPECT_EQ(e.x, rows[k].x) << "seed " << seed << ", row " << k;
          EXPECT_EQ(e.label, rows[k].label);
          if (seed == 5) {
            EXPECT_EQ(e.x, data[perm[k]].x);
          }
          ++k;
        })
        .CheckOK();
    EXPECT_EQ(k, data.size());
  }
}

/// The address of every row a scan hands out, in scan order.
std::vector<const Example*> ScanAddresses(const Table& table) {
  std::vector<const Example*> rows;
  table.Scan([&](const Example& e) { rows.push_back(&e); }).CheckOK();
  return rows;
}

TEST(MemoryTableTest, ScansHandOutTheSharedDatasetsOwnRows) {
  auto shared = std::make_shared<const Dataset>(MakeData(120, 169));
  auto table = MakeTable(shared, StorageMode::kMemory);
  ASSERT_TRUE(table.ok());
  const std::vector<const Example*> rows = ScanAddresses(*table.value());
  ASSERT_EQ(rows.size(), shared->size());
  for (size_t k = 0; k < rows.size(); ++k) EXPECT_EQ(rows[k], &(*shared)[k]);
}

TEST(MemoryTableTest, TablesOverOneDatasetShuffleIndependently) {
  // Each shuffled table hands out the dataset's own rows in its own order.
  const Dataset original = MakeData(200, 170);
  auto shared = std::make_shared<const Dataset>(original);
  auto a = MakeTable(shared, StorageMode::kMemory).MoveValue();
  auto b = MakeTable(shared, StorageMode::kMemory).MoveValue();
  Rng rng_a(7), rng_b(8), replay_a(7), replay_b(8);
  ASSERT_TRUE(a->Shuffle(&rng_a).ok());
  ASSERT_TRUE(b->Shuffle(&rng_b).ok());
  const std::vector<size_t> perm_a = RandomPermutation(200, &replay_a);
  const std::vector<size_t> perm_b = RandomPermutation(200, &replay_b);
  ASSERT_NE(perm_a, perm_b);

  const std::vector<const Example*> rows_a = ScanAddresses(*a);
  const std::vector<const Example*> rows_b = ScanAddresses(*b);
  ASSERT_EQ(rows_a.size(), 200u);
  ASSERT_EQ(rows_b.size(), 200u);
  for (size_t k = 0; k < 200; ++k) {
    EXPECT_EQ(rows_a[k], &(*shared)[perm_a[k]]);
    EXPECT_EQ(rows_b[k], &(*shared)[perm_b[k]]);
  }
  // Neither shuffle moved a row of the dataset itself.
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ((*shared)[i].x, original[i].x) << "row " << i;
    EXPECT_EQ((*shared)[i].label, original[i].label);
  }
}

TEST(MemoryTableTest, ShuffledScansAroundThePrefetchDistance) {
  // A shuffled scan reads kPrefetchDistance and twice that many rows
  // ahead; around those distances it must still hand out exactly the
  // shuffled rows, and read nothing past the order (ASan sees that).
  for (size_t m = 1; m <= 40; ++m) {
    auto shared = std::make_shared<const Dataset>(MakeData(m, 173));
    auto table = MakeTable(shared, StorageMode::kMemory).MoveValue();
    Rng rng(m), replay(m);
    ASSERT_TRUE(table->Shuffle(&rng).ok());
    const std::vector<size_t> perm = RandomPermutation(m, &replay);
    const std::vector<const Example*> rows = ScanAddresses(*table);
    ASSERT_EQ(rows.size(), m);
    for (size_t k = 0; k < m; ++k) {
      EXPECT_EQ(rows[k], &(*shared)[perm[k]]) << "m " << m << ", row " << k;
    }
  }
}

TEST(MemoryTableTest, TableKeepsItsRowsAliveAfterTheCallerLetsGo) {
  const Dataset original = MakeData(50, 171);
  auto shared = std::make_shared<const Dataset>(original);
  std::weak_ptr<const Dataset> watch = shared;
  auto table = MakeTable(std::move(shared), StorageMode::kMemory).MoveValue();
  EXPECT_FALSE(watch.expired());
  size_t k = 0;
  table
      ->Scan([&](const Example& e) {
        ASSERT_LT(k, original.size());
        EXPECT_EQ(e.x, original[k].x);
        EXPECT_EQ(e.label, original[k].label);
        ++k;
      })
      .CheckOK();
  EXPECT_EQ(k, original.size());
  table.reset();
  EXPECT_TRUE(watch.expired());
}

TEST(MemoryTableTest, FourThreadsScanOneDatasetThroughTheirOwnTables) {
  // The daemon's aggregate pattern: concurrent requests each build a
  // table over the one cached dataset, shuffle it or not, and scan it.
  auto shared = std::make_shared<const Dataset>(MakeData(2000, 172));
  long label_sum = 0;
  for (const Example& e : shared->examples()) label_sum += e.label;
  constexpr int kThreads = 4;
  std::vector<long> sums(kThreads, 0);
  std::vector<size_t> counts(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto table = MakeTable(shared, StorageMode::kMemory).MoveValue();
      if (t % 2 == 1) {
        Rng rng(static_cast<uint64_t>(t));
        table->Shuffle(&rng).CheckOK();
      }
      for (int pass = 0; pass < 3; ++pass) {
        table
            ->Scan([&](const Example& e) {
              sums[t] += e.label;
              ++counts[t];
            })
            .CheckOK();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(counts[t], 3 * shared->size()) << "thread " << t;
    EXPECT_EQ(sums[t], 3 * label_sum) << "thread " << t;
  }
}

}  // namespace
}  // namespace bolton
