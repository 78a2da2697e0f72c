#include "linalg/sparse_vector.h"

#include <cstdio>
#include <fstream>
#include <limits>

#include <gtest/gtest.h>

#include "data/loaders.h"
#include "data/sparse_dataset.h"
#include "data/synthetic.h"
#include "ml/metrics.h"
#include "optim/loss.h"
#include "optim/psgd.h"
#include "optim/schedule.h"
#include "util/cancellation.h"

namespace bolton {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(SparseVectorTest, FromEntriesValidatesAndSorts) {
  auto v = SparseVector::FromEntries(5, {{3, 1.0}, {0, 2.0}});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().nnz(), 2u);
  EXPECT_EQ(v.value().entries()[0].first, 0u);  // sorted
  EXPECT_EQ(v.value().entries()[1].first, 3u);

  EXPECT_FALSE(SparseVector::FromEntries(5, {{5, 1.0}}).ok());  // range
  EXPECT_FALSE(
      SparseVector::FromEntries(5, {{1, 1.0}, {1, 2.0}}).ok());  // dup
  // Explicit zeros are dropped, not stored.
  auto with_zero = SparseVector::FromEntries(5, {{1, 0.0}, {2, 3.0}});
  ASSERT_TRUE(with_zero.ok());
  EXPECT_EQ(with_zero.value().nnz(), 1u);
}

TEST(SparseVectorTest, DenseRoundTrip) {
  Vector dense{0.0, 1.5, 0.0, -2.0};
  SparseVector sparse = SparseVector::FromDense(dense);
  EXPECT_EQ(sparse.nnz(), 2u);
  EXPECT_EQ(sparse.ToDense(), dense);
}

TEST(SparseVectorTest, FromDenseThreshold) {
  Vector dense{0.01, 1.0, -0.005};
  SparseVector sparse = SparseVector::FromDense(dense, 0.05);
  EXPECT_EQ(sparse.nnz(), 1u);
  EXPECT_DOUBLE_EQ(sparse.ToDense()[1], 1.0);
}

TEST(SparseVectorTest, KernelsMatchDense) {
  Vector dense{0.0, 1.5, 0.0, -2.0, 0.25};
  SparseVector sparse = SparseVector::FromDense(dense);
  Vector other{1.0, 2.0, 3.0, 4.0, 5.0};

  EXPECT_DOUBLE_EQ(Dot(sparse, other), Dot(dense, other));
  EXPECT_DOUBLE_EQ(sparse.Norm(), dense.Norm());

  Vector acc_sparse(5), acc_dense(5);
  sparse.AxpyInto(0.5, &acc_sparse);
  acc_dense.Axpy(0.5, dense);
  EXPECT_EQ(acc_sparse, acc_dense);

  sparse.Scale(2.0);
  EXPECT_EQ(sparse.ToDense(), 2.0 * dense);
}

TEST(SparseDatasetTest, DenseRoundTripAndStats) {
  SyntheticConfig config;
  config.num_examples = 50;
  config.dim = 6;
  config.seed = 251;
  Dataset dense = GenerateSynthetic(config).MoveValue();
  SparseDataset sparse = SparseDataset::FromDense(dense);
  EXPECT_EQ(sparse.size(), dense.size());
  EXPECT_EQ(sparse.dim(), dense.dim());
  EXPECT_GT(sparse.AverageNnz(), 0.0);
  Dataset back = sparse.ToDense();
  for (size_t i = 0; i < dense.size(); ++i) {
    EXPECT_EQ(back[i].x, dense[i].x);
    EXPECT_EQ(back[i].label, dense[i].label);
  }
}

TEST(SparseDatasetTest, NormalizeToUnitBall) {
  SparseDataset ds(3, 2);
  ds.Add(SparseExample{
      SparseVector::FromEntries(3, {{0, 3.0}, {2, 4.0}}).MoveValue(), +1});
  ds.NormalizeToUnitBall();
  EXPECT_NEAR(ds[0].x.Norm(), 1.0, 1e-12);
}

TEST(SparseLoaderTest, KeepsSparsityAndMatchesDenseLoader) {
  std::string path = ::testing::TempDir() + "sparse_loader_test.libsvm";
  {
    std::ofstream out(path);
    out << "1 2:0.5 100:1.0\n-1 1:0.25\n# comment\n1 50:2.0\n";
  }
  auto sparse = LoadLibsvmSparse(path);
  ASSERT_TRUE(sparse.ok());
  EXPECT_EQ(sparse.value().size(), 3u);
  EXPECT_EQ(sparse.value().dim(), 100u);
  EXPECT_EQ(sparse.value()[0].x.nnz(), 2u);
  // Densifying reproduces the dense loader's output.
  auto dense = LoadLibsvm(path);
  ASSERT_TRUE(dense.ok());
  Dataset densified = sparse.value().ToDense();
  for (size_t i = 0; i < dense.value().size(); ++i) {
    EXPECT_EQ(densified[i].x, dense.value()[i].x);
    EXPECT_EQ(densified[i].label, dense.value()[i].label);
  }
  std::remove(path.c_str());
}

TEST(SparseLoaderTest, RejectsMalformedInput) {
  std::string path = ::testing::TempDir() + "sparse_loader_bad.libsvm";
  {
    std::ofstream out(path);
    out << "1 0:0.5\n";  // 0-based index
  }
  EXPECT_FALSE(LoadLibsvmSparse(path).ok());
  std::remove(path.c_str());
}

// The headline property: the sparse engine is BIT-FOR-BIT the dense engine
// on densified data with the same seed, so every sensitivity bound (and
// the bolt-on wrapper) transfers unchanged. Both sampling modes.
TEST(SparsePsgdTest, BitExactWithDenseEngineConvex) {
  SyntheticConfig config;
  config.num_examples = 300;
  config.dim = 12;
  config.margin = 2.0;
  config.noise_stddev = 0.5;
  config.seed = 252;
  Dataset dense = GenerateSynthetic(config).MoveValue();
  SparseDataset sparse = SparseDataset::FromDense(dense);

  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  auto schedule = MakeConstantStep(0.1).MoveValue();
  for (SamplingMode sampling :
       {SamplingMode::kPermutation, SamplingMode::kWithReplacement}) {
    PsgdOptions options;
    options.passes = 3;
    options.batch_size = 7;
    options.sampling = sampling;

    Rng rng_dense(9), rng_sparse(9);
    auto dense_run = RunPsgd(dense, *loss, *schedule, options, &rng_dense);
    auto sparse_run =
        RunSparseLogisticPsgd(sparse, 0.0, *schedule, options, &rng_sparse);
    ASSERT_TRUE(dense_run.ok() && sparse_run.ok());
    EXPECT_EQ(dense_run.value().model, sparse_run.value().model);
    EXPECT_EQ(dense_run.value().stats.updates,
              sparse_run.value().stats.updates);
  }
}

TEST(SparsePsgdTest, BitExactWithDenseEngineRegularizedProjected) {
  SyntheticConfig config;
  config.num_examples = 200;
  config.dim = 10;
  config.seed = 253;
  Dataset dense = GenerateSynthetic(config).MoveValue();
  SparseDataset sparse = SparseDataset::FromDense(dense);

  const double lambda = 0.05;
  auto loss = MakeLogisticLoss(lambda, 1.0 / lambda).MoveValue();
  auto schedule =
      MakeInverseTimeStep(loss->strong_convexity(), loss->smoothness())
          .MoveValue();
  for (SamplingMode sampling :
       {SamplingMode::kPermutation, SamplingMode::kWithReplacement}) {
    PsgdOptions options;
    options.passes = 2;
    options.batch_size = 5;
    options.radius = loss->radius();
    options.sampling = sampling;

    Rng rng_dense(11), rng_sparse(11);
    auto dense_run = RunPsgd(dense, *loss, *schedule, options, &rng_dense);
    auto sparse_run = RunSparseLogisticPsgd(sparse, lambda, *schedule,
                                            options, &rng_sparse);
    ASSERT_TRUE(dense_run.ok() && sparse_run.ok());
    EXPECT_EQ(dense_run.value().model, sparse_run.value().model);
  }
}

TEST(SparsePsgdTest, LearnsOnGenuinelySparseData) {
  // High-dimensional data where each example touches few coordinates —
  // the workload the sparse path exists for.
  const size_t dim = 500;
  SparseDataset ds(dim, 2);
  Rng gen(13);
  for (int i = 0; i < 400; ++i) {
    // Positive examples activate low indices, negatives high indices.
    bool positive = (i % 2 == 0);
    std::vector<SparseVector::Entry> entries;
    for (int f = 0; f < 5; ++f) {
      size_t index = gen.UniformInt(dim / 2) + (positive ? 0 : dim / 2);
      bool duplicate = false;
      for (const auto& e : entries) duplicate |= (e.first == index);
      if (!duplicate) entries.emplace_back(index, 0.4);
    }
    ds.Add(SparseExample{
        SparseVector::FromEntries(dim, std::move(entries)).MoveValue(),
        positive ? +1 : -1});
  }
  ds.NormalizeToUnitBall();
  EXPECT_LT(ds.AverageNnz(), 6.0);  // ~1% density

  auto schedule = MakeConstantStep(0.5).MoveValue();
  PsgdOptions options;
  options.passes = 5;
  Rng rng(14);
  auto run = RunSparseLogisticPsgd(ds, 0.0, *schedule, options, &rng);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(BinaryAccuracy(run.value().model, ds.ToDense()), 0.95);
}

TEST(SparsePsgdTest, Validation) {
  SparseDataset empty(10, 2);
  auto schedule = MakeConstantStep(0.1).MoveValue();
  PsgdOptions options;
  Rng rng(15);
  EXPECT_FALSE(
      RunSparseLogisticPsgd(empty, 0.0, *schedule, options, &rng).ok());

  SparseDataset ds(4, 2);
  ds.Add(SparseExample{SparseVector::FromDense(Vector{1.0, 0, 0, 0}), +1});
  EXPECT_FALSE(
      RunSparseLogisticPsgd(ds, -1.0, *schedule, options, &rng).ok());
}

// The sparse front end shares RunPsgd's validation: it is the serial black
// box too, so a sharded request is refused rather than run serially.
TEST(SparsePsgdTest, ShardedRequestRefused) {
  SparseDataset ds(4, 2);
  ds.Add(SparseExample{SparseVector::FromDense(Vector{1.0, 0, 0, 0}), +1});
  auto schedule = MakeConstantStep(0.1).MoveValue();
  PsgdOptions options;
  options.shards = 4;
  Rng rng(16);
  EXPECT_EQ(
      RunSparseLogisticPsgd(ds, 0.0, *schedule, options, &rng).status().code(),
      StatusCode::kInvalidArgument);
}

// ... and its batch-boundary cancellation poll.
TEST(SparsePsgdTest, CancelledTokenStopsTheRun) {
  SparseDataset ds(4, 2);
  ds.Add(SparseExample{SparseVector::FromDense(Vector{1.0, 0, 0, 0}), +1});
  auto schedule = MakeConstantStep(0.1).MoveValue();
  CancellationToken cancel;
  cancel.Cancel();
  PsgdOptions options;
  options.executor.cancel = &cancel;
  Rng rng(17);
  EXPECT_EQ(
      RunSparseLogisticPsgd(ds, 0.0, *schedule, options, &rng).status().code(),
      StatusCode::kCancelled);
}

}  // namespace
}  // namespace bolton
