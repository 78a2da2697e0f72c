#include "data/loaders.h"

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "util/failpoint.h"

namespace bolton {
namespace {

class LoadersTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "loaders_test_file.txt";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void WriteFile(const std::string& content) {
    std::ofstream out(path_);
    out << content;
  }

  std::string path_;
};

TEST_F(LoadersTest, LibsvmRoundTrip) {
  Dataset ds(3, 2);
  ds.Add(Example{Vector{0.5, 0.0, -1.25}, +1});
  ds.Add(Example{Vector{0.0, 2.0, 0.0}, -1});
  ASSERT_TRUE(SaveLibsvm(ds, path_).ok());

  auto loaded = LoadLibsvm(path_, 3);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 2u);
  EXPECT_EQ(loaded.value()[0].x, ds[0].x);
  EXPECT_EQ(loaded.value()[0].label, +1);
  EXPECT_EQ(loaded.value()[1].x, ds[1].x);
  EXPECT_EQ(loaded.value()[1].label, -1);
}

TEST_F(LoadersTest, LibsvmInfersDimension) {
  WriteFile("1 1:0.5 4:1.0\n-1 2:0.25\n");
  auto loaded = LoadLibsvm(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().dim(), 4u);
  EXPECT_DOUBLE_EQ(loaded.value()[0].x[3], 1.0);
  EXPECT_DOUBLE_EQ(loaded.value()[1].x[1], 0.25);
}

TEST_F(LoadersTest, LibsvmMapsZeroOneLabels) {
  WriteFile("0 1:1.0\n1 1:2.0\n");
  auto loaded = LoadLibsvm(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value()[0].label, -1);
  EXPECT_EQ(loaded.value()[1].label, +1);
}

TEST_F(LoadersTest, LibsvmSkipsCommentsAndBlanks) {
  WriteFile("# header comment\n\n1 1:1.0\n");
  auto loaded = LoadLibsvm(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().size(), 1u);
}

TEST_F(LoadersTest, LibsvmRejectsMalformedFeature) {
  WriteFile("1 1-0.5\n");
  EXPECT_FALSE(LoadLibsvm(path_).ok());
}

TEST_F(LoadersTest, LibsvmRejectsZeroBasedIndex) {
  WriteFile("1 0:0.5\n");
  EXPECT_FALSE(LoadLibsvm(path_).ok());
}

TEST_F(LoadersTest, LibsvmRejectsIndexBeyondDeclaredDim) {
  WriteFile("1 5:0.5\n");
  EXPECT_EQ(LoadLibsvm(path_, 3).status().code(), StatusCode::kOutOfRange);
}

TEST_F(LoadersTest, LibsvmMissingFileIsIOError) {
  EXPECT_EQ(LoadLibsvm("/nonexistent/file").status().code(),
            StatusCode::kIOError);
}

TEST_F(LoadersTest, LibsvmEmptyFileIsError) {
  WriteFile("");
  EXPECT_FALSE(LoadLibsvm(path_).ok());
}

TEST_F(LoadersTest, CsvParsesDenseRows) {
  WriteFile("0.5,1.5,-1\n0.25,0.75,1\n");
  auto loaded = LoadCsv(path_);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 2u);
  EXPECT_EQ(loaded.value().dim(), 2u);
  EXPECT_EQ(loaded.value()[0].x, (Vector{0.5, 1.5}));
  EXPECT_EQ(loaded.value()[0].label, -1);
  EXPECT_EQ(loaded.value()[1].label, +1);
}

TEST_F(LoadersTest, CsvSkipsHeaderRow) {
  WriteFile("f1,f2,label\n0.5,1.5,1\n");
  auto loaded = LoadCsv(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().size(), 1u);
}

TEST_F(LoadersTest, CsvMapsZeroOneLabels) {
  WriteFile("1.0,0\n2.0,1\n");
  auto loaded = LoadCsv(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value()[0].label, -1);
  EXPECT_EQ(loaded.value()[1].label, +1);
}

TEST_F(LoadersTest, CsvRejectsRaggedRows) {
  WriteFile("1.0,2.0,1\n3.0,1\n");
  EXPECT_FALSE(LoadCsv(path_).ok());
}

TEST_F(LoadersTest, CsvRejectsFractionalLabels) {
  WriteFile("1.0,0.5\n");
  EXPECT_FALSE(LoadCsv(path_).ok());
}

TEST_F(LoadersTest, CsvMulticlassKeepsClassIds) {
  WriteFile("1.0,0\n2.0,1\n3.0,2\n");
  auto loaded = LoadCsv(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_classes(), 3);
  EXPECT_EQ(loaded.value()[2].label, 2);
}

// ---------------------------------------------------------------------------
// Robustness regressions: malformed rows must fail with row/column context
// instead of silently skipping, and non-finite values must never reach the
// gradient path.
// ---------------------------------------------------------------------------

TEST_F(LoadersTest, LibsvmRejectsNonFiniteValuesWithLineContext) {
  // strtod happily parses these; the loader must not.
  for (const char* bad : {"1 1:nan\n", "1 1:inf\n", "1 1:-inf\n"}) {
    WriteFile(bad);
    auto loaded = LoadLibsvm(path_);
    ASSERT_FALSE(loaded.ok()) << bad;
    EXPECT_NE(loaded.status().message().find("line 1"), std::string::npos)
        << loaded.status().ToString();
    EXPECT_NE(loaded.status().message().find("non-finite"),
              std::string::npos);
  }
  // The line number counts physical lines, comments included.
  WriteFile("# comment\n1 1:0.5\n1 2:nan\n");
  auto loaded = LoadLibsvm(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("line 3"), std::string::npos);
}

TEST_F(LoadersTest, LibsvmRejectsNonFiniteLabel) {
  WriteFile("nan 1:0.5\n");
  EXPECT_FALSE(LoadLibsvm(path_).ok());
}

// The dense and sparse loaders share one line parser, so they give one
// verdict on every line.
TEST_F(LoadersTest, DenseAndSparseLibsvmLoadersAgree) {
  const struct {
    const char* line;
    bool accepted;
  } cases[] = {
      {"1 1:nan\n", false},
      {"1 1:inf\n", false},
      {"1 1:0.5 1:0.7\n", false},  // duplicate index
      {"1.0 1:0.5\n", true},       // integral real label
  };
  for (const auto& c : cases) {
    WriteFile(c.line);
    auto dense = LoadLibsvm(path_);
    auto sparse = LoadLibsvmSparse(path_);
    EXPECT_EQ(dense.ok(), c.accepted) << c.line << dense.status().ToString();
    EXPECT_EQ(sparse.ok(), c.accepted) << c.line << sparse.status().ToString();
    if (!c.accepted) {
      EXPECT_EQ(dense.status().ToString(), sparse.status().ToString());
      EXPECT_NE(dense.status().message().find("line 1"), std::string::npos);
    }
  }
}

TEST_F(LoadersTest, CsvRejectsNonFiniteValuesWithRowColumnContext) {
  WriteFile("0.5,1.5,1\n0.25,nan,1\n");
  auto loaded = LoadCsv(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("line 2, column 2"),
            std::string::npos)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("non-finite"), std::string::npos);

  WriteFile("inf,1\n");
  EXPECT_FALSE(LoadCsv(path_).ok());
}

TEST_F(LoadersTest, CsvMalformedDataRowErrorsInsteadOfSilentSkip) {
  // The first row carries numeric fields, so it is DATA with a bad column —
  // the old header heuristic silently dropped it.
  WriteFile("0.5,oops,1\n0.25,0.75,1\n");
  auto loaded = LoadCsv(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("line 1, column 2"),
            std::string::npos)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("non-numeric"), std::string::npos);
}

TEST_F(LoadersTest, CsvMalformedLaterRowReportsRowAndColumn) {
  WriteFile("f1,f2,label\n0.5,1.5,1\n0.25,zebra,0\n");
  auto loaded = LoadCsv(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("line 3, column 2"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST_F(LoadersTest, CsvStillSkipsAllTextHeader) {
  // A genuine header (no numeric field) on row one is still skipped; a
  // second header-looking row is an error.
  WriteFile("alpha,beta,label\n1.0,2.0,1\n");
  auto loaded = LoadCsv(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().size(), 1u);

  WriteFile("alpha,beta,label\nalpha,beta,label\n1.0,2.0,1\n");
  EXPECT_FALSE(LoadCsv(path_).ok());
}

// ---------------------------------------------------------------------------
// One label rule for both formats: binary labels lie in {-1, +1} (after a
// 0/1 file is mapped), multiclass labels are class ids >= 0 with K = max + 1,
// and anything else is refused naming the first line that fits neither.
// A binary model is calibrated for |y| = 1, so a stray label 2 would get
// half the noise its gradients need.
// ---------------------------------------------------------------------------

TEST_F(LoadersTest, PlusMinusOneLabelsAreBinary) {
  WriteFile("1 1:0.5\n-1 1:0.25\n1 1:1\n");
  auto libsvm = LoadLibsvm(path_);
  ASSERT_TRUE(libsvm.ok()) << libsvm.status().ToString();
  EXPECT_EQ(libsvm.value().num_classes(), 2);
  EXPECT_EQ(libsvm.value()[1].label, -1);
  WriteFile("0.5,1\n0.25,-1\n");
  auto csv = LoadCsv(path_);
  ASSERT_TRUE(csv.ok()) << csv.status().ToString();
  EXPECT_EQ(csv.value().num_classes(), 2);
  EXPECT_EQ(csv.value()[1].label, -1);
}

TEST_F(LoadersTest, NonNegativeClassIdsAreMulticlassWithMaxPlusOneClasses) {
  // Labels {1, 2, 3} used to load as 3 classes, leaving class 3 outside
  // [0, 3).
  WriteFile("1 1:0.5\n2 1:0.25\n3.0 1:1\n");
  auto libsvm = LoadLibsvm(path_);
  ASSERT_TRUE(libsvm.ok()) << libsvm.status().ToString();
  EXPECT_EQ(libsvm.value().num_classes(), 4);
  EXPECT_EQ(libsvm.value()[2].label, 3);
  auto sparse = LoadLibsvmSparse(path_);
  ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
  EXPECT_EQ(sparse.value().num_classes(), 4);
  WriteFile("0.5,1\n0.25,2\n1.0,3\n");
  auto csv = LoadCsv(path_);
  ASSERT_TRUE(csv.ok()) << csv.status().ToString();
  EXPECT_EQ(csv.value().num_classes(), 4);
  EXPECT_EQ(csv.value()[2].label, 3);
}

TEST_F(LoadersTest, LabelsThatAreNeitherBinaryNorClassIdsAreRefused) {
  const struct {
    const char* libsvm;
    const char* line;
  } kCases[] = {
      {"-1 1:0.5\n1 1:0.25\n2 1:1\n", "line 3: label 2"},
      {"# a comment\n1 1:0.5\n-2 1:0.25\n", "line 3: label -2"},
      {"-1 1:0.5\n0 1:0.25\n1 1:1\n", "line 2: label 0"},
  };
  for (const auto& c : kCases) {
    WriteFile(c.libsvm);
    for (const Status& status :
         {LoadLibsvm(path_).status(), LoadLibsvmSparse(path_).status()}) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << c.libsvm;
      EXPECT_NE(status.message().find(c.line), std::string::npos)
          << status.ToString();
    }
  }
  WriteFile("0.5,1\n0.25,-1\n1.0,3\n");
  const Status csv = LoadCsv(path_).status();
  EXPECT_EQ(csv.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(csv.message().find("line 3: label 3"), std::string::npos)
      << csv.ToString();
}

TEST_F(LoadersTest, LabelsOutsideIntRangeAreRefused) {
  // 4294967297 used to wrap to 1, and 1e20 went through an undefined
  // double-to-int cast.
  for (const char* file :
       {"1 1:0.5\n4294967297 1:1\n", "1 1:0.5\n1e20 1:1\n",
        "1 1:0.5\n-1e20 1:1\n", "1 1:0.5\n2147483647 1:1\n"}) {
    WriteFile(file);
    const Status status = LoadLibsvm(path_).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << file;
    EXPECT_NE(status.message().find("line 2"), std::string::npos)
        << status.ToString();
  }
  WriteFile("0.5,1\n0.25,1e20\n");
  const Status csv = LoadCsv(path_).status();
  EXPECT_EQ(csv.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(csv.message().find("line 2"), std::string::npos)
      << csv.ToString();
}

TEST_F(LoadersTest, ClassCountsLargerThanMemoryAreRefused) {
  // One stray label of 2*10^9 makes 2*10^9 + 1 classes: their one-vs-all
  // models and confusion counts (4*10^18 entries) fit no host.
  WriteFile("0 1:0.5\n1 1:0.25\n2000000000 1:1\n");
  for (const Status& status :
       {LoadLibsvm(path_).status(), LoadLibsvmSparse(path_).status()}) {
    EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
    EXPECT_NE(status.message().find("line 3: label 2000000000"),
              std::string::npos)
        << status.ToString();
  }
  WriteFile("0.5,0\n0.25,2000000000\n1.0,1\n");
  const Status csv = LoadCsv(path_).status();
  EXPECT_EQ(csv.code(), StatusCode::kOutOfRange);
  EXPECT_NE(csv.message().find("line 2: label 2000000000"), std::string::npos)
      << csv.ToString();
}

TEST_F(LoadersTest, DenseLibsvmRefusesRowsLargerThanMemory) {
  // One index of 10^12 would size every dense row at 8 TB; 3*10^18 makes
  // rows x dim x 8 overflow.
  for (const char* index : {"1000000000000", "3000000000000000000"}) {
    WriteFile(std::string("1 1:0.5\n-1 2:1\n1 ") + index + ":1\n-1 3:1\n");
    const Status status = LoadLibsvm(path_).status();
    EXPECT_EQ(status.code(), StatusCode::kOutOfRange) << index;
    EXPECT_NE(status.message().find(std::string("line 3: index ") + index),
              std::string::npos)
        << status.ToString();
    auto sparse = LoadLibsvmSparse(path_);
    ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
    EXPECT_EQ(std::to_string(sparse.value().dim()), index);
  }
}

TEST_F(LoadersTest, LoaderFailpointsInjectIOErrors) {
  WriteFile("1 1:0.5\n-1 2:0.25\n");
  ASSERT_TRUE(FailpointRegistry::Default().Configure("loader.open:error").ok());
  auto open_fail = LoadLibsvm(path_);
  ASSERT_FALSE(open_fail.ok());
  EXPECT_EQ(open_fail.status().code(), StatusCode::kIOError);
  EXPECT_NE(open_fail.status().message().find("failpoint"),
            std::string::npos);

  // "1in2" fires on the second data row of this file.
  ASSERT_TRUE(FailpointRegistry::Default().Configure("loader.row:1in2").ok());
  EXPECT_FALSE(LoadLibsvm(path_).ok());
  FailpointRegistry::Default().Clear();
  EXPECT_TRUE(LoadLibsvm(path_).ok());
}

}  // namespace
}  // namespace bolton
