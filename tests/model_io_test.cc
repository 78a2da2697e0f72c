#include "ml/model_io.h"

#include <sys/resource.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "util/atomic_file.h"

namespace bolton {
namespace {

class ModelIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "model_io_test.model";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Writes `body` between a v2 magic line and its valid checksum line.
  void WriteFramed(const std::string& body) {
    std::string content = "bolton-model v2\n" + body;
    AppendChecksumLine(&content);
    std::ofstream out(path_);
    out << content;
  }

  std::string path_;
};

TEST_F(ModelIoTest, BinaryRoundTripIsExact) {
  // Values chosen to stress exact double round-tripping.
  Vector model{0.1, -3.0000000000000004, 1e-17, 12345.6789, 0.0};
  ASSERT_TRUE(SaveModel(model, path_).ok());
  auto loaded = LoadBinaryModel(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value(), model);
}

TEST_F(ModelIoTest, MulticlassRoundTrip) {
  MulticlassModel model;
  model.weights = {Vector{1.0, 2.0}, Vector{-1.0, 0.5}, Vector{0.0, 3.0}};
  ASSERT_TRUE(SaveModel(model, path_).ok());
  auto loaded = LoadMulticlassModel(path_);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().num_classes(), 3);
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(loaded.value().weights[c], model.weights[c]);
  }
}

TEST_F(ModelIoTest, BinaryLoaderRejectsMulticlassFile) {
  MulticlassModel model;
  model.weights = {Vector{1.0}, Vector{2.0}};
  ASSERT_TRUE(SaveModel(model, path_).ok());
  EXPECT_FALSE(LoadBinaryModel(path_).ok());
  // But the multiclass loader accepts a binary file.
  Vector binary{1.0, 2.0};
  ASSERT_TRUE(SaveModel(binary, path_).ok());
  auto as_multiclass = LoadMulticlassModel(path_);
  ASSERT_TRUE(as_multiclass.ok());
  EXPECT_EQ(as_multiclass.value().num_classes(), 1);
}

TEST_F(ModelIoTest, RejectsCorruptFiles) {
  {
    std::ofstream out(path_);
    out << "not a model\n";
  }
  EXPECT_FALSE(LoadBinaryModel(path_).ok());

  // Bodies with a valid checksum, so the parser's own checks are reached.
  WriteFramed("1\n3\n0.5\n");  // truncated weights
  auto truncated = LoadBinaryModel(path_);
  ASSERT_FALSE(truncated.ok());
  EXPECT_NE(truncated.status().message().find("expected 1 x 3"),
            std::string::npos)
      << truncated.status().ToString();

  WriteFramed("1\n2\n0.5\nnot-a-number\n");
  EXPECT_EQ(LoadBinaryModel(path_).status().code(),
            StatusCode::kInvalidArgument);

  WriteFramed("1\n");  // truncated header
  EXPECT_EQ(LoadBinaryModel(path_).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ModelIoTest, FlippedByteIsRefused) {
  Vector model{-0.3408, 1.25, 7.0};
  ASSERT_TRUE(SaveModel(model, path_).ok());
  std::string content;
  {
    std::ifstream in(path_);
    content.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  // The first weight's leading digit: -0.3408 becomes -1.3408, which
  // parses as well as the original did.
  const size_t first_weight = content.find("\n-0.") + 2;
  ASSERT_NE(first_weight, std::string::npos + 2);
  content[first_weight] = '1';
  {
    std::ofstream out(path_);
    out << content;
  }
  auto loaded = LoadBinaryModel(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos)
      << loaded.status().ToString();
}

TEST_F(ModelIoTest, V1FileIsRefusedByName) {
  {
    std::ofstream out(path_);
    out << "bolton-model v1\n1\n2\n1.5\n-2.5\n";
  }
  auto loaded = LoadMulticlassModel(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  const std::string message = loaded.status().message();
  EXPECT_NE(message.find("bolton-model v2"), std::string::npos) << message;
  EXPECT_NE(message.find("bolton-model v1"), std::string::npos) << message;
}

TEST_F(ModelIoTest, FailedSaveLeavesPreviousModelLoadable) {
  Vector old_model{0.25, -0.5};
  ASSERT_TRUE(SaveModel(old_model, path_).ok());

  // A file-size cap far below the new model's size makes the save fail
  // part-way, as a full disk would. SIGXFSZ is ignored so the write
  // returns EFBIG instead of killing the process.
  Vector new_model(4096);
  for (size_t i = 0; i < new_model.dim(); ++i) new_model[i] = 1.0 / (i + 3.0);
  struct rlimit saved_limit{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved_limit), 0);
  struct rlimit capped = saved_limit;
  capped.rlim_cur = 1024;
  auto saved_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
  const Status saved = SaveModel(new_model, path_);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved_limit), 0);
  std::signal(SIGXFSZ, saved_handler);
  std::remove((path_ + ".tmp").c_str());

  EXPECT_FALSE(saved.ok());
  auto loaded = LoadBinaryModel(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value(), old_model);
}

TEST_F(ModelIoTest, MissingFileIsNotFound) {
  EXPECT_EQ(LoadBinaryModel("/nonexistent/model").status().code(),
            StatusCode::kNotFound);
}

TEST_F(ModelIoTest, EmptyModelRejected) {
  EXPECT_FALSE(SaveModel(Vector(), path_).ok());
  EXPECT_FALSE(SaveModel(MulticlassModel{}, path_).ok());
}

}  // namespace
}  // namespace bolton
