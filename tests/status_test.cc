#include "util/status.h"

#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "util/result.h"

namespace bolton {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.message(), "");
  EXPECT_EQ(st.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("epsilon must be > 0");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "epsilon must be > 0");
  EXPECT_EQ(st.ToString(), "invalid-argument: epsilon must be > 0");
}

TEST(StatusTest, CopyPreservesState) {
  Status st = Status::NotFound("missing");
  Status copy = st;
  EXPECT_EQ(copy, st);
  EXPECT_EQ(copy.message(), "missing");
  // Mutating the copy must not alias the original.
  copy = Status::OK();
  EXPECT_FALSE(st.ok());
}

TEST(StatusTest, WithContextPrependsAndPreservesCode) {
  Status st = Status::IOError("disk full").WithContext("loading train.csv");
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_EQ(st.message(), "loading train.csv: disk full");
  // WithContext on OK is a no-op.
  EXPECT_TRUE(Status::OK().WithContext("ctx").ok());
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "ok");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInvalidArgument),
               "invalid-argument");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOutOfRange), "out-of-range");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotFound), "not-found");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kIOError), "io-error");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kFailedPrecondition),
               "failed-precondition");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotImplemented),
               "not-implemented");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "internal");
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto fails = []() -> Status { return Status::Internal("boom"); };
  auto wrapper = [&]() -> Status {
    BOLTON_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::OutOfRange("too big"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, OkStatusIsRejected) {
  Result<int> r{Status::OK()};
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

// Reading the value of an error aborts through CheckOK, naming the status,
// not in an uncaught std::bad_variant_access that names nothing.
TEST(ResultTest, ValueOfAnErrorAbortsNamingItsStatus) {
  Result<std::string> r(Status::NotFound("no spill file"));
  const Result<std::string>& cr = r;
  EXPECT_DEATH((void)cr.value(), "fatal status: not-found: no spill file");
  EXPECT_DEATH((void)r.value(), "fatal status: not-found: no spill file");
  EXPECT_DEATH((void)std::move(r).value(),
               "fatal status: not-found: no spill file");
  EXPECT_DEATH((void)r.MoveValue(), "fatal status: not-found: no spill file");
}

TEST(ResultTest, MoveValueTransfersOwnership) {
  Result<std::string> r(std::string("payload"));
  std::string taken = r.MoveValue();
  EXPECT_EQ(taken, "payload");
}

TEST(ResultTest, AssignOrReturnUnwraps) {
  auto produce = []() -> Result<int> { return 5; };
  auto consumer = [&]() -> Result<int> {
    BOLTON_ASSIGN_OR_RETURN(int v, produce());
    return v + 1;
  };
  ASSERT_TRUE(consumer().ok());
  EXPECT_EQ(consumer().value(), 6);

  auto fail = []() -> Result<int> { return Status::NotFound("x"); };
  auto failing_consumer = [&]() -> Result<int> {
    BOLTON_ASSIGN_OR_RETURN(int v, fail());
    return v;
  };
  EXPECT_EQ(failing_consumer().status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace bolton
