#include "core/privacy.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace bolton {
namespace {

TEST(PrivacyParamsTest, PureDetection) {
  EXPECT_TRUE((PrivacyParams{1.0, 0.0}).IsPure());
  EXPECT_FALSE((PrivacyParams{1.0, 1e-6}).IsPure());
}

TEST(PrivacyParamsTest, Validation) {
  EXPECT_TRUE((PrivacyParams{0.1, 0.0}).Validate().ok());
  EXPECT_TRUE((PrivacyParams{0.5, 1e-6}).Validate().ok());
  EXPECT_FALSE((PrivacyParams{0.0, 0.0}).Validate().ok());
  EXPECT_FALSE((PrivacyParams{-1.0, 0.0}).Validate().ok());
  EXPECT_FALSE((PrivacyParams{1.0, -0.1}).Validate().ok());
  EXPECT_FALSE((PrivacyParams{1.0, 1.0}).Validate().ok());
  // Non-finite ε and NaN or infinite δ are refused.
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE((PrivacyParams{nan, 0.0}).Validate().ok());
  EXPECT_FALSE((PrivacyParams{inf, 0.0}).Validate().ok());
  EXPECT_FALSE((PrivacyParams{0.5, nan}).Validate().ok());
  EXPECT_FALSE((PrivacyParams{0.5, inf}).Validate().ok());
}

TEST(PrivacyParamsTest, SplitEvenlyBasicComposition) {
  PrivacyParams total{1.0, 1e-5};
  PrivacyParams per = total.SplitEvenly(10);
  EXPECT_DOUBLE_EQ(per.epsilon, 0.1);
  EXPECT_DOUBLE_EQ(per.delta, 1e-6);
  // Splitting into one part is the identity.
  PrivacyParams same = total.SplitEvenly(1);
  EXPECT_DOUBLE_EQ(same.epsilon, total.epsilon);
  EXPECT_DOUBLE_EQ(same.delta, total.delta);
}

TEST(PrivacyParamsTest, ToStringMentionsBudget) {
  EXPECT_EQ((PrivacyParams{2.0, 0.0}).ToString(), "eps=2");
  EXPECT_NE((PrivacyParams{0.5, 1e-6}).ToString().find("delta"),
            std::string::npos);
}

TEST(FitsBudgetTest, ToleranceIsOnePartInABillionOfTheBudget) {
  const PrivacyParams none{0.0, 0.0};
  for (const PrivacyParams& budget :
       {PrivacyParams{1.0, 1e-6}, PrivacyParams{8.0, 0.25}}) {
    SCOPED_TRACE(budget.ToString());
    const double eps_in = budget.epsilon * (1.0 + 5e-10);
    const double eps_out = budget.epsilon * (1.0 + 2e-9);
    const double delta_in = budget.delta * (1.0 + 5e-10);
    const double delta_out = budget.delta * (1.0 + 2e-9);
    EXPECT_TRUE(FitsBudget(none, {eps_in, 0.0}, budget));
    EXPECT_FALSE(FitsBudget(none, {eps_out, 0.0}, budget));
    EXPECT_TRUE(FitsBudget(none, {0.1, delta_in}, budget));
    EXPECT_FALSE(FitsBudget(none, {0.1, delta_out}, budget));
  }
}

TEST(FitsBudgetTest, NothingFitsPastTheLineAndNaNNeverFits) {
  const PrivacyParams budget{1.0, 1e-6};
  // A spend already past the line is not clamped back to it.
  EXPECT_FALSE(FitsBudget({1.0 + 8e-10, 0.0}, {4e-10, 0.0}, budget));
  EXPECT_TRUE(FitsBudget({1.0 + 4e-10, 0.0}, {4e-10, 0.0}, budget));
  const double nan = std::nan("");
  EXPECT_FALSE(FitsBudget({0.0, 0.0}, {nan, 0.0}, budget));
  EXPECT_FALSE(FitsBudget({0.0, 0.0}, {0.1, nan}, budget));
  EXPECT_FALSE(FitsBudget({nan, 0.0}, {0.1, 0.0}, budget));
  EXPECT_FALSE(FitsBudget({0.0, 0.0}, {0.1, 0.0}, {nan, 1e-6}));
}

}  // namespace
}  // namespace bolton
