#include "core/accountant.h"

#include <cmath>

#include <gtest/gtest.h>

namespace bolton {
namespace {

TEST(BasicCompositionTest, SumsBudgets) {
  PrivacyParams total = BasicComposition(
      {{0.1, 1e-6}, {0.2, 2e-6}, {0.3, 0.0}});
  EXPECT_DOUBLE_EQ(total.epsilon, 0.6);
  EXPECT_DOUBLE_EQ(total.delta, 3e-6);
  PrivacyParams empty = BasicComposition({});
  EXPECT_DOUBLE_EQ(empty.epsilon, 0.0);
}

TEST(ParallelCompositionTest, TakesMax) {
  PrivacyParams total = ParallelComposition(
      {{0.1, 1e-6}, {0.5, 1e-8}, {0.3, 2e-6}});
  EXPECT_DOUBLE_EQ(total.epsilon, 0.5);
  EXPECT_DOUBLE_EQ(total.delta, 2e-6);
}

TEST(AdvancedCompositionTest, MatchesFormula) {
  PrivacyParams per_step{0.01, 1e-8};
  const size_t k = 100;
  const double delta_prime = 1e-6;
  auto total = AdvancedComposition(per_step, k, delta_prime);
  ASSERT_TRUE(total.ok());
  double expected_eps =
      std::sqrt(2.0 * k * std::log(1.0 / delta_prime)) * 0.01 +
      k * 0.01 * (std::exp(0.01) - 1.0);
  EXPECT_NEAR(total.value().epsilon, expected_eps, 1e-12);
  EXPECT_DOUBLE_EQ(total.value().delta, k * 1e-8 + delta_prime);
}

TEST(AdvancedCompositionTest, BeatsBasicForManySteps) {
  // The whole point: for many small steps, √k scaling beats k scaling.
  PrivacyParams per_step{0.01, 0.0};
  const size_t k = 10000;
  auto advanced = AdvancedComposition(per_step, k, 1e-6);
  ASSERT_TRUE(advanced.ok());
  double basic_eps = k * per_step.epsilon;  // = 100
  EXPECT_LT(advanced.value().epsilon, basic_eps);
}

TEST(AdvancedCompositionTest, Validation) {
  EXPECT_FALSE(AdvancedComposition({0.0, 0.0}, 10, 1e-6).ok());
  EXPECT_FALSE(AdvancedComposition({0.1, 0.0}, 0, 1e-6).ok());
  EXPECT_FALSE(AdvancedComposition({0.1, 0.0}, 10, 0.0).ok());
  EXPECT_FALSE(AdvancedComposition({0.1, 0.0}, 10, 1.0).ok());
}

TEST(PerStepEpsilonTest, InvertsAdvancedComposition) {
  const double total = 1.0;
  const double delta_prime = 1e-7;
  const size_t k = 500;
  auto per_step = PerStepEpsilonForAdvancedComposition(total, delta_prime, k);
  ASSERT_TRUE(per_step.ok());
  auto recomposed =
      AdvancedComposition({per_step.value(), 0.0}, k, delta_prime);
  ASSERT_TRUE(recomposed.ok());
  EXPECT_NEAR(recomposed.value().epsilon, total, 1e-6);
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
    // The library accountant applies the same rule.
    EXPECT_TRUE(PrivacyAccountant(budget).Charge({eps_in, 0.0}, "e").ok());
    EXPECT_FALSE(PrivacyAccountant(budget).Charge({eps_out, 0.0}, "e").ok());
    EXPECT_TRUE(PrivacyAccountant(budget).Charge({0.1, delta_in}, "d").ok());
    EXPECT_FALSE(PrivacyAccountant(budget).Charge({0.1, delta_out}, "d").ok());
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

TEST(PrivacyAccountantTest, ChargesWithinBudget) {
  PrivacyAccountant accountant({1.0, 1e-6});
  EXPECT_TRUE(accountant.Charge({0.4, 0.0}, "model-a").ok());
  EXPECT_TRUE(accountant.Charge({0.4, 5e-7}, "model-b").ok());
  EXPECT_EQ(accountant.num_charges(), 2u);
  EXPECT_NEAR(accountant.Spent().epsilon, 0.8, 1e-12);
  EXPECT_NEAR(accountant.Remaining().epsilon, 0.2, 1e-12);
}

TEST(PrivacyAccountantTest, RefusesOverBudgetEpsilon) {
  PrivacyAccountant accountant({1.0, 0.0});
  EXPECT_TRUE(accountant.Charge({0.9, 0.0}, "big").ok());
  Status refused = accountant.Charge({0.2, 0.0}, "too-much");
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
  // The refused charge is NOT recorded.
  EXPECT_EQ(accountant.num_charges(), 1u);
  EXPECT_NEAR(accountant.Spent().epsilon, 0.9, 1e-12);
}

TEST(PrivacyAccountantTest, RefusesOverBudgetDelta) {
  PrivacyAccountant accountant({10.0, 1e-6});
  EXPECT_TRUE(accountant.Charge({0.1, 9e-7}, "a").ok());
  EXPECT_FALSE(accountant.Charge({0.1, 5e-7}, "b").ok());
}

TEST(PrivacyAccountantTest, ExactlyExhaustingBudgetIsAllowed) {
  PrivacyAccountant accountant({1.0, 0.0});
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(accountant.Charge({0.1, 0.0}, "slice").ok()) << i;
  }
  EXPECT_FALSE(accountant.Charge({0.01, 0.0}, "extra").ok());
}

TEST(PrivacyAccountantTest, LedgerListsCharges) {
  PrivacyAccountant accountant({1.0, 0.0});
  accountant.Charge({0.25, 0.0}, "first-release").CheckOK();
  std::string ledger = accountant.LedgerToString();
  EXPECT_NE(ledger.find("first-release"), std::string::npos);
  EXPECT_NE(ledger.find("remaining"), std::string::npos);
}

TEST(PrivacyAccountantTest, InvalidChargeRejected) {
  PrivacyAccountant accountant({1.0, 0.0});
  EXPECT_FALSE(accountant.Charge({0.0, 0.0}, "zero-eps").ok());
  EXPECT_FALSE(accountant.Charge({-1.0, 0.0}, "negative").ok());
}

}  // namespace
}  // namespace bolton
