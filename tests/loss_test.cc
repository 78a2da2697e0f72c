#include "optim/loss.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "random/distributions.h"
#include "random/rng.h"

namespace bolton {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double LossAt(const LossFunction& loss, const Vector& w, const Example& e) {
  return loss.Loss(w, e.x, e.label);
}

Vector GradientAt(const LossFunction& loss, const Vector& w,
                  const Example& e) {
  return loss.Gradient(w, e.x, e.label);
}

// Central finite-difference gradient for validation.
Vector NumericGradient(const LossFunction& loss, const Vector& w,
                       const Example& e) {
  const double h = 1e-6;
  Vector grad(w.dim());
  for (size_t i = 0; i < w.dim(); ++i) {
    Vector plus = w, minus = w;
    plus[i] += h;
    minus[i] -= h;
    grad[i] = (LossAt(loss, plus, e) - LossAt(loss, minus, e)) / (2.0 * h);
  }
  return grad;
}

struct LossCase {
  std::string label;
  double lambda;
  double radius;
  enum Kind { kLogistic, kHuber, kSquared } kind;
};

std::unique_ptr<LossFunction> MakeCase(const LossCase& c) {
  switch (c.kind) {
    case LossCase::kLogistic:
      return MakeLogisticLoss(c.lambda, c.radius).MoveValue();
    case LossCase::kHuber:
      return MakeHuberSvmLoss(0.1, c.lambda, c.radius).MoveValue();
    case LossCase::kSquared:
      return MakeSquaredLoss(c.lambda, c.radius).MoveValue();
  }
  return nullptr;
}

class LossPropertyTest : public ::testing::TestWithParam<LossCase> {};

// The analytic gradient must agree with finite differences at random points.
TEST_P(LossPropertyTest, GradientMatchesFiniteDifference) {
  auto loss = MakeCase(GetParam());
  Rng rng(61);
  for (int trial = 0; trial < 20; ++trial) {
    Vector w = SampleGaussianVector(5, 0.5, &rng);
    Example e{SampleUnitSphere(5, &rng), (trial % 2 == 0) ? +1 : -1};
    Vector analytic = GradientAt(*loss, w, e);
    Vector numeric = NumericGradient(*loss, w, e);
    for (size_t i = 0; i < w.dim(); ++i) {
      EXPECT_NEAR(analytic[i], numeric[i], 1e-5)
          << GetParam().label << " coord " << i;
    }
  }
}

// First-order convexity: ℓ(u) ≥ ℓ(v) + ⟨∇ℓ(v), u − v⟩.
TEST_P(LossPropertyTest, FirstOrderConvexity) {
  auto loss = MakeCase(GetParam());
  Rng rng(62);
  for (int trial = 0; trial < 50; ++trial) {
    Vector u = SampleGaussianVector(4, 1.0, &rng);
    Vector v = SampleGaussianVector(4, 1.0, &rng);
    Example e{SampleUnitSphere(4, &rng), (trial % 2 == 0) ? +1 : -1};
    double lhs = LossAt(*loss, u, e);
    double rhs = LossAt(*loss, v, e) + Dot(GradientAt(*loss, v, e), u - v);
    EXPECT_GE(lhs, rhs - 1e-9) << GetParam().label;
  }
}

// β-smoothness: ‖∇ℓ(u) − ∇ℓ(v)‖ ≤ β‖u − v‖.
TEST_P(LossPropertyTest, GradientIsBetaSmooth) {
  auto loss = MakeCase(GetParam());
  const double beta = loss->smoothness();
  Rng rng(63);
  for (int trial = 0; trial < 50; ++trial) {
    Vector u = SampleGaussianVector(4, 1.0, &rng);
    Vector v = SampleGaussianVector(4, 1.0, &rng);
    Example e{SampleUnitSphere(4, &rng), +1};
    double grad_gap =
        Distance(GradientAt(*loss, u, e), GradientAt(*loss, v, e));
    EXPECT_LE(grad_gap, beta * Distance(u, v) + 1e-9) << GetParam().label;
  }
}

// L-Lipschitz loss ⟺ gradient norm bounded by L (within the radius).
TEST_P(LossPropertyTest, GradientNormWithinLipschitzConstant) {
  auto loss = MakeCase(GetParam());
  const double L = loss->lipschitz();
  Rng rng(64);
  for (int trial = 0; trial < 50; ++trial) {
    Vector w = SampleGaussianVector(4, 1.0, &rng);
    if (std::isfinite(loss->radius())) {
      ProjectToL2BallInPlace(&w, loss->radius());
    }
    Example e{SampleUnitSphere(4, &rng), (trial % 2 == 0) ? +1 : -1};
    EXPECT_LE(GradientAt(*loss, w, e).Norm(), L + 1e-9) << GetParam().label;
  }
}

// γ-strong convexity: ℓ(u) ≥ ℓ(v) + ⟨∇ℓ(v), u−v⟩ + (γ/2)‖u−v‖².
TEST_P(LossPropertyTest, StrongConvexityWhenRegularized) {
  auto loss = MakeCase(GetParam());
  const double gamma = loss->strong_convexity();
  if (gamma == 0.0) GTEST_SKIP() << "convex-only case";
  Rng rng(65);
  for (int trial = 0; trial < 50; ++trial) {
    Vector u = SampleGaussianVector(4, 1.0, &rng);
    Vector v = SampleGaussianVector(4, 1.0, &rng);
    Example e{SampleUnitSphere(4, &rng), +1};
    double gap = Distance(u, v);
    double lhs = LossAt(*loss, u, e);
    double rhs = LossAt(*loss, v, e) + Dot(GradientAt(*loss, v, e), u - v) +
                 0.5 * gamma * gap * gap;
    EXPECT_GE(lhs, rhs - 1e-9) << GetParam().label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllLosses, LossPropertyTest,
    ::testing::Values(
        LossCase{"logistic_convex", 0.0, kInf, LossCase::kLogistic},
        LossCase{"logistic_l2", 0.01, 100.0, LossCase::kLogistic},
        LossCase{"huber_convex", 0.0, kInf, LossCase::kHuber},
        LossCase{"huber_l2", 0.001, 1000.0, LossCase::kHuber},
        LossCase{"squared_l2", 0.01, 100.0, LossCase::kSquared}),
    [](const ::testing::TestParamInfo<LossCase>& info) {
      return info.param.label;
    });

TEST(LogisticLossTest, PaperConstantsConvex) {
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  EXPECT_DOUBLE_EQ(loss->lipschitz(), 1.0);
  EXPECT_DOUBLE_EQ(loss->smoothness(), 1.0);
  EXPECT_DOUBLE_EQ(loss->strong_convexity(), 0.0);
  EXPECT_FALSE(loss->IsStronglyConvex());
}

TEST(LogisticLossTest, PaperConstantsRegularized) {
  // §2: λ > 0, ‖w‖ ≤ R ⇒ L = 1 + λR, β = 1 + λ, γ = λ.
  const double lambda = 0.01, radius = 100.0;
  auto loss = MakeLogisticLoss(lambda, radius).MoveValue();
  EXPECT_DOUBLE_EQ(loss->lipschitz(), 1.0 + lambda * radius);
  EXPECT_DOUBLE_EQ(loss->smoothness(), 1.0 + lambda);
  EXPECT_DOUBLE_EQ(loss->strong_convexity(), lambda);
  EXPECT_TRUE(loss->IsStronglyConvex());
}

TEST(LogisticLossTest, ValueAtZeroIsLogTwo) {
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  Example e{Vector{0.5, 0.5}, +1};
  EXPECT_NEAR(LossAt(*loss, Vector(2), e), std::log(2.0), 1e-12);
}

TEST(LogisticLossTest, NumericallyStableAtExtremeMargins) {
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  Vector w{1000.0};
  Example pos{Vector{1.0}, +1};
  Example neg{Vector{1.0}, -1};
  EXPECT_NEAR(LossAt(*loss, w, pos), 0.0, 1e-12);
  EXPECT_NEAR(LossAt(*loss, w, neg), 1000.0, 1e-9);
  EXPECT_TRUE(std::isfinite(GradientAt(*loss, w, neg)[0]));
}

TEST(HuberSvmLossTest, PaperConstants) {
  // Appendix B: L ≤ 1, β ≤ 1/(2h).
  auto loss = MakeHuberSvmLoss(0.1, 0.0, kInf).MoveValue();
  EXPECT_DOUBLE_EQ(loss->lipschitz(), 1.0);
  EXPECT_DOUBLE_EQ(loss->smoothness(), 5.0);
}

TEST(HuberSvmLossTest, ThreeRegimes) {
  auto loss = MakeHuberSvmLoss(0.1, 0.0, kInf).MoveValue();
  // z = y⟨w,x⟩ with x = (1), y = +1, so z = w₀.
  Example e{Vector{1.0}, +1};
  EXPECT_DOUBLE_EQ(LossAt(*loss, Vector{2.0}, e), 0.0);        // z > 1+h
  EXPECT_DOUBLE_EQ(LossAt(*loss, Vector{0.0}, e), 1.0);        // z < 1−h
  // |1−z| ≤ h: value (1+h−z)²/(4h) at z=1 is h/4.
  EXPECT_NEAR(LossAt(*loss, Vector{1.0}, e), 0.1 / 4.0, 1e-12);
  // Gradient is 0 / −y x / interpolated in the three regimes.
  EXPECT_DOUBLE_EQ(GradientAt(*loss, Vector{2.0}, e)[0], 0.0);
  EXPECT_DOUBLE_EQ(GradientAt(*loss, Vector{0.0}, e)[0], -1.0);
}

TEST(HuberSvmLossTest, ContinuousAtRegimeBoundaries) {
  auto loss = MakeHuberSvmLoss(0.1, 0.0, kInf).MoveValue();
  Example e{Vector{1.0}, +1};
  const double eps = 1e-9;
  EXPECT_NEAR(LossAt(*loss, Vector{1.1 - eps}, e),
              LossAt(*loss, Vector{1.1 + eps}, e), 1e-7);
  EXPECT_NEAR(LossAt(*loss, Vector{0.9 - eps}, e),
              LossAt(*loss, Vector{0.9 + eps}, e), 1e-7);
}

TEST(LossValidationTest, RejectsBadArguments) {
  EXPECT_FALSE(MakeLogisticLoss(-0.1, kInf).ok());
  // λ > 0 with infinite radius: the Lipschitz constant would be unbounded.
  EXPECT_FALSE(MakeLogisticLoss(0.1, kInf).ok());
  EXPECT_FALSE(MakeHuberSvmLoss(0.0, 0.0, kInf).ok());
  EXPECT_FALSE(MakeHuberSvmLoss(1.0, 0.0, kInf).ok());
  EXPECT_FALSE(MakeSquaredLoss(0.0, kInf).ok());  // needs finite radius
  EXPECT_TRUE(MakeSquaredLoss(0.0, 10.0).ok());
}

TEST(EmpiricalRiskTest, AveragesLosses) {
  auto loss = MakeLogisticLoss(0.0, kInf).MoveValue();
  Dataset ds(1, 2);
  ds.Add(Example{Vector{1.0}, +1});
  ds.Add(Example{Vector{1.0}, -1});
  Vector w{0.0};
  EXPECT_NEAR(loss->EmpiricalRisk(w, ds), std::log(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(loss->EmpiricalRisk(w, Dataset(1, 2)), 0.0);
}

}  // namespace
}  // namespace bolton
