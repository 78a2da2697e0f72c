#include "optim/gradient_ops.h"

#include <algorithm>

#include "util/strings.h"

namespace bolton {

Vector GradientUpdate(const LossFunction& loss, const Example& example,
                      double eta, const Vector& w) {
  Vector out = w;
  loss.AddGradient(w, example.x, example.label, -eta, &out);
  return out;
}

Result<double> ExpansivenessBound(const LossFunction& loss, double eta) {
  if (eta <= 0.0) return Status::InvalidArgument("eta must be > 0");
  const double beta = loss.smoothness();
  const double gamma = loss.strong_convexity();
  if (gamma == 0.0) {
    if (eta > 2.0 / beta) {
      return Status::InvalidArgument(StrFormat(
          "eta=%g exceeds 2/beta=%g; Lemma 1.1 does not apply", eta,
          2.0 / beta));
    }
    return 1.0;
  }
  if (eta <= 1.0 / beta) {
    return 1.0 - eta * gamma;  // Lemma 2
  }
  if (eta <= 2.0 / (beta + gamma)) {
    return 1.0 - 2.0 * eta * beta * gamma / (beta + gamma);  // Lemma 1.2
  }
  return Status::InvalidArgument(StrFormat(
      "eta=%g exceeds 2/(beta+gamma)=%g; expansiveness lemmas do not apply",
      eta, 2.0 / (beta + gamma)));
}

double BoundednessBound(const LossFunction& loss, double eta) {
  return eta * loss.lipschitz();
}

double GrowthRecursionStep(double delta_prev, double rho, double sigma,
                           bool same_operator) {
  if (same_operator) return rho * delta_prev;
  return std::min(rho, 1.0) * delta_prev + 2.0 * sigma;
}

}  // namespace bolton
