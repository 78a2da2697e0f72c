#include "core/accountant.h"

#include <algorithm>
#include <cmath>

#include "core/bst14.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "util/strings.h"

namespace bolton {

namespace {

/// One auditable ledger event per well-formed Charge() call, accepted or
/// not, plus running spend gauges.
void RecordChargeTelemetry(const PrivacyParams& cost, const std::string& label,
                           const PrivacyParams& spent_after, bool accepted) {
  static obs::Counter* accepted_count =
      obs::MetricsRegistry::Default().GetCounter("accountant.charges");
  static obs::Counter* rejected_count =
      obs::MetricsRegistry::Default().GetCounter("accountant.rejected");
  static obs::Gauge* epsilon_spent =
      obs::MetricsRegistry::Default().GetGauge("privacy.epsilon_spent");
  static obs::Gauge* delta_spent =
      obs::MetricsRegistry::Default().GetGauge("privacy.delta_spent");
  (accepted ? accepted_count : rejected_count)->Increment();
  if (accepted) {
    epsilon_spent->Set(spent_after.epsilon);
    delta_spent->Set(spent_after.delta);
  }

  obs::PrivacyLedger& ledger = obs::PrivacyLedger::Default();
  if (!ledger.enabled()) return;
  ledger.Record({.kind = "accountant_charge", .label = label,
                 .epsilon = cost.epsilon, .delta = cost.delta,
                 .accepted = accepted});
}

}  // namespace

PrivacyParams BasicComposition(const std::vector<PrivacyParams>& parts) {
  PrivacyParams total{0.0, 0.0};
  for (const PrivacyParams& p : parts) {
    total.epsilon += p.epsilon;
    total.delta += p.delta;
  }
  return total;
}

Result<PrivacyParams> AdvancedComposition(const PrivacyParams& per_step,
                                          size_t k, double delta_prime) {
  BOLTON_RETURN_IF_ERROR(per_step.Validate());
  if (delta_prime <= 0.0 || delta_prime >= 1.0) {
    return Status::InvalidArgument("delta_prime must be in (0, 1)");
  }
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  const double kd = static_cast<double>(k);
  const double eps = per_step.epsilon;
  PrivacyParams total;
  total.epsilon = std::sqrt(2.0 * kd * std::log(1.0 / delta_prime)) * eps +
                  kd * eps * std::expm1(eps);
  total.delta = kd * per_step.delta + delta_prime;
  return total;
}

Result<double> PerStepEpsilonForAdvancedComposition(double total_epsilon,
                                                    double delta_prime,
                                                    size_t k) {
  // The BST14 line-5 solve IS this inversion; reuse it.
  return SolveBst14Epsilon1(total_epsilon, delta_prime, k);
}

PrivacyParams ParallelComposition(const std::vector<PrivacyParams>& parts) {
  PrivacyParams total{0.0, 0.0};
  for (const PrivacyParams& p : parts) {
    total.epsilon = std::max(total.epsilon, p.epsilon);
    total.delta = std::max(total.delta, p.delta);
  }
  return total;
}

PrivacyAccountant::PrivacyAccountant(PrivacyParams total_budget)
    : budget_(total_budget) {}

Status PrivacyAccountant::Charge(const PrivacyParams& cost,
                                 const std::string& label) {
  BOLTON_RETURN_IF_ERROR(cost.Validate());
  const PrivacyParams spent = Spent();
  if (!FitsBudget(spent, cost, budget_)) {
    RecordChargeTelemetry(cost, label, spent, /*accepted=*/false);
    return Status::FailedPrecondition(StrFormat(
        "charge '%s' (eps=%g, delta=%g) exceeds remaining budget "
        "(eps=%g, delta=%g)",
        label.c_str(), cost.epsilon, cost.delta, Remaining().epsilon,
        Remaining().delta));
  }
  charges_.push_back(Charged{cost, label});
  RecordChargeTelemetry(cost, label, Spent(), /*accepted=*/true);
  return Status::OK();
}

PrivacyParams PrivacyAccountant::Spent() const {
  PrivacyParams total{0.0, 0.0};
  for (const Charged& c : charges_) {
    total.epsilon += c.cost.epsilon;
    total.delta += c.cost.delta;
  }
  return total;
}

PrivacyParams PrivacyAccountant::Remaining() const {
  PrivacyParams spent = Spent();
  return PrivacyParams{std::max(0.0, budget_.epsilon - spent.epsilon),
                       std::max(0.0, budget_.delta - spent.delta)};
}

std::string PrivacyAccountant::LedgerToString() const {
  std::string out = StrFormat("budget: %s\n", budget_.ToString().c_str());
  for (const Charged& c : charges_) {
    out += StrFormat("  %-24s %s\n", c.label.c_str(),
                     c.cost.ToString().c_str());
  }
  out += StrFormat("spent: %s, remaining: %s\n",
                   Spent().ToString().c_str(),
                   Remaining().ToString().c_str());
  return out;
}

}  // namespace bolton
