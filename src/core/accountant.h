#ifndef BOLTON_CORE_ACCOUNTANT_H_
#define BOLTON_CORE_ACCOUNTANT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/privacy.h"
#include "util/result.h"

namespace bolton {

/// Composition calculators for (ε, δ)-differential privacy.
///
/// The paper's §4.6 notes that a deployed analytics system answers many
/// private queries and must split its budget across them; this header
/// provides the standard tools for that bookkeeping. BST14's per-iteration
/// calibration (Algorithms 4/5, line 5) is an inverted use of
/// `AdvancedComposition`.

/// Basic (sequential) composition: k mechanisms, each (ε_i, δ_i)-DP, run on
/// the same data compose to (Σε_i, Σδ_i)-DP.
PrivacyParams BasicComposition(const std::vector<PrivacyParams>& parts);

/// Advanced composition (Dwork–Roth Thm 3.20): k runs of an (ε, δ)-DP
/// mechanism are (ε', kδ + δ')-DP with
///   ε' = √(2k ln(1/δ')) ε + k ε (e^ε − 1).
/// Requires δ' ∈ (0, 1).
Result<PrivacyParams> AdvancedComposition(const PrivacyParams& per_step,
                                          size_t k, double delta_prime);

/// Inverse of advanced composition: the largest per-step ε such that k
/// steps compose to at most `total` ε (with slack δ'). This is exactly the
/// ε₁ solve of BST14's line 5 (re-exported here for general use).
Result<double> PerStepEpsilonForAdvancedComposition(double total_epsilon,
                                                    double delta_prime,
                                                    size_t k);

/// Parallel composition: mechanisms applied to DISJOINT data partitions
/// compose to the max of their budgets (used implicitly by one-pass SCS13
/// and by Algorithm 3's per-portion training).
PrivacyParams ParallelComposition(const std::vector<PrivacyParams>& parts);

/// A budget ledger for multi-query sessions: construct with the total
/// budget, `Charge` each private release, and the accountant refuses
/// charges that would exceed the budget under basic composition
/// (`FitsBudget`, core/privacy.h).
///
///     PrivacyAccountant accountant({1.0, 1e-6});
///     BOLTON_RETURN_IF_ERROR(accountant.Charge({0.3, 0.0}, "model-v1"));
class PrivacyAccountant {
 public:
  explicit PrivacyAccountant(PrivacyParams total_budget);

  /// Records a charge. Fails with FailedPrecondition (and records nothing)
  /// if the charge does not fit what is left (`FitsBudget`).
  Status Charge(const PrivacyParams& cost, const std::string& label);

  /// Budget consumed so far (basic composition over all charges).
  PrivacyParams Spent() const;

  /// Budget still available.
  PrivacyParams Remaining() const;

  /// Number of recorded charges.
  size_t num_charges() const { return charges_.size(); }

  /// Human-readable ledger, one line per charge.
  std::string LedgerToString() const;

 private:
  struct Charged {
    PrivacyParams cost;
    std::string label;
  };

  PrivacyParams budget_;
  std::vector<Charged> charges_;
};

}  // namespace bolton

#endif  // BOLTON_CORE_ACCOUNTANT_H_
