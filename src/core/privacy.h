#ifndef BOLTON_CORE_PRIVACY_H_
#define BOLTON_CORE_PRIVACY_H_

#include <string>

#include "util/result.h"

namespace bolton {

/// A differential-privacy budget (ε, δ). δ = 0 means pure ε-DP.
struct PrivacyParams {
  double epsilon = 1.0;
  double delta = 0.0;

  /// True for pure ε-differential privacy.
  bool IsPure() const { return delta == 0.0; }

  /// Validates a finite ε > 0 and δ ∈ [0, 1), refusing NaN in either. For
  /// (ε, δ)-DP via the Gaussian mechanism (Theorem 3) the caller must
  /// additionally have ε < 1, which the noise sampler enforces.
  Status Validate() const;

  /// Splits the budget evenly across `parts` sub-computations using basic
  /// composition (the paper's §4.3 multiclass strategy: "we used the
  /// simplest composition theorem and divide the privacy budget evenly").
  PrivacyParams SplitEvenly(int parts) const;

  std::string ToString() const;
};

/// The over-budget rule under basic composition: spending `cost` on top of
/// `committed` fits when committed + cost ≤ budget·(1 + 10⁻⁹) in ε and in δ.
/// The tolerance, one part in 10⁹ of the budget, absorbs float accumulation;
/// nothing is clamped, so a spend past the line fits nothing, nor does a NaN.
bool FitsBudget(const PrivacyParams& committed, const PrivacyParams& cost,
                const PrivacyParams& budget);

}  // namespace bolton

#endif  // BOLTON_CORE_PRIVACY_H_
