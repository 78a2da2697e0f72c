#include "core/privacy.h"

#include <cmath>

#include "util/logging.h"
#include "util/strings.h"

namespace bolton {

Status PrivacyParams::Validate() const {
  if (!(epsilon > 0.0) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument(
        StrFormat("epsilon must be finite and > 0; got %g", epsilon));
  }
  if (!(delta >= 0.0 && delta < 1.0)) {
    return Status::InvalidArgument(
        StrFormat("delta must be in [0, 1); got %g", delta));
  }
  return Status::OK();
}

PrivacyParams PrivacyParams::SplitEvenly(int parts) const {
  BOLTON_CHECK(parts >= 1);
  return PrivacyParams{epsilon / parts, delta / parts};
}

std::string PrivacyParams::ToString() const {
  if (IsPure()) return StrFormat("eps=%g", epsilon);
  return StrFormat("(eps=%g, delta=%g)", epsilon, delta);
}

bool FitsBudget(const PrivacyParams& committed, const PrivacyParams& cost,
                const PrivacyParams& budget) {
  constexpr double kTolerance = 1e-9;
  return committed.epsilon + cost.epsilon <=
             budget.epsilon * (1.0 + kTolerance) &&
         committed.delta + cost.delta <= budget.delta * (1.0 + kTolerance);
}

}  // namespace bolton
