#ifndef BOLTON_ENGINE_PRIVATE_AGGREGATES_H_
#define BOLTON_ENGINE_PRIVATE_AGGREGATES_H_

#include "core/privacy.h"
#include "engine/table.h"
#include "random/rng.h"
#include "util/result.h"

namespace bolton {

/// Differentially private scalar/vector aggregates over engine tables.
///
/// Private SGD is one query an in-RDBMS analytics session asks; COUNT and
/// mean-style summaries are the others (§4.6's multi-query setting). These
/// helpers answer them under the same (ε, δ) machinery — Laplace for pure
/// ε-DP, Gaussian for (ε, δ)-DP — so a session can charge every release to
/// one budget account (serve::TenantBudgetManager, which `/v1/aggregate`
/// charges). Results are DP under the paper's neighboring
/// relation (replace one row), which keeps the table size m public: COUNT
/// is offered for completeness of the query surface, not because m needs
/// protecting under this relation.

/// A private release with its true value retained for diagnostics (the
/// true value is data-dependent: release only `noisy`).
struct PrivateScalar {
  double noisy = 0.0;
  double true_value = 0.0;  // diagnostic — do not release
};

/// Private row count. Under replace-one neighbors COUNT has sensitivity 0
/// (m is public), but the conventional add/remove-one semantics are what
/// callers usually want, so noise is calibrated to sensitivity 1.
Result<PrivateScalar> PrivateCount(const Table& table,
                                   const PrivacyParams& privacy, Rng* rng);

/// Private mean of one feature column. Requires the unit-ball
/// preprocessing (every |x_j| ≤ 1), giving replace-one sensitivity 2/m.
Result<PrivateScalar> PrivateFeatureMean(const Table& table, size_t column,
                                         const PrivacyParams& privacy,
                                         Rng* rng);

}  // namespace bolton

#endif  // BOLTON_ENGINE_PRIVATE_AGGREGATES_H_
