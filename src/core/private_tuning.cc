#include "core/private_tuning.h"

#include <cmath>
#include <limits>

#include "util/logging.h"
#include "util/strings.h"

namespace bolton {

namespace {

// Binary sign errors of a linear model: the χ_i of Algorithm 3.
size_t CountBinarySignErrors(const Vector& model, const Dataset& validation) {
  size_t errors = 0;
  for (size_t i = 0; i < validation.size(); ++i) {
    const Example& e = validation[i];
    double score = Dot(model, e.x);
    int predicted = score >= 0.0 ? +1 : -1;
    if (predicted != e.label) ++errors;
  }
  return errors;
}

}  // namespace

// Stabilized by subtracting the max logit before exponentiation.
size_t SampleExponentialMechanism(const std::vector<size_t>& error_counts,
                                  double epsilon, Rng* rng) {
  BOLTON_CHECK(!error_counts.empty());
  std::vector<double> logits(error_counts.size());
  double max_logit = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < error_counts.size(); ++i) {
    logits[i] = -epsilon * static_cast<double>(error_counts[i]) / 2.0;
    max_logit = std::max(max_logit, logits[i]);
  }
  double total = 0.0;
  for (double& logit : logits) {
    logit = std::exp(logit - max_logit);
    total += logit;
  }
  double u = rng->UniformDouble() * total;
  double cumulative = 0.0;
  for (size_t i = 0; i < logits.size(); ++i) {
    cumulative += logits[i];
    if (u < cumulative) return i;
  }
  return logits.size() - 1;
}

std::vector<TuningCandidate> MakeTuningGrid(
    const std::vector<size_t>& passes, const std::vector<size_t>& batch_sizes,
    const std::vector<double>& lambdas) {
  std::vector<TuningCandidate> grid;
  grid.reserve(passes.size() * batch_sizes.size() * lambdas.size());
  for (size_t k : passes) {
    for (size_t b : batch_sizes) {
      for (double lambda : lambdas) {
        grid.push_back(TuningCandidate{k, b, lambda});
      }
    }
  }
  return grid;
}

Result<TuningOutput> PrivatelyTunedSgd(const Dataset& data,
                                       const std::vector<TuningCandidate>& grid,
                                       const PrivacyParams& privacy,
                                       const TuningTrainFn& train, Rng* rng) {
  BOLTON_RETURN_IF_ERROR(privacy.Validate());
  if (grid.empty()) return Status::InvalidArgument("empty tuning grid");
  if (!train) return Status::InvalidArgument("null train function");
  const size_t l = grid.size();
  if (data.size() < l + 1) {
    return Status::InvalidArgument(
        StrFormat("need at least %zu examples to tune %zu candidates",
                  l + 1, l));
  }

  // Line 2: split S into l+1 equal portions.
  std::vector<Dataset> portions = data.SplitEven(l + 1);
  const Dataset& holdout = portions.back();

  // Line 3: train w_i on S_i with θ_i.  Line 4: count errors on S_{l+1}.
  std::vector<Vector> models;
  std::vector<size_t> error_counts;
  models.reserve(l);
  error_counts.reserve(l);
  for (size_t i = 0; i < l; ++i) {
    Rng candidate_rng = rng->Split();
    BOLTON_ASSIGN_OR_RETURN(Vector w, train(portions[i], grid[i],
                                            &candidate_rng));
    error_counts.push_back(CountBinarySignErrors(w, holdout));
    models.push_back(std::move(w));
  }

  // Line 5: exponential mechanism over the error counts.
  size_t chosen =
      SampleExponentialMechanism(error_counts, privacy.epsilon, rng);

  TuningOutput out;
  out.model = std::move(models[chosen]);
  out.selected_index = chosen;
  out.error_counts = std::move(error_counts);
  return out;
}

Result<TuningOutput> PublicGridSearch(const Dataset& train_data,
                                      const Dataset& validation,
                                      const std::vector<TuningCandidate>& grid,
                                      const TuningTrainFn& train, Rng* rng) {
  if (grid.empty()) return Status::InvalidArgument("empty tuning grid");
  if (!train) return Status::InvalidArgument("null train function");
  if (validation.empty()) {
    return Status::InvalidArgument("empty validation set");
  }

  TuningOutput out;
  size_t best_errors = std::numeric_limits<size_t>::max();
  for (size_t i = 0; i < grid.size(); ++i) {
    Rng candidate_rng = rng->Split();
    BOLTON_ASSIGN_OR_RETURN(Vector w,
                            train(train_data, grid[i], &candidate_rng));
    size_t e = CountBinarySignErrors(w, validation);
    out.error_counts.push_back(e);
    if (e < best_errors) {
      best_errors = e;
      out.selected_index = i;
      out.model = std::move(w);
    }
  }
  return out;
}

}  // namespace bolton
