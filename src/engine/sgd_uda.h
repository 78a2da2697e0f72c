#ifndef BOLTON_ENGINE_SGD_UDA_H_
#define BOLTON_ENGINE_SGD_UDA_H_

#include <cstddef>
#include <limits>
#include <vector>

#include "engine/uda.h"
#include "optim/loss.h"
#include "optim/psgd.h"
#include "optim/schedule.h"
#include "random/rng.h"
#include "util/result.h"

namespace bolton {

/// Configuration of the in-engine SGD aggregate.
struct SgdUdaOptions {
  /// Mini-batch size; updates fire every `batch_size` transitions (plus a
  /// flush of any partial batch at Terminate, matching Bismarck).
  size_t batch_size = 1;
  /// Projection radius (rule (7)); +inf disables projection.
  double radius = std::numeric_limits<double>::infinity();
};

/// The SGD UDA of Figure 1: aggregation state is the model vector w plus
/// the current mini-batch's rows; there is no gradient accumulator. The
/// rows before the one that completes a batch are copied (a disk scan's
/// row dies when Transition returns); that last row is read in place,
/// and the batch is stepped by PsgdBatchStep, RunPsgd's own step, while
/// the scan still holds it. So over the same row order a noiseless run
/// releases RunPsgd's exact bits. `noise` is the white-box extension point
/// (Figure 1C) — when non-null, every mini-batch update first draws a
/// noise vector and adds it to the averaged gradient, exactly the deep
/// change SCS13/BST14 require inside the transition function. The bolt-on
/// algorithms leave it null.
class SgdUda final : public Uda {
 public:
  /// `loss` and `schedule` must outlive the UDA. The UDA owns no data.
  SgdUda(const LossFunction& loss, const StepSizeSchedule& schedule,
         const SgdUdaOptions& options, GradientNoiseSource* noise = nullptr,
         Rng* noise_rng = nullptr);

  void Initialize(const Vector& state) override;
  void Transition(const Example& row) override;
  Vector Terminate() override;

  /// Cross-epoch counters (for the runtime benches).
  const PsgdStats& stats() const { return stats_; }

  /// The first error encountered while sampling white-box noise, if any.
  /// The UDA interface cannot return Status from Transition, so errors are
  /// latched here and surfaced by the driver after the epoch.
  const Status& status() const { return status_; }

 private:
  /// Steps the batch: the copied rows, then `last` (null at Terminate).
  void ApplyUpdate(const Example* last);

  const LossFunction& loss_;
  const StepSizeSchedule& schedule_;
  SgdUdaOptions options_;
  GradientNoiseSource* noise_;
  Rng* noise_rng_;

  Vector model_;
  // The batch: copies of its rows' features (dim each) before the last
  // one, every row's label, then the step's row pointers and coefficients.
  std::vector<double> copies_;
  std::vector<double> labels_;
  std::vector<const double*> rows_;
  std::vector<double> coeffs_;
  size_t step_ = 0;  // global update counter across epochs
  PsgdStats stats_;
  Status status_;
};

}  // namespace bolton

#endif  // BOLTON_ENGINE_SGD_UDA_H_
