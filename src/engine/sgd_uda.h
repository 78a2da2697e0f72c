#ifndef BOLTON_ENGINE_SGD_UDA_H_
#define BOLTON_ENGINE_SGD_UDA_H_

#include <cstddef>
#include <limits>

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

/// The SGD UDA of Figure 1: aggregation state is the model vector w plus a
/// mini-batch gradient accumulator. `noise` is the white-box extension
/// point (Figure 1C) — when non-null, every mini-batch update first draws a
/// noise vector and adds it to the averaged gradient, exactly the deep
/// change SCS13/BST14 require inside the transition function. The bolt-on
/// algorithms leave it null and the UDA byte-for-byte matches noiseless SGD.
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
  void ApplyUpdate();

  const LossFunction& loss_;
  const StepSizeSchedule& schedule_;
  SgdUdaOptions options_;
  GradientNoiseSource* noise_;
  Rng* noise_rng_;

  Vector model_;
  Vector batch_grad_;
  size_t batch_fill_ = 0;
  size_t step_ = 0;  // global update counter across epochs
  PsgdStats stats_;
  Status status_;
};

}  // namespace bolton

#endif  // BOLTON_ENGINE_SGD_UDA_H_
