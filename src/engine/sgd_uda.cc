#include "engine/sgd_uda.h"

#include <cmath>

#include "util/strings.h"

namespace bolton {

SgdUda::SgdUda(const LossFunction& loss, const StepSizeSchedule& schedule,
               const SgdUdaOptions& options, GradientNoiseSource* noise,
               Rng* noise_rng)
    : loss_(loss),
      schedule_(schedule),
      options_(options),
      noise_(noise),
      noise_rng_(noise_rng) {
  BOLTON_CHECK(options_.batch_size >= 1);
  BOLTON_CHECK(noise_ == nullptr || noise_rng_ != nullptr);
}

void SgdUda::Initialize(const Vector& state) {
  model_ = state;
  batch_grad_ = Vector(state.dim());
  batch_fill_ = 0;
}

void SgdUda::Transition(const Example& row) {
  if (!status_.ok()) return;
  loss_.AddGradient(model_, row, 1.0, &batch_grad_);
  ++stats_.gradient_evaluations;
  ++batch_fill_;
  if (batch_fill_ == options_.batch_size) ApplyUpdate();
}

Vector SgdUda::Terminate() {
  // Flush a trailing partial batch, as Bismarck's terminate function does.
  if (status_.ok() && batch_fill_ > 0) ApplyUpdate();
  return model_;
}

void SgdUda::ApplyUpdate() {
  ++step_;
  batch_grad_ *= 1.0 / static_cast<double>(batch_fill_);
  if (noise_ != nullptr) {
    auto z = noise_->Sample(step_, model_.dim(), noise_rng_);
    if (!z.ok()) {
      status_ = z.status().WithContext("white-box noise at transition");
      return;
    }
    batch_grad_ += z.value();
    ++stats_.noise_samples;
  }
  double eta = schedule_.StepSize(step_);
  model_.Axpy(-eta, batch_grad_);
  if (std::isfinite(options_.radius)) {
    ProjectToL2BallInPlace(&model_, options_.radius);
  }
  ++stats_.updates;
  batch_grad_.SetZero();
  batch_fill_ = 0;
}

}  // namespace bolton
