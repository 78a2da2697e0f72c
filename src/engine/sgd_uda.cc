#include "engine/sgd_uda.h"

#include "util/logging.h"

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
  copies_.clear();
  labels_.clear();
}

void SgdUda::Transition(const Example& row) {
  if (!status_.ok()) return;
  ++stats_.gradient_evaluations;
  labels_.push_back(row.label);
  if (labels_.size() == options_.batch_size) {
    ApplyUpdate(&row);
  } else {
    copies_.insert(copies_.end(), row.x.data(), row.x.data() + row.x.dim());
  }
}

Vector SgdUda::Terminate() {
  // Flush a trailing partial batch, as Bismarck's terminate function does.
  if (status_.ok() && !labels_.empty()) ApplyUpdate(nullptr);
  return model_;
}

void SgdUda::ApplyUpdate(const Example* last) {
  ++step_;
  Vector z;
  if (noise_ != nullptr) {
    auto sampled = noise_->Sample(step_, model_.dim(), noise_rng_);
    if (!sampled.ok()) {
      status_ = sampled.status().WithContext("white-box noise at transition");
      return;
    }
    z = sampled.MoveValue();
    ++stats_.noise_samples;
  }
  const size_t copied = labels_.size() - (last != nullptr ? 1 : 0);
  rows_.clear();
  for (size_t k = 0; k < copied; ++k) {
    rows_.push_back(copies_.data() + k * model_.dim());
  }
  if (last != nullptr) rows_.push_back(last->x.data());
  PsgdBatchStep(loss_, rows_.data(), labels_.data(), labels_.size(),
                -schedule_.StepSize(step_), noise_ != nullptr ? &z : nullptr,
                options_.radius, &coeffs_, &model_);
  ++stats_.updates;
  copies_.clear();
  labels_.clear();
}

}  // namespace bolton
