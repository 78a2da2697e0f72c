#include "optim/psgd.h"

#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "random/permutation.h"
#include "util/cancellation.h"
#include "util/failpoint.h"
#include "util/strings.h"

namespace bolton {

namespace {

Status ValidateOptions(const Dataset& data, const PsgdOptions& options) {
  if (data.empty()) return Status::InvalidArgument("empty training set");
  if (options.passes < 1) return Status::InvalidArgument("passes must be >= 1");
  if (options.batch_size < 1) {
    return Status::InvalidArgument("batch_size must be >= 1");
  }
  if (options.batch_size > data.size()) {
    return Status::InvalidArgument(
        StrFormat("batch_size %zu exceeds training size %zu",
                  options.batch_size, data.size()));
  }
  if (options.radius <= 0.0) {
    return Status::InvalidArgument("radius must be > 0 (may be +inf)");
  }
  if (options.shards != 1) {
    return Status::InvalidArgument(
        "RunPsgd is the serial black box (shards must be 1); use "
        "RunShardedPsgd for shard-parallel execution");
  }
  return Status::OK();
}

}  // namespace

void FlushPsgdStats(const PsgdStats& stats) {
  static obs::Counter* gradient_evaluations =
      obs::MetricsRegistry::Default().GetCounter("gradient_evaluations");
  static obs::Counter* model_updates =
      obs::MetricsRegistry::Default().GetCounter("model_updates");
  static obs::Counter* noise_samples =
      obs::MetricsRegistry::Default().GetCounter("noise_samples");
  gradient_evaluations->Increment(stats.gradient_evaluations);
  model_updates->Increment(stats.updates);
  noise_samples->Increment(stats.noise_samples);
}

Result<PsgdOutput> RunPsgd(
    const Dataset& data, const LossFunction& loss,
    const StepSizeSchedule& schedule, const PsgdOptions& options, Rng* rng,
    GradientNoiseSource* noise,
    const std::function<void(size_t, const Vector&)>& pass_callback,
    const PsgdCheckpointPlan* checkpoint) {
  BOLTON_RETURN_IF_ERROR(ValidateOptions(data, options));
  const PsgdResumeState* resume =
      checkpoint != nullptr ? checkpoint->resume : nullptr;
  if (checkpoint != nullptr &&
      (checkpoint->every_passes > 0 || resume != nullptr) &&
      options.sampling != SamplingMode::kPermutation) {
    return Status::InvalidArgument(
        "checkpoint/resume requires permutation sampling (the resume "
        "contract replays the permutation stream)");
  }

  obs::ScopedSpan run_span("psgd.run");

  const size_t m = data.size();
  const size_t dim = data.dim();
  const size_t b = options.batch_size;
  const bool project = std::isfinite(options.radius);

  Vector w(dim);
  Vector grad(dim);
  Vector iterate_sum(dim);

  PsgdStats stats;
  std::vector<size_t> order;
  size_t step = 0;  // 1-based after increment; indexes the schedule
  size_t first_pass = 1;
  if (resume != nullptr) {
    if (resume->w.dim() != dim) {
      return Status::InvalidArgument(
          StrFormat("resume state dim %zu does not match data dim %zu",
                    resume->w.dim(), dim));
    }
    if (resume->completed_passes >= options.passes) {
      return Status::InvalidArgument(
          StrFormat("resume state already holds %zu of %zu passes",
                    resume->completed_passes, options.passes));
    }
    if (resume->order.size() != m) {
      return Status::InvalidArgument(
          StrFormat("resume permutation covers %zu of %zu examples",
                    resume->order.size(), m));
    }
    if (!resume->iterate_sum.empty() && resume->iterate_sum.dim() != dim) {
      return Status::InvalidArgument("resume iterate_sum dim mismatch");
    }
    w = resume->w;
    if (!resume->iterate_sum.empty()) iterate_sum = resume->iterate_sum;
    stats = resume->stats;
    step = resume->step;
    order = resume->order;
    rng->RestoreState(resume->rng);
    first_pass = resume->completed_passes + 1;
  } else if (options.sampling == SamplingMode::kPermutation) {
    obs::ScopedSpan shuffle_span("psgd.shuffle");
    order = RandomPermutation(m, rng);
  } else {
    order.resize(b);  // reused scratch for with-replacement draws
  }

  static obs::Histogram* pass_seconds = obs::MetricsRegistry::Default()
      .GetHistogram("psgd.pass_seconds", obs::LatencySecondsBuckets());

  for (size_t pass = first_pass; pass <= options.passes; ++pass) {
    BOLTON_FAILPOINT("psgd.pass");
    obs::ScopedSpan pass_span("psgd.pass");
    const uint64_t pass_start = obs::MonotonicNanos();
    if (options.sampling == SamplingMode::kPermutation && pass > 1 &&
        options.fresh_permutation_each_pass) {
      obs::ScopedSpan shuffle_span("psgd.shuffle");
      order = RandomPermutation(m, rng);
    }
    for (size_t begin = 0; begin < m; begin += b) {
      // Batch-boundary cancellation poll: a serve request whose deadline
      // passed (or whose daemon is draining) abandons the run here, before
      // any further work — and long before any noise draw.
      if (options.executor.cancel != nullptr &&
          options.executor.cancel->Cancelled()) {
        return options.executor.cancel->Check("psgd run");
      }
      const size_t batch_len =
          options.sampling == SamplingMode::kPermutation
              ? std::min(b, m - begin)
              : b;
      ++step;

      grad.SetZero();
      const double scale = 1.0 / static_cast<double>(batch_len);
      for (size_t j = 0; j < batch_len; ++j) {
        size_t idx;
        if (options.sampling == SamplingMode::kPermutation) {
          idx = order[begin + j];
        } else {
          idx = rng->UniformInt(m);
        }
        loss.AddGradient(w, data[idx], scale, &grad);
        ++stats.gradient_evaluations;
      }

      if (noise != nullptr) {
        BOLTON_ASSIGN_OR_RETURN(Vector z, noise->Sample(step, dim, rng));
        grad += z;
        ++stats.noise_samples;
      }

      const double eta = schedule.StepSize(step);
      if (!(eta > 0.0) || !std::isfinite(eta)) {
        return Status::InvalidArgument(
            StrFormat("schedule '%s' produced invalid step size %g at t=%zu",
                      schedule.name().c_str(), eta, step));
      }
      w.Axpy(-eta, grad);
      if (project) ProjectToL2BallInPlace(&w, options.radius);

      ++stats.updates;
      if (options.output == OutputMode::kAverageAll) iterate_sum += w;
    }
    pass_seconds->Observe(
        static_cast<double>(obs::MonotonicNanos() - pass_start) * 1e-9);
    if (pass_callback) pass_callback(pass, w);

    if (checkpoint != nullptr && checkpoint->every_passes > 0 &&
        checkpoint->sink && pass < options.passes &&
        pass % checkpoint->every_passes == 0) {
      obs::ScopedSpan checkpoint_span("psgd.checkpoint");
      PsgdResumeState snapshot;
      snapshot.completed_passes = pass;
      snapshot.step = step;
      snapshot.w = w;
      if (options.output == OutputMode::kAverageAll) {
        snapshot.iterate_sum = iterate_sum;
      }
      snapshot.stats = stats;
      snapshot.rng = rng->SaveState();
      snapshot.order = order;
      Status saved = checkpoint->sink(snapshot);
      if (!saved.ok()) {
        return saved.WithContext(
            StrFormat("checkpoint sink at pass %zu", pass));
      }
    }
  }

  FlushPsgdStats(stats);

  PsgdOutput out;
  out.stats = stats;
  if (options.output == OutputMode::kAverageAll && stats.updates > 0) {
    iterate_sum *= 1.0 / static_cast<double>(stats.updates);
    out.model = std::move(iterate_sum);
  } else {
    out.model = std::move(w);
  }
  return out;
}

}  // namespace bolton
