#include "engine/driver.h"

#include <algorithm>

#include "engine/sgd_uda.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace bolton {

Result<DriverOutput> RunSgdDriver(Table* table, const LossFunction& loss,
                                  const StepSizeSchedule& schedule,
                                  const DriverOptions& options, Rng* rng,
                                  GradientNoiseSource* noise) {
  if (table == nullptr) return Status::InvalidArgument("null table");
  if (table->num_rows() == 0) return Status::InvalidArgument("empty table");
  if (options.max_epochs < 1) {
    return Status::InvalidArgument("max_epochs must be >= 1");
  }
  if (options.batch_size < 1 || options.batch_size > table->num_rows()) {
    return Status::InvalidArgument("batch_size must be in [1, num_rows]");
  }

  obs::ScopedSpan run_span("engine.run");
  static obs::Counter* shuffles =
      obs::MetricsRegistry::Default().GetCounter("table_shuffles");
  static obs::Counter* epochs_run =
      obs::MetricsRegistry::Default().GetCounter("epochs_run");
  static obs::Histogram* epoch_seconds = obs::MetricsRegistry::Default()
      .GetHistogram("engine.epoch_seconds", obs::LatencySecondsBuckets());

  {
    // ORDER BY RANDOM(): one materialized shuffle before the epoch loop.
    obs::ScopedSpan shuffle_span("engine.shuffle");
    BOLTON_RETURN_IF_ERROR(table->Shuffle(rng));
    shuffles->Increment();
  }

  SgdUdaOptions uda_options;
  uda_options.batch_size = options.batch_size;
  uda_options.radius = options.radius;
  Rng noise_rng = rng->Split();
  SgdUda uda(loss, schedule, uda_options, noise,
             noise != nullptr ? &noise_rng : nullptr);

  DriverOutput out;
  Vector model(table->dim());
  for (size_t epoch = 1; epoch <= options.max_epochs; ++epoch) {
    obs::ScopedSpan epoch_span("engine.epoch");
    Stopwatch watch;
    uda.Initialize(model);
    {
      obs::ScopedSpan scan_span("engine.scan");
      BOLTON_RETURN_IF_ERROR(
          table->Scan([&uda](const Example& row) { uda.Transition(row); }));
    }
    Vector next;
    {
      obs::ScopedSpan terminate_span("engine.terminate");
      next = uda.Terminate();
    }
    BOLTON_RETURN_IF_ERROR(uda.status());
    const double seconds = watch.ElapsedSeconds();
    epoch_seconds->Observe(seconds);
    epochs_run->Increment();
    out.epoch_seconds.push_back(seconds);
    out.epochs_run = epoch;

    if (options.tolerance > 0.0) {
      double movement =
          Distance(next, model) / std::max(1.0, model.Norm());
      model = std::move(next);
      if (movement < options.tolerance) break;
    } else {
      model = std::move(next);
    }
  }
  out.model = std::move(model);
  out.stats = uda.stats();
  FlushPsgdStats(out.stats);
  return out;
}

}  // namespace bolton
