#include "engine/bolt_on_driver.h"

#include <utility>

#include "core/sensitivity.h"
#include "obs/trace.h"

namespace bolton {

Result<BoltOnDriverOutput> RunBoltOnPrivateDriver(Table* table,
                                                  const LossFunction& loss,
                                                  const BoltOnOptions& options,
                                                  double tolerance, Rng* rng) {
  if (table == nullptr) return Status::InvalidArgument("null table");
  if (options.shards != 1) {
    // Δ₂ below is the serial run's; a sharded bound on a serial run would
    // be unsound, and the engine runs one scan at a time.
    return Status::InvalidArgument(
        "the engine's bolt-on driver is serial (shards must be 1)");
  }
  const size_t m = table->num_rows();
  BOLTON_ASSIGN_OR_RETURN(BlackBoxPlan plan,
                          PlanBlackBoxRun(loss, m, options, /*bolt_on=*/true));
  if (tolerance > 0.0 && !loss.IsStronglyConvex()) {
    // Algorithm 1 on the engine: the epoch count enters the sensitivity, so
    // it must be fixed up front.
    return Status::FailedPrecondition(
        "convex bolt-on training must run a fixed number of epochs; "
        "convergence-based stopping would leak the realized pass count "
        "into the sensitivity (see Lemma 6)");
  }

  obs::ScopedSpan train_span("bolton.train");

  // --- The unmodified black box: the engine's SGD driver. ---
  DriverOptions driver_options;
  driver_options.max_epochs = options.passes;
  driver_options.tolerance = tolerance;
  driver_options.batch_size = options.batch_size;
  driver_options.radius = loss.radius();
  BOLTON_ASSIGN_OR_RETURN(
      DriverOutput run,
      RunSgdDriver(table, loss, *plan.schedule, driver_options, rng));

  // --- The bolt-on: compute Δ₂ for the run that actually happened, draw
  // one noise vector, add it in the front end. ---
  BOLTON_ASSIGN_OR_RETURN(
      double sensitivity,
      BoltOnSensitivity(loss, plan.eta,
                        SensitivitySetup{run.epochs_run, options.batch_size, m},
                        /*shards=*/1,
                        options.use_corrected_minibatch_sensitivity,
                        options.privacy));

  BoltOnDriverOutput out;
  {
    obs::ScopedSpan perturb_span("bolton.perturb");
    BOLTON_ASSIGN_OR_RETURN(
        out.private_output,
        BoltOnPerturb(run.model, sensitivity, options.privacy, rng));
  }
  out.private_output.stats = run.stats;
  out.driver = std::move(run);
  return out;
}

}  // namespace bolton
