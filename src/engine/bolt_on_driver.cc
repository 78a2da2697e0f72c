#include "engine/bolt_on_driver.h"

#include <utility>

#include "core/sensitivity.h"
#include "obs/trace.h"
#include "optim/parallel_executor.h"

namespace bolton {

Result<BoltOnDriverOutput> RunBoltOnPrivateDriver(Table* table,
                                                  const LossFunction& loss,
                                                  const BoltOnOptions& options,
                                                  double tolerance, Rng* rng) {
  if (table == nullptr) return Status::InvalidArgument("null table");
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
  if (tolerance > 0.0 && options.shards > 1) {
    // Algorithm 2's k-oblivious sensitivity allows the convergence test,
    // but only the serial driver runs it.
    return Status::FailedPrecondition(
        "sharded bolt-on training runs a fixed number of epochs per "
        "shard; convergence-based stopping is serial-only (shards=1)");
  }

  obs::ScopedSpan train_span("bolton.train");

  // --- The unmodified black box: the serial engine driver, or s parallel
  // copies of it over disjoint shards (Lemma 10). The sharded run
  // materializes the table and hands it to RunShardedPsgd; its per-shard
  // epoch instrumentation is not surfaced, so it reports exactly
  // options.passes epochs. ---
  DriverOutput run;
  if (options.shards > 1) {
    BOLTON_ASSIGN_OR_RETURN(Dataset data, table->ToDataset());
    BOLTON_ASSIGN_OR_RETURN(
        ShardedPsgdOutput sharded,
        RunShardedPsgd(data, loss, *plan.schedule, plan.psgd, rng));
    run.model = std::move(sharded.model);
    run.epochs_run = options.passes;
    run.stats = sharded.stats;
  } else {
    DriverOptions driver_options;
    driver_options.max_epochs = options.passes;
    driver_options.tolerance = tolerance;
    driver_options.batch_size = options.batch_size;
    driver_options.radius = loss.radius();
    BOLTON_ASSIGN_OR_RETURN(
        run, RunSgdDriver(table, loss, *plan.schedule, driver_options, rng));
  }

  // --- The bolt-on: compute Δ₂ for the run that actually happened, draw
  // one noise vector, add it in the front end. ---
  BOLTON_ASSIGN_OR_RETURN(
      double sensitivity,
      BoltOnSensitivity(loss, plan.eta,
                        SensitivitySetup{run.epochs_run, options.batch_size, m},
                        options.shards,
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
  out.private_output.shards = options.shards;
  out.driver = std::move(run);
  return out;
}

}  // namespace bolton
