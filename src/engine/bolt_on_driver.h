#ifndef BOLTON_ENGINE_BOLT_ON_DRIVER_H_
#define BOLTON_ENGINE_BOLT_ON_DRIVER_H_

#include "core/private_sgd.h"
#include "engine/driver.h"

namespace bolton {

/// Result of a private in-engine training run.
struct BoltOnDriverOutput {
  /// The differentially private model and noise accounting.
  PrivateSgdOutput private_output;
  /// The underlying (non-private) driver run: epochs, timings, counters.
  DriverOutput driver;
};

/// Figure 1B — the paper's headline integration: run the engine's SGD
/// driver COMPLETELY UNCHANGED, then add one noise draw in the front-end
/// controller. This function is the C++ equivalent of the "about 10 lines
/// of Python" of §4.2; it contains no SGD logic of its own.
///
/// The step size and its preconditions come from PlanBlackBoxRun, as in
/// PrivatePsgd. Convex losses (γ = 0) run Algorithm 1: constant step η
/// (options.constant_step, default 1/√m), exactly options.passes epochs
/// (the driver's convergence test is disabled because Δ₂ = 2kLη/b depends
/// on the realized epoch count k). Strongly convex losses run Algorithm 2:
/// η_t = min(1/β, 1/(γt)), projection onto R, and — because Δ₂ =
/// 2L/(γmb) is k-oblivious (§4.3 "the number of passes k is oblivious to
/// private SGD") — `tolerance` MAY be set to stop early on convergence
/// with options.passes as the cap K.
///
/// The driver is serial: options.shards other than 1 is refused with
/// InvalidArgument before any work, since Δ₂ is the serial run's (the
/// shard-parallel release is PrivatePsgd's, over a Dataset).
Result<BoltOnDriverOutput> RunBoltOnPrivateDriver(Table* table,
                                                  const LossFunction& loss,
                                                  const BoltOnOptions& options,
                                                  double tolerance, Rng* rng);

}  // namespace bolton

#endif  // BOLTON_ENGINE_BOLT_ON_DRIVER_H_
