#ifndef BOLTON_CORE_PRIVATE_SGD_H_
#define BOLTON_CORE_PRIVATE_SGD_H_

#include <memory>

#include "core/privacy.h"
#include "core/sensitivity.h"
#include "data/dataset.h"
#include "linalg/vector.h"
#include "optim/loss.h"
#include "optim/psgd.h"
#include "optim/schedule.h"
#include "random/dp_noise.h"
#include "random/rng.h"
#include "util/result.h"

namespace bolton {

/// Options shared by the bolt-on private PSGD algorithms. Extends the
/// uniform SgdRunSpec (passes k, batch size b, output mode, fresh
/// permutation, shards) with the bolt-on defaults k = 10, b = 50 and the
/// privacy budget; shards > 1 runs the shard-parallel executor with noise
/// calibrated to the max per-shard sensitivity (Lemma 10,
/// core/sensitivity.h). SolverSpec extends it in turn, and TrainerConfig
/// extends SolverSpec, so a config reaches PrivatePsgd by reference, with
/// no field copied.
struct BoltOnOptions : SgdRunSpec {
  BoltOnOptions() : SgdRunSpec(/*passes=*/10, /*batch_size=*/50) {}

  /// Privacy budget, ignored by noiseless runs. delta == 0 selects the
  /// spherical-Laplace mechanism (pure ε-DP, Theorems 4/5; BST14 does not
  /// support it); delta > 0 selects the Gaussian mechanism ((ε, δ)-DP,
  /// Theorems 6/7) and then requires epsilon < 1.
  PrivacyParams privacy;
  /// Constant step size η for Algorithm 1. 0 selects the paper's default
  /// η = 1/√m (Table 4). Ignored by Algorithm 2 and by noiseless runs.
  double constant_step = 0.0;
  /// Algorithm 2 only. When false (default), calibrate noise to the
  /// paper's mini-batch sensitivity Δ₂ = 2L/(γmb) — faithful to the
  /// published evaluation (§4.1 divides by b). When true, use the
  /// corrected batch bound Δ₂ = 2L/(γm): our re-derivation and the
  /// empirical simulations in sensitivity_test.cc show the paper's /b
  /// improvement does not hold for the decreasing schedule when b > 1
  /// (see DESIGN.md §6). Deployments that need the worst-case guarantee
  /// at b > 1 should set this.
  bool use_corrected_minibatch_sensitivity = false;
};

/// Everything a private training run produces. `model` is the only
/// differentially private output; the rest is diagnostics for experiments
/// (they depend on the data and MUST NOT be released alongside the model in
/// a real deployment).
struct PrivateSgdOutput {
  /// w̃ = w + κ — the differentially private model.
  Vector model;
  /// The noiseless SGD output w (diagnostic).
  Vector noiseless_model;
  /// The L2-sensitivity Δ₂ used to calibrate κ.
  double sensitivity = 0.0;
  /// ‖κ‖ actually drawn (diagnostic).
  double noise_norm = 0.0;
  /// Engine counters from the underlying black-box run.
  PsgdStats stats;
  /// Shards the black box ran with (1 = serial).
  size_t shards = 1;
};

/// The Δ₂ the bolt-on algorithms calibrate to, shared by the Dataset path
/// (PrivatePsgd) and the engine path (RunBoltOnPrivateDriver) so the
/// convex/strongly-convex × serial/sharded × paper/corrected dispatch lives
/// in exactly one place. `eta` is Algorithm 1's constant step (ignored when
/// the loss is strongly convex). When the ledger is enabled, records one
/// "calibration" event ("bolton.sensitivity" / "bolton.sharded_sensitivity")
/// carrying the (ε, δ, Δ₂, shards) accounting of the run.
Result<double> BoltOnSensitivity(const LossFunction& loss, double eta,
                                 const SensitivitySetup& setup, size_t shards,
                                 bool use_corrected_minibatch,
                                 const PrivacyParams& privacy);

/// How one black-box run executes, chosen by PlanBlackBoxRun.
struct BlackBoxPlan {
  /// The Table 4 step size.
  std::unique_ptr<StepSizeSchedule> schedule;
  /// Algorithm 1's constant step η, the one BoltOnSensitivity calibrates
  /// Corollary 1 with; 0 when the loss is strongly convex.
  double eta = 0.0;
  /// The caller's run spec, projected onto the loss's radius.
  PsgdOptions psgd;
};

/// The one place a black-box run (noiseless or bolt-on) chooses its step
/// size, per Table 4 and the loss's convexity:
///   noiseless: convex η = 1/√m; strongly convex η_t = 1/(γt), no 1/β cap;
///   bolt-on:   Algorithm 1 (γ = 0) η = options.constant_step, or 1/√m
///              when that is 0; Algorithm 2 (γ > 0) η_t = min(1/β, 1/(γt)),
///              and the loss must carry a finite radius (the paper uses
///              R = 1/λ), since Lemma 8 holds for projected PSGD only.
/// A bolt-on plan first validates options.privacy. PrivatePsgd, the
/// noiseless solver, RunSolverWithCheckpoints and the engine's
/// RunBoltOnPrivateDriver all take their schedule from here.
Result<BlackBoxPlan> PlanBlackBoxRun(const LossFunction& loss,
                                     size_t num_examples,
                                     const BoltOnOptions& options,
                                     bool bolt_on);

/// Algorithms 1 and 2 — private permutation-based SGD. The loss picks the
/// algorithm: Algorithm 1 for a merely convex loss (γ = 0, η ≤ 2/β, Δ₂ =
/// 2kLη/b by Corollary 1), Algorithm 2 for a strongly convex one (γ > 0,
/// Δ₂ = 2L/(γmb) by Lemma 8, independent of k). Both are one recipe: plan the
/// step size (PlanBlackBoxRun), calibrate Δ₂ (BoltOnSensitivity), split
/// the caller's rng, run black-box PSGD (RunShardedPsgd, serial when
/// options.shards is 1) and publish w + κ (BoltOnPerturb) with κ from the
/// mechanism `options.privacy` selects. Iterates are projected onto the
/// loss's radius when it is finite (rule (7), which leaves Corollary 1
/// unchanged).
Result<PrivateSgdOutput> PrivatePsgd(const Dataset& data,
                                     const LossFunction& loss,
                                     const BoltOnOptions& options, Rng* rng);

/// Generic bolt-on wrapper: perturbs an already-trained model with noise
/// calibrated to a caller-supplied sensitivity. This is the literal "10
/// lines in the Python front-end" integration of §4.2 — use it to privatize
/// the output of ANY training system (e.g., the engine/ UDA driver) once a
/// sensitivity bound for that run is known.
Result<PrivateSgdOutput> BoltOnPerturb(const Vector& model, double sensitivity,
                                       const PrivacyParams& privacy, Rng* rng);

}  // namespace bolton

#endif  // BOLTON_CORE_PRIVATE_SGD_H_
