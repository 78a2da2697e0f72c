#ifndef BOLTON_CORE_SOLVER_H_
#define BOLTON_CORE_SOLVER_H_

#include <cstddef>
#include <string>

#include "core/private_sgd.h"
#include "data/dataset.h"
#include "linalg/vector.h"
#include "optim/loss.h"
#include "optim/psgd.h"
#include "random/rng.h"
#include "util/result.h"

namespace bolton {

/// The four training algorithms the paper's figures compare, plus the
/// classic objective-perturbation alternative (§5's [13]) as an extra
/// baseline. kObjective supports pure ε-DP logistic regression only.
enum class Algorithm { kNoiseless, kBoltOn, kScs13, kBst14, kObjective };

/// Every Algorithm value, for exhaustive iteration (tests, CLIs).
inline constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::kNoiseless, Algorithm::kBoltOn, Algorithm::kScs13,
    Algorithm::kBst14, Algorithm::kObjective};

/// Canonical name of an algorithm; ParseAlgorithm round-trips every value.
const char* AlgorithmName(Algorithm algorithm);

/// Parses a canonical name (or the "bolton"/"bolt-on" aliases of "ours");
/// an unknown name returns NotFound listing every valid choice.
Result<Algorithm> ParseAlgorithm(const std::string& name);

/// One private (or noiseless) training run's configuration: BoltOnOptions
/// (the shared SgdRunSpec with the training defaults k = 10, b = 50, the
/// privacy budget, Algorithm 1's constant step and the mini-batch bound)
/// plus BST14's convex radius. SCS13 runs Table 4's η_t = 1/√t. This is
/// the surface RunPrivateSolver dispatches on; TrainerConfig extends it, so
/// a config reaches the solver, and the solver reaches PrivatePsgd, by
/// reference.
struct SolverSpec : BoltOnOptions {
  /// Hypothesis radius handed to BST14 in the convex case, where the loss
  /// itself is unconstrained but Algorithm 4 needs a finite R.
  double bst14_convex_radius = 10.0;
};

/// What a solver run releases. Only `model` is differentially private for
/// the private algorithms; the rest is diagnostics.
struct SolverOutput {
  Vector model;
  PsgdStats stats;
  /// Δ₂ the output perturbation was calibrated to (bolt-on only; 0 for the
  /// white-box and noiseless algorithms).
  double sensitivity = 0.0;
  /// Shards the run executed with (noiseless / bolt-on; 1 otherwise).
  size_t shards = 1;
};

/// The refusals RunPrivateSolver makes from its parameters alone, before
/// it reads a row or draws noise: a white-box algorithm (SCS13, BST14,
/// objective) with shards > 1, objective perturbation off the logistic
/// loss or with δ > 0, and BST14 with δ = 0. RunPrivateSolver runs it
/// first; the serve daemon runs it before reserving budget, so a request
/// refused here spends nothing.
Status CheckSolverParameters(Algorithm algorithm, const LossFunction& loss,
                             const SolverSpec& spec);

/// The single dispatch point for every training algorithm, with the Table 4
/// step-size conventions applied per (algorithm, convexity):
///   noiseless: PlanBlackBoxRun's schedule (convex 1/√m, strongly convex
///              1/(γt)) — sharded when spec.shards > 1;
///   bolt-on:   Algorithms 1/2 via PrivatePsgd (sharding per Lemma 10);
///   SCS13:     1/√t per-update noise;
///   BST14:     Algorithm 4/5 schedules;
///   objective: logistic loss + pure ε-DP only.
/// The white-box three run serially (see CheckSolverParameters).
/// ml/TrainBinary and the bench/example surfaces are thin wrappers over
/// this entry point.
Result<SolverOutput> RunPrivateSolver(Algorithm algorithm, const Dataset& data,
                                      const LossFunction& loss,
                                      const SolverSpec& spec, Rng* rng);

}  // namespace bolton

#endif  // BOLTON_CORE_SOLVER_H_
