#ifndef BOLTON_OPTIM_PSGD_H_
#define BOLTON_OPTIM_PSGD_H_

#include <cmath>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "data/sparse_dataset.h"
#include "linalg/simd.h"
#include "linalg/vector.h"
#include "optim/loss.h"
#include "optim/schedule.h"
#include "optim/sgd_spec.h"
#include "random/rng.h"
#include "util/result.h"

namespace bolton {

/// How examples are drawn during SGD.
enum class SamplingMode {
  /// Permutation-based SGD (the paper's PSGD): shuffle once (or per pass)
  /// and cycle. Bismarck's native mode; required by the bolt-on analysis.
  kPermutation,
  /// Uniform with-replacement draws each step — BST14's sampling.
  kWithReplacement,
};

/// White-box extension point: per-update noise injected into the (averaged)
/// mini-batch gradient before the step is applied. The bolt-on algorithms
/// never use this; SCS13 and BST14 are implemented through it, mirroring how
/// they must patch the UDA transition function in Bismarck (§4.2).
class GradientNoiseSource {
 public:
  virtual ~GradientNoiseSource() = default;

  /// Noise for (1-based) update `step`; added to the averaged gradient.
  virtual Result<Vector> Sample(size_t step, size_t dim, Rng* rng) = 0;
};

/// Options for a PSGD run: the shared run spec (passes, batch size, output
/// mode, fresh permutation, shards) plus the fields only the optimizer
/// layer consumes.
struct PsgdOptions : SgdRunSpec {
  /// Radius R of the hypothesis ball; each update is projected onto it
  /// (rule (7)). +infinity disables projection (unconstrained).
  double radius = std::numeric_limits<double>::infinity();
  SamplingMode sampling = SamplingMode::kPermutation;
};

/// Counters describing a finished run; the runtime benches report these.
struct PsgdStats {
  /// Individual ∇ℓ_i evaluations (m·k for full passes).
  size_t gradient_evaluations = 0;
  /// Model updates applied (T = k·⌈m/b⌉).
  size_t updates = 0;
  /// Draws taken from the GradientNoiseSource (0 for black-box SGD).
  size_t noise_samples = 0;
};

/// Adds a finished run's counts to the `gradient_evaluations`,
/// `model_updates` and `noise_samples` counters: one relaxed add per
/// counter per run, never per example. Every SGD front end (RunPsgd's loop
/// and the in-engine UDA) flushes through here.
void FlushPsgdStats(const PsgdStats& stats);

/// The result of a PSGD run.
struct PsgdOutput {
  Vector model;
  PsgdStats stats;
};

/// Everything needed to continue a run from a pass boundary bit-identically
/// to a run that was never interrupted: iterate(s), cursor, engine counters,
/// the PSGD rng state, and the active permutation. Captured at pass
/// boundaries by the checkpoint plan below and persisted (atomically, with
/// an UNRELEASED_PRIVATE header — the iterate is NOT noised and must never
/// be released) by core/checkpoint.h.
struct PsgdResumeState {
  /// Passes fully applied to `w`; the run continues at pass
  /// completed_passes + 1.
  size_t completed_passes = 0;
  /// Updates applied so far (the 1-based schedule cursor after this pass).
  size_t step = 0;
  Vector w;
  /// Running Σ w_t for OutputMode::kAverageAll; empty otherwise is fine —
  /// dimension is validated against `w`.
  Vector iterate_sum;
  PsgdStats stats;
  /// The PSGD rng captured AFTER this pass's permutation draws, so a
  /// resumed run draws later fresh permutations identically.
  RngState rng;
  /// The permutation in effect (drawn once at start, or this pass's fresh
  /// draw); resuming replays it instead of re-drawing.
  std::vector<size_t> order;
};

/// Periodic checkpointing of a PSGD run (permutation sampling only).
struct PsgdCheckpointPlan {
  /// Invoke `sink` after every this-many completed passes (0 = never). The
  /// final pass is not checkpointed — the run is about to release.
  size_t every_passes = 0;
  /// Receives the pass-boundary state; a non-OK return aborts the run with
  /// that status (a checkpoint that cannot be persisted is a failed run,
  /// not a silently weaker one).
  std::function<Status(const PsgdResumeState&)> sink;
  /// When set, the run continues from this state instead of starting fresh:
  /// `rng` is restored, the permutation is replayed, and execution resumes
  /// at pass completed_passes + 1.
  const PsgdResumeState* resume = nullptr;
};

/// One mini-batch step, the only one RunPsgd's loop and the engine's SGD
/// aggregate apply: w ← Π_R(w + neg_eta·[Σ_k ∇ℓ(w; x_k, y_k)/b + z]) over
/// the b rows rows[k] (each w->dim() features) with labels[k]. It takes the
/// b margins in one call, maps them through the loss's Derivative times
/// 1/b into `coeffs` (resized to b), and builds, steps and measures w in
/// one SimdBatchStep, whose ‖w‖² the projection reuses. `noise` (z) may be
/// null; radius = +inf skips the projection. Always inlined, so RunPsgd's
/// batch loop makes no call for it.
[[gnu::always_inline]] inline void PsgdBatchStep(
    const LossFunction& loss, const double* const* rows, const double* labels,
    size_t b, double neg_eta, const Vector* noise, double radius,
    std::vector<double>* coeffs, Vector* w) {
  const double scale = 1.0 / static_cast<double>(b);
  SimdStepTerms terms;
  if (loss.lambda() > 0.0) terms.reg = scale * loss.lambda();
  if (const Vector* u = loss.linear_term()) {
    terms.linear = u->data();
    terms.linear_coeff = scale * loss.linear_weight();
  }
  if (noise != nullptr) terms.noise = noise->data();
  terms.neg_eta = neg_eta;
  coeffs->resize(b);
  double* c = coeffs->data();
  SimdBatchMargins(rows, b, w->data(), w->dim(), c);
  for (size_t k = 0; k < b; ++k) {
    c[k] = scale * loss.Derivative(c[k], labels[k]);
  }
  const double squared_norm =
      SimdBatchStep(rows, c, b, terms, w->data(), w->dim());
  if (std::isfinite(radius)) ProjectToL2BallInPlace(w, radius, squared_norm);
}

/// Runs k-pass mini-batch permutation-based SGD:
///
///   w_t = Π_R( w_{t−1} − η_t · [ (1/|B_t|) Σ_{i∈B_t} ∇ℓ_i(w_{t−1}) + z_t ] )
///
/// with z_t = 0 unless a GradientNoiseSource is supplied. Starts from w = 0.
/// This is the black box invoked at line 2 of Algorithms 1 and 2; with a
/// noise source it also hosts the SCS13/BST14 baselines.
///
/// `checkpoint`, when set, enables pass-boundary checkpointing and resume
/// (see PsgdCheckpointPlan); resuming from a sink-captured state continues
/// the permutation and rng streams bit-identically to an uninterrupted run.
///
/// This is the SERIAL black box: options.shards must be 1 (use
/// RunShardedPsgd in optim/parallel_executor.h for shard-parallel runs).
/// It reads `data` in random order, so it first calls
/// data.AdviseRandomReads().
Result<PsgdOutput> RunPsgd(
    const Dataset& data, const LossFunction& loss,
    const StepSizeSchedule& schedule, const PsgdOptions& options, Rng* rng,
    GradientNoiseSource* noise = nullptr,
    const PsgdCheckpointPlan* checkpoint = nullptr);

/// RunPsgd over the rows data[rows[0]], …, data[rows[n−1]] without copying
/// them: bit-for-bit RunPsgd(data.Subset(rows), …) with the same rng. Each
/// permutation the run draws is over [n) and is mapped through `rows` once,
/// so the batch loop reads `data` with one indirection. This is the
/// sharded executor's per-shard black box; it takes no noise source or
/// checkpoint plan. Refuses an empty slice, an index
/// >= data.size() and with-replacement sampling.
Result<PsgdOutput> RunPsgdOnRows(const Dataset& data,
                                 std::span<const size_t> rows,
                                 const LossFunction& loss,
                                 const StepSizeSchedule& schedule,
                                 const PsgdOptions& options, Rng* rng);

/// RunPsgd's loop over sparse rows under the L2-regularized logistic loss
/// (λ passed directly; `options.radius` controls projection). Each
/// gradient costs O(nnz) instead of O(d), and with λ = 0 and no noise
/// source each update touches only the batch's nonzero coordinates. The
/// model is bit-for-bit RunPsgd's on the densified data with the same seed,
/// so every sensitivity bound and BoltOnPerturb() apply unchanged.
Result<PsgdOutput> RunSparseLogisticPsgd(const SparseDataset& data,
                                         double lambda,
                                         const StepSizeSchedule& schedule,
                                         const PsgdOptions& options, Rng* rng,
                                         GradientNoiseSource* noise = nullptr);

}  // namespace bolton

#endif  // BOLTON_OPTIM_PSGD_H_
