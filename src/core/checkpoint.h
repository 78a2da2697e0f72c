#ifndef BOLTON_CORE_CHECKPOINT_H_
#define BOLTON_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>

#include "core/solver.h"
#include "optim/psgd.h"
#include "random/rng.h"
#include "util/result.h"

namespace bolton {

/// Crash-safe checkpoint/resume for serial training runs.
///
/// A checkpoint captures a pass-boundary PsgdResumeState plus everything
/// the solver layer needs to finish the run bit-identically to one that
/// was never interrupted: the solver-spec hash (so a resume under a
/// different configuration is rejected instead of silently producing a
/// model with the wrong privacy calibration) and the outer rng that will
/// draw the bolt-on output perturbation. The privacy ledger is not in it:
/// a resumed run appends to the `--ledger-out` file its interrupted run
/// wrote, so the combined file is the continuous audit trail.
///
/// PRIVACY: a checkpoint holds the PRE-NOISE iterate. It is not
/// differentially private and must never be released — the file leads
/// with an explicit UNRELEASED_PRIVATE marker and is written 0600. Only
/// the model returned by RunSolverWithCheckpoints (perturbed for
/// kBoltOn) is safe to publish; the checkpoint file is removed once the
/// run completes.

/// Everything one checkpoint persists.
struct CheckpointData {
  /// SolverSpecHash of the run that wrote the checkpoint; resume refuses
  /// to continue under a different hash.
  uint64_t spec_hash = 0;
  /// Canonical AlgorithmName of the run.
  std::string algorithm;
  /// The pass-boundary optimizer state (iterates, cursor, rng,
  /// permutation) captured by RunPsgd's checkpoint plan.
  PsgdResumeState state;
  /// kBoltOn only: the outer rng (post-Split), saved so the single output
  /// perturbation draw after resume is bit-identical.
  bool has_outer_rng = false;
  RngState outer_rng;
  /// Δ₂ the run calibrated at start (kBoltOn; 0 otherwise). Stored so a
  /// resume reuses the original calibration instead of re-recording one.
  double sensitivity = 0.0;
};

/// 64-bit digest of everything the resume contract requires to be
/// unchanged: algorithm, run shape (passes, batch, output mode, fresh
/// permutation, shards), privacy parameters and step knobs, the loss
/// identity (name, L, beta, gamma, R), and the dataset shape (m, dim).
/// The dataset contents are NOT hashed — swapping examples between
/// checkpoint and resume is on the caller, exactly as it is for the rng
/// seed of an uninterrupted run.
uint64_t SolverSpecHash(Algorithm algorithm, const SolverSpec& spec,
                        const LossFunction& loss, const Dataset& data);

/// Owns the checkpoint file inside a directory. Saves are atomic:
/// write to `<dir>/bolton.ckpt.tmp` (0600), fsync, rename over
/// `<dir>/bolton.ckpt`, fsync the directory — a crash at any point leaves
/// either the previous checkpoint or the new one, never a torn file. A
/// trailing FNV-1a checksum line rejects corrupt or truncated files on
/// load, and a file of another version (a `bolton-checkpoint v1`, which
/// carried a ledger copy) is refused by name.
class CheckpointManager {
 public:
  explicit CheckpointManager(std::string dir);

  const std::string& path() const { return path_; }

  Status Save(const CheckpointData& data) const;
  Result<CheckpointData> Load() const;
  bool Exists() const;
  /// Removes the checkpoint file; OK if it does not exist.
  Status Remove() const;

 private:
  std::string path_;
};

/// Checkpoint policy for RunSolverWithCheckpoints.
struct CheckpointOptions {
  /// Directory holding the checkpoint file; must already exist.
  std::string dir;
  /// Save after every this-many completed passes (the final pass is never
  /// checkpointed — the run is about to release).
  size_t every_passes = 1;
  /// Continue from the checkpoint in `dir` instead of starting fresh.
  bool resume = false;
};

/// RunPrivateSolver with pass-boundary checkpointing and crash recovery.
///
/// Supports the two black-box algorithms (kNoiseless, kBoltOn) with
/// spec.shards == 1; the white-box baselines perturb inside the update
/// loop and have no sound mid-run release point, so they are rejected.
///
/// Guarantees, for a fixed seed/spec/dataset:
///  * an uninterrupted checkpointed run returns the same model as
///    RunPrivateSolver (checkpointing only observes pass boundaries);
///  * kill the process at any point, rerun with resume = true, and the
///    released model is bit-identical to the uninterrupted run — the
///    permutation stream is replayed, not re-drawn, and for kBoltOn
///    exactly one noise draw happens, from the restored outer rng;
///  * resume under a changed spec/loss/data-shape fails with
///    FailedPrecondition instead of mis-calibrating;
///  * on success the checkpoint file is removed (it holds the pre-noise
///    iterate and must not outlive the run).
Result<SolverOutput> RunSolverWithCheckpoints(
    Algorithm algorithm, const Dataset& data, const LossFunction& loss,
    const SolverSpec& spec, Rng* rng, const CheckpointOptions& checkpoint);

}  // namespace bolton

#endif  // BOLTON_CORE_CHECKPOINT_H_
