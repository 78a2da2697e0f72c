#include "core/solver.h"

#include <cmath>
#include <limits>
#include <utility>

#include "core/bst14.h"
#include "core/objective_perturbation.h"
#include "core/private_sgd.h"
#include "core/scs13.h"
#include "obs/trace.h"
#include "optim/parallel_executor.h"
#include "optim/schedule.h"
#include "util/strings.h"

namespace bolton {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One row per algorithm; AlgorithmName / ParseAlgorithm / the error
/// message all read this table, so adding an algorithm cannot leave one of
/// them behind.
struct AlgorithmRow {
  Algorithm algorithm;
  const char* name;
};

constexpr AlgorithmRow kAlgorithmTable[] = {
    {Algorithm::kNoiseless, "noiseless"}, {Algorithm::kBoltOn, "ours"},
    {Algorithm::kScs13, "scs13"},         {Algorithm::kBst14, "bst14"},
    {Algorithm::kObjective, "objective"},
};

std::string ValidAlgorithmNames() {
  std::string out;
  for (const AlgorithmRow& row : kAlgorithmTable) {
    if (!out.empty()) out += "|";
    out += row.name;
  }
  return out;
}

Status RejectShards(Algorithm algorithm, size_t shards) {
  if (shards == 1) return Status::OK();
  return Status::InvalidArgument(StrFormat(
      "algorithm '%s' perturbs inside the optimization loop and has no "
      "sharded-averaging privacy argument; shards must be 1 (got %zu)",
      AlgorithmName(algorithm), shards));
}

Result<SolverOutput> RunNoiseless(const Dataset& data,
                                  const LossFunction& loss,
                                  const SolverSpec& spec, Rng* rng) {
  std::unique_ptr<StepSizeSchedule> schedule;
  if (loss.IsStronglyConvex()) {
    // Table 4: noiseless strongly convex uses 1/(γt), no 1/β cap.
    BOLTON_ASSIGN_OR_RETURN(
        schedule, MakeInverseTimeStep(loss.strong_convexity(), kInf));
  } else {
    BOLTON_ASSIGN_OR_RETURN(
        schedule,
        MakeConstantStep(1.0 / std::sqrt(static_cast<double>(data.size()))));
  }
  PsgdOptions options;
  options.run() = spec.run();
  options.radius = loss.radius();
  BOLTON_ASSIGN_OR_RETURN(ShardedPsgdOutput run,
                          RunShardedPsgd(data, loss, *schedule, options, rng));
  SolverOutput out;
  out.model = std::move(run.model);
  out.stats = run.stats;
  out.shards = run.shards;
  return out;
}

}  // namespace

const char* AlgorithmName(Algorithm algorithm) {
  for (const AlgorithmRow& row : kAlgorithmTable) {
    if (row.algorithm == algorithm) return row.name;
  }
  return "unknown";
}

Result<Algorithm> ParseAlgorithm(const std::string& name) {
  for (const AlgorithmRow& row : kAlgorithmTable) {
    if (name == row.name) return row.algorithm;
  }
  // Historical aliases for the paper's own method.
  if (name == "bolton" || name == "bolt-on") return Algorithm::kBoltOn;
  return Status::NotFound("unknown algorithm '" + name + "' (" +
                          ValidAlgorithmNames() + ")");
}

Result<SolverOutput> RunPrivateSolver(Algorithm algorithm, const Dataset& data,
                                      const LossFunction& loss,
                                      const SolverSpec& spec, Rng* rng) {
  if (data.empty()) return Status::InvalidArgument("empty training set");
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");

  // One top-level span over the whole solve, so every front end (CLI,
  // benches, ml/TrainBinary) gets an end-to-end IPC / cache-miss reading
  // on the main thread without instrumenting itself.
  obs::ScopedSpan solver_span("solver.run");

  switch (algorithm) {
    case Algorithm::kNoiseless:
      return RunNoiseless(data, loss, spec, rng);

    case Algorithm::kBoltOn: {
      BoltOnOptions options;
      options.run() = spec.run();
      options.privacy = spec.privacy;
      options.constant_step = spec.constant_step;
      options.use_corrected_minibatch_sensitivity =
          spec.use_corrected_minibatch_sensitivity;
      BOLTON_ASSIGN_OR_RETURN(PrivateSgdOutput run,
                              PrivatePsgd(data, loss, options, rng));
      SolverOutput out;
      out.model = std::move(run.model);
      out.stats = run.stats;
      out.sensitivity = run.sensitivity;
      out.shards = run.shards;
      return out;
    }

    case Algorithm::kScs13: {
      BOLTON_RETURN_IF_ERROR(RejectShards(algorithm, spec.shards));
      Scs13Options options;
      options.privacy = spec.privacy;
      options.passes = spec.passes;
      options.batch_size = spec.batch_size;
      options.step_scale = spec.scs13_step_scale;
      BOLTON_ASSIGN_OR_RETURN(Scs13Output run,
                              RunScs13(data, loss, options, rng));
      SolverOutput out;
      out.model = std::move(run.model);
      out.stats = run.stats;
      return out;
    }

    case Algorithm::kBst14: {
      BOLTON_RETURN_IF_ERROR(RejectShards(algorithm, spec.shards));
      Bst14Options options;
      options.privacy = spec.privacy;
      options.passes = spec.passes;
      options.batch_size = spec.batch_size;
      if (!loss.IsStronglyConvex()) {
        options.radius = spec.bst14_convex_radius;
      }
      BOLTON_ASSIGN_OR_RETURN(Bst14Output run,
                              RunBst14(data, loss, options, rng));
      SolverOutput out;
      out.model = std::move(run.model);
      out.stats = run.stats;
      return out;
    }

    case Algorithm::kObjective: {
      BOLTON_RETURN_IF_ERROR(RejectShards(algorithm, spec.shards));
      if (loss.name().rfind("logistic", 0) != 0) {
        return Status::FailedPrecondition(
            "objective perturbation is implemented for logistic loss only");
      }
      if (!spec.privacy.IsPure()) {
        return Status::FailedPrecondition(
            "objective perturbation provides pure eps-DP only");
      }
      ObjectivePerturbationOptions options;
      options.epsilon = spec.privacy.epsilon;
      // Logistic regularization strength doubles as γ, so the loss already
      // carries the λ the mechanism needs.
      options.lambda = loss.strong_convexity();
      options.passes = spec.passes;
      options.batch_size = spec.batch_size;
      BOLTON_ASSIGN_OR_RETURN(ObjectivePerturbationOutput run,
                              RunObjectivePerturbation(data, options, rng));
      SolverOutput out;
      out.model = std::move(run.model);
      out.stats = run.stats;
      return out;
    }
  }
  return Status::Internal("unknown algorithm");
}

}  // namespace bolton
