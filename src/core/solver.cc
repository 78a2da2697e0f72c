#include "core/solver.h"

#include <utility>

#include "core/bst14.h"
#include "core/objective_perturbation.h"
#include "core/private_sgd.h"
#include "core/scs13.h"
#include "obs/trace.h"
#include "optim/parallel_executor.h"
#include "util/strings.h"

namespace bolton {

namespace {

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

Result<SolverOutput> RunNoiseless(const Dataset& data,
                                  const LossFunction& loss,
                                  const SolverSpec& spec, Rng* rng) {
  BOLTON_ASSIGN_OR_RETURN(
      BlackBoxPlan plan,
      PlanBlackBoxRun(loss, data.size(), spec, /*bolt_on=*/false));
  BOLTON_ASSIGN_OR_RETURN(
      ShardedPsgdOutput run,
      RunShardedPsgd(data, loss, *plan.schedule, plan.psgd, rng));
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

Status CheckSolverParameters(Algorithm algorithm, const LossFunction& loss,
                             const SolverSpec& spec) {
  if (algorithm == Algorithm::kNoiseless || algorithm == Algorithm::kBoltOn) {
    return Status::OK();
  }
  if (spec.shards != 1) {
    return Status::InvalidArgument(StrFormat(
        "algorithm '%s' perturbs inside the optimization loop and has no "
        "sharded-averaging privacy argument; shards must be 1 (got %zu)",
        AlgorithmName(algorithm), spec.shards));
  }
  if (algorithm == Algorithm::kBst14) return CheckBst14Privacy(spec.privacy);
  if (algorithm == Algorithm::kObjective &&
      loss.name().rfind("logistic", 0) != 0) {
    return Status::FailedPrecondition(
        "objective perturbation is implemented for logistic loss only");
  }
  if (algorithm == Algorithm::kObjective && !spec.privacy.IsPure()) {
    return Status::FailedPrecondition(
        "objective perturbation provides pure eps-DP only");
  }
  return Status::OK();
}

Result<SolverOutput> RunPrivateSolver(Algorithm algorithm, const Dataset& data,
                                      const LossFunction& loss,
                                      const SolverSpec& spec, Rng* rng) {
  BOLTON_RETURN_IF_ERROR(CheckSolverParameters(algorithm, loss, spec));
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
      BOLTON_ASSIGN_OR_RETURN(PrivateSgdOutput run,
                              PrivatePsgd(data, loss, spec, rng));
      SolverOutput out;
      out.model = std::move(run.model);
      out.stats = run.stats;
      out.sensitivity = run.sensitivity;
      out.shards = run.shards;
      return out;
    }

    case Algorithm::kScs13: {
      Scs13Options options;
      options.privacy = spec.privacy;
      options.passes = spec.passes;
      options.batch_size = spec.batch_size;
      BOLTON_ASSIGN_OR_RETURN(Scs13Output run,
                              RunScs13(data, loss, options, rng));
      SolverOutput out;
      out.model = std::move(run.model);
      out.stats = run.stats;
      return out;
    }

    case Algorithm::kBst14: {
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
