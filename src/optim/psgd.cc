#include "optim/psgd.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "random/permutation.h"
#include "util/cancellation.h"
#include "util/failpoint.h"
#include "util/strings.h"

namespace bolton {

namespace {

Status ValidateOptions(size_t m, const PsgdOptions& options) {
  if (m == 0) return Status::InvalidArgument("empty training set");
  if (options.passes < 1) return Status::InvalidArgument("passes must be >= 1");
  if (options.batch_size < 1) {
    return Status::InvalidArgument("batch_size must be >= 1");
  }
  if (options.batch_size > m) {
    return Status::InvalidArgument(
        StrFormat("batch_size %zu exceeds training size %zu",
                  options.batch_size, m));
  }
  if (options.radius <= 0.0) {
    return Status::InvalidArgument("radius must be > 0 (may be +inf)");
  }
  if (options.shards != 1) {
    return Status::InvalidArgument(
        "RunPsgd is the serial black box (shards must be 1); use "
        "RunShardedPsgd for shard-parallel execution");
  }
  return Status::OK();
}

}  // namespace

void FlushPsgdStats(const PsgdStats& stats) {
  static obs::Counter* gradient_evaluations =
      obs::MetricsRegistry::Default().GetCounter("gradient_evaluations");
  static obs::Counter* model_updates =
      obs::MetricsRegistry::Default().GetCounter("model_updates");
  static obs::Counter* noise_samples =
      obs::MetricsRegistry::Default().GetCounter("noise_samples");
  gradient_evaluations->Increment(stats.gradient_evaluations);
  model_updates->Increment(stats.updates);
  noise_samples->Increment(stats.noise_samples);
}

namespace {

// How many positions of the permutation the batch loop reads ahead: the
// features of order[k + kPrefetchDistance] and the Example of
// order[k + 2 * kPrefetchDistance] are requested while row order[k] is
// processed.
constexpr size_t kPrefetchDistance = 8;

// Requests the cache line holding `p`; a hint that never faults. GCC 12
// at -O2 deletes a __builtin_prefetch whose loop does nothing else (as in
// DenseRows::PrefetchFeatures), so on x86-64 the instruction is emitted as
// asm volatile, which the compiler must keep.
inline void PrefetchLine(const void* p) {
#if defined(__x86_64__)
  asm volatile("prefetcht0 (%0)" : : "r"(p));
#else
  __builtin_prefetch(p);
#endif
}

// The row sources RunLoop is instantiated over. Each supplies the
// per-example gradient and the two steps whose cost depends on where the
// batch gradient can be nonzero: zeroing it before a batch, and applying
// it to the iterate. It also supplies the two prefetches of a row the
// batch loop will read: PrefetchExample for the record that holds the
// row's feature pointer, and PrefetchFeatures for the features it points
// to once that record is in cache.

// Dataset rows under any LossFunction; every step is dense. A nonempty
// slice restricts the run to data[slice[k]], k < slice.size(): MapOrder
// turns each permutation of [size()) into data indices once per draw, so
// the batch loop reads data_ directly. An empty slice means every row.
class DenseRows {
 public:
  DenseRows(const Dataset& data, const LossFunction& loss,
            std::span<const size_t> slice = {})
      : data_(data), loss_(loss), slice_(slice) {}

  size_t size() const {
    return slice_.empty() ? data_.size() : slice_.size();
  }
  size_t dim() const { return data_.dim(); }
  void MapOrder(std::vector<size_t>* order) const {
    if (slice_.empty()) return;
    for (size_t& k : *order) k = slice_[k];
  }
  // Both lines an Example may span: where it straddles a line boundary,
  // its label sits in the second.
  void PrefetchExample(size_t i) const {
    const char* e = reinterpret_cast<const char*>(&data_[i]);
    PrefetchLine(e);
    PrefetchLine(e + sizeof(Example) - 1);
  }
  // The first kMaxLines lines of the row's features: the hardware
  // streamer fetches the rest of a longer row.
  void PrefetchFeatures(size_t i) const {
    constexpr uintptr_t kLine = 64;
    constexpr uintptr_t kMaxLines = 8;
    const auto begin = reinterpret_cast<uintptr_t>(data_[i].x.data());
    const uintptr_t first = begin & ~(kLine - 1);
    const uintptr_t end = std::min(begin + data_.dim() * sizeof(double),
                                   first + kMaxLines * kLine);
    for (uintptr_t line = first; line < end; line += kLine) {
      PrefetchLine(reinterpret_cast<const void*>(line));
    }
  }
  void BeginBatch(Vector* grad) { grad->SetZero(); }
  void AddGradient(const Vector& w, size_t i, double scale, Vector* grad) {
    loss_.AddGradient(w, data_[i], scale, grad);
  }
  void Step(double neg_eta, const Vector& grad, Vector* w) {
    w->Axpy(neg_eta, grad);
  }

 private:
  const Dataset& data_;
  const LossFunction& loss_;
  std::span<const size_t> slice_;
};

// SparseDataset rows under the logistic loss. With no regularizer and no
// noise densifying the gradient, it is zero off the batch's touched
// coordinates, so the step and the next batch's reset visit only those;
// elsewhere they would apply an exact −η·0.
class SparseLogisticRows {
 public:
  SparseLogisticRows(const SparseDataset& data, double lambda,
                     bool sparse_steps)
      : data_(data), lambda_(lambda), sparse_steps_(sparse_steps) {}

  size_t size() const { return data_.size(); }
  size_t dim() const { return data_.dim(); }
  void MapOrder(std::vector<size_t>*) const {}
  void PrefetchExample(size_t) const {}
  void PrefetchFeatures(size_t) const {}
  void BeginBatch(Vector* grad) {
    if (sparse_steps_) {
      for (size_t index : touched_) (*grad)[index] = 0.0;
    } else {
      grad->SetZero();
    }
    touched_.clear();
  }
  void AddGradient(const Vector& w, size_t i, double scale, Vector* grad) {
    const SparseExample& e = data_[i];
    // ∇ℓ = −y·σ(−y⟨w,x⟩)·x (+ λw), exactly as the dense logistic loss.
    double margin = e.label * Dot(e.x, w);
    double coeff = -e.label * Sigmoid(-margin);
    e.x.AxpyInto(scale * coeff, grad);
    for (const auto& [index, value] : e.x.entries()) {
      (void)value;
      touched_.push_back(index);
    }
    if (lambda_ > 0.0) grad->Axpy(scale * lambda_, w);
  }
  void Step(double neg_eta, const Vector& grad, Vector* w) {
    if (!sparse_steps_) {
      w->Axpy(neg_eta, grad);
      return;
    }
    // Examples in a batch can share coordinates, so dedupe first — each
    // coordinate must be stepped exactly once.
    std::sort(touched_.begin(), touched_.end());
    touched_.erase(std::unique(touched_.begin(), touched_.end()),
                   touched_.end());
    for (size_t index : touched_) (*w)[index] += neg_eta * grad[index];
  }

 private:
  const SparseDataset& data_;
  double lambda_;
  bool sparse_steps_;
  std::vector<size_t> touched_;  // grad coordinates the batch wrote
};

// The one pass/batch loop of the optimizer layer.
template <typename Rows>
Result<PsgdOutput> RunLoop(
    Rows& rows, const StepSizeSchedule& schedule, const PsgdOptions& options,
    Rng* rng, GradientNoiseSource* noise,
    const std::function<void(size_t, const Vector&)>& pass_callback,
    const PsgdCheckpointPlan* checkpoint) {
  BOLTON_RETURN_IF_ERROR(ValidateOptions(rows.size(), options));
  const PsgdResumeState* resume =
      checkpoint != nullptr ? checkpoint->resume : nullptr;
  if (checkpoint != nullptr &&
      (checkpoint->every_passes > 0 || resume != nullptr) &&
      options.sampling != SamplingMode::kPermutation) {
    return Status::InvalidArgument(
        "checkpoint/resume requires permutation sampling (the resume "
        "contract replays the permutation stream)");
  }

  obs::ScopedSpan run_span("psgd.run");

  const size_t m = rows.size();
  const size_t dim = rows.dim();
  const size_t b = options.batch_size;
  const bool project = std::isfinite(options.radius);

  Vector w(dim);
  Vector grad(dim);
  Vector iterate_sum(dim);

  PsgdStats stats;
  std::vector<size_t> order;
  size_t step = 0;  // 1-based after increment; indexes the schedule
  size_t first_pass = 1;
  if (resume != nullptr) {
    if (resume->w.dim() != dim) {
      return Status::InvalidArgument(
          StrFormat("resume state dim %zu does not match data dim %zu",
                    resume->w.dim(), dim));
    }
    if (resume->completed_passes >= options.passes) {
      return Status::InvalidArgument(
          StrFormat("resume state already holds %zu of %zu passes",
                    resume->completed_passes, options.passes));
    }
    if (resume->order.size() != m) {
      return Status::InvalidArgument(
          StrFormat("resume permutation covers %zu of %zu examples",
                    resume->order.size(), m));
    }
    if (!resume->iterate_sum.empty() && resume->iterate_sum.dim() != dim) {
      return Status::InvalidArgument("resume iterate_sum dim mismatch");
    }
    w = resume->w;
    if (!resume->iterate_sum.empty()) iterate_sum = resume->iterate_sum;
    stats = resume->stats;
    step = resume->step;
    order = resume->order;
    rng->RestoreState(resume->rng);
    first_pass = resume->completed_passes + 1;
  } else if (options.sampling == SamplingMode::kPermutation) {
    obs::ScopedSpan shuffle_span("psgd.shuffle");
    order = RandomPermutation(m, rng);
    rows.MapOrder(&order);
  } else {
    order.resize(b);  // reused scratch for with-replacement draws
  }

  static obs::Histogram* pass_seconds = obs::MetricsRegistry::Default()
      .GetHistogram("psgd.pass_seconds", obs::LatencySecondsBuckets());

  for (size_t pass = first_pass; pass <= options.passes; ++pass) {
    BOLTON_FAILPOINT("psgd.pass");
    obs::ScopedSpan pass_span("psgd.pass");
    const uint64_t pass_start = obs::MonotonicNanos();
    if (options.sampling == SamplingMode::kPermutation && pass > 1 &&
        options.fresh_permutation_each_pass) {
      obs::ScopedSpan shuffle_span("psgd.shuffle");
      order = RandomPermutation(m, rng);
      rows.MapOrder(&order);
    }
    for (size_t begin = 0; begin < m; begin += b) {
      // Batch-boundary cancellation poll: a serve request whose deadline
      // passed (or whose daemon is draining) abandons the run here, before
      // any further work — and long before any noise draw.
      if (options.executor.cancel != nullptr &&
          options.executor.cancel->Cancelled()) {
        return options.executor.cancel->Check("psgd run");
      }
      const size_t batch_len =
          options.sampling == SamplingMode::kPermutation
              ? std::min(b, m - begin)
              : b;
      ++step;

      rows.BeginBatch(&grad);
      const double scale = 1.0 / static_cast<double>(batch_len);
      for (size_t j = 0; j < batch_len; ++j) {
        size_t idx;
        if (options.sampling == SamplingMode::kPermutation) {
          // The permutation names every row this pass reads, so request
          // them ahead of the gradient: a scattered row is two dependent
          // DRAM misses (its Example, then the features it points to).
          const size_t k = begin + j;
          if (k + 2 * kPrefetchDistance < m) {
            rows.PrefetchExample(order[k + 2 * kPrefetchDistance]);
          }
          if (k + kPrefetchDistance < m) {
            rows.PrefetchFeatures(order[k + kPrefetchDistance]);
          }
          idx = order[k];
        } else {
          idx = rng->UniformInt(m);
        }
        rows.AddGradient(w, idx, scale, &grad);
        ++stats.gradient_evaluations;
      }

      if (noise != nullptr) {
        BOLTON_ASSIGN_OR_RETURN(Vector z, noise->Sample(step, dim, rng));
        grad += z;
        ++stats.noise_samples;
      }

      const double eta = schedule.StepSize(step);
      if (!(eta > 0.0) || !std::isfinite(eta)) {
        return Status::InvalidArgument(
            StrFormat("schedule '%s' produced invalid step size %g at t=%zu",
                      schedule.name().c_str(), eta, step));
      }
      rows.Step(-eta, grad, &w);
      if (project) ProjectToL2BallInPlace(&w, options.radius);

      ++stats.updates;
      if (options.output == OutputMode::kAverageAll) iterate_sum += w;
    }
    pass_seconds->Observe(
        static_cast<double>(obs::MonotonicNanos() - pass_start) * 1e-9);
    if (pass_callback) pass_callback(pass, w);

    if (checkpoint != nullptr && checkpoint->every_passes > 0 &&
        checkpoint->sink && pass < options.passes &&
        pass % checkpoint->every_passes == 0) {
      obs::ScopedSpan checkpoint_span("psgd.checkpoint");
      PsgdResumeState snapshot;
      snapshot.completed_passes = pass;
      snapshot.step = step;
      snapshot.w = w;
      if (options.output == OutputMode::kAverageAll) {
        snapshot.iterate_sum = iterate_sum;
      }
      snapshot.stats = stats;
      snapshot.rng = rng->SaveState();
      snapshot.order = order;
      Status saved = checkpoint->sink(snapshot);
      if (!saved.ok()) {
        return saved.WithContext(
            StrFormat("checkpoint sink at pass %zu", pass));
      }
    }
  }

  FlushPsgdStats(stats);

  PsgdOutput out;
  out.stats = stats;
  if (options.output == OutputMode::kAverageAll && stats.updates > 0) {
    iterate_sum *= 1.0 / static_cast<double>(stats.updates);
    out.model = std::move(iterate_sum);
  } else {
    out.model = std::move(w);
  }
  return out;
}

}  // namespace

Result<PsgdOutput> RunPsgd(
    const Dataset& data, const LossFunction& loss,
    const StepSizeSchedule& schedule, const PsgdOptions& options, Rng* rng,
    GradientNoiseSource* noise,
    const std::function<void(size_t, const Vector&)>& pass_callback,
    const PsgdCheckpointPlan* checkpoint) {
  DenseRows rows(data, loss);
  return RunLoop(rows, schedule, options, rng, noise, pass_callback,
                 checkpoint);
}

Result<PsgdOutput> RunPsgdOnRows(const Dataset& data,
                                 std::span<const size_t> rows,
                                 const LossFunction& loss,
                                 const StepSizeSchedule& schedule,
                                 const PsgdOptions& options, Rng* rng) {
  // Checked here: an empty slice would mean every row to DenseRows.
  if (rows.empty()) return Status::InvalidArgument("empty row slice");
  if (options.sampling != SamplingMode::kPermutation) {
    return Status::InvalidArgument(
        "a row slice requires permutation sampling");
  }
  for (size_t i : rows) {
    if (i >= data.size()) {
      return Status::InvalidArgument(StrFormat(
          "row index %zu out of range for %zu rows", i, data.size()));
    }
  }
  DenseRows dense(data, loss, rows);
  return RunLoop(dense, schedule, options, rng, nullptr, nullptr, nullptr);
}

Result<PsgdOutput> RunSparseLogisticPsgd(const SparseDataset& data,
                                         double lambda,
                                         const StepSizeSchedule& schedule,
                                         const PsgdOptions& options, Rng* rng,
                                         GradientNoiseSource* noise) {
  if (lambda < 0.0) return Status::InvalidArgument("lambda must be >= 0");
  SparseLogisticRows rows(data, lambda, lambda == 0.0 && noise == nullptr);
  return RunLoop(rows, schedule, options, rng, noise, nullptr, nullptr);
}

}  // namespace bolton
