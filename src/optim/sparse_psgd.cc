#include "optim/sparse_psgd.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"
#include "random/permutation.h"
#include "util/failpoint.h"
#include "util/strings.h"

namespace bolton {

namespace {

// Numerically stable logistic sigmoid (matches optim/loss.cc).
double Sigmoid(double z) {
  if (z >= 0.0) return 1.0 / (1.0 + std::exp(-z));
  double e = std::exp(z);
  return e / (1.0 + e);
}

}  // namespace

Result<PsgdOutput> RunSparseLogisticPsgd(const SparseDataset& data,
                                         double lambda,
                                         const StepSizeSchedule& schedule,
                                         const PsgdOptions& options, Rng* rng,
                                         GradientNoiseSource* noise) {
  if (data.empty()) return Status::InvalidArgument("empty training set");
  if (lambda < 0.0) return Status::InvalidArgument("lambda must be >= 0");
  if (options.passes < 1) return Status::InvalidArgument("passes must be >= 1");
  if (options.batch_size < 1 || options.batch_size > data.size()) {
    return Status::InvalidArgument("batch_size must be in [1, m]");
  }
  if (options.sampling != SamplingMode::kPermutation) {
    return Status::NotImplemented(
        "sparse path supports permutation sampling only");
  }

  obs::ScopedSpan run_span("sparse_psgd.run");

  const size_t m = data.size();
  const size_t dim = data.dim();
  const size_t b = options.batch_size;
  if (options.radius <= 0.0) {
    return Status::InvalidArgument("radius must be > 0 (may be +inf)");
  }
  const bool project = std::isfinite(options.radius);

  Vector w(dim);
  Vector grad(dim);
  Vector iterate_sum(dim);
  std::vector<size_t> touched;  // grad coordinates to reset after an update

  PsgdStats stats;
  std::vector<size_t> order;
  {
    obs::ScopedSpan shuffle_span("psgd.shuffle");
    order = RandomPermutation(m, rng);
  }

  size_t step = 0;
  for (size_t pass = 1; pass <= options.passes; ++pass) {
    BOLTON_FAILPOINT("sparse_psgd.pass");
    obs::ScopedSpan pass_span("psgd.pass");
    if (pass > 1 && options.fresh_permutation_each_pass) {
      obs::ScopedSpan shuffle_span("psgd.shuffle");
      order = RandomPermutation(m, rng);
    }
    for (size_t begin = 0; begin < m; begin += b) {
      const size_t batch_len = std::min(b, m - begin);
      ++step;

      const double scale = 1.0 / static_cast<double>(batch_len);
      touched.clear();
      for (size_t j = 0; j < batch_len; ++j) {
        const SparseExample& e = data[order[begin + j]];
        // ∇ℓ = −y·σ(−y⟨w,x⟩)·x (+ λw), exactly as the dense logistic loss.
        double margin = e.label * Dot(e.x, w);
        double coeff = -e.label * Sigmoid(-margin);
        e.x.AxpyInto(scale * coeff, &grad);
        for (const auto& [index, value] : e.x.entries()) {
          (void)value;
          touched.push_back(index);
        }
        if (lambda > 0.0) grad.Axpy(scale * lambda, w);
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
            StrFormat("invalid step size %g at t=%zu", eta, step));
      }
      // The pure-sparse path (no regularizer/noise densifying the
      // gradient) applies the update and the scratch reset in O(touched);
      // untouched coordinates would only receive an exact −η·0. Examples in
      // a batch can share coordinates, so dedupe first — each coordinate
      // must be stepped exactly once.
      const bool grad_is_sparse = lambda == 0.0 && noise == nullptr;
      if (grad_is_sparse) {
        std::sort(touched.begin(), touched.end());
        touched.erase(std::unique(touched.begin(), touched.end()),
                      touched.end());
      }
      if (grad_is_sparse) {
        for (size_t index : touched) w[index] += -eta * grad[index];
      } else {
        w.Axpy(-eta, grad);
      }
      if (project) ProjectToL2BallInPlace(&w, options.radius);
      if (grad_is_sparse) {
        for (size_t index : touched) grad[index] = 0.0;
      } else {
        grad.SetZero();
      }

      ++stats.updates;
      if (options.output == OutputMode::kAverageAll) iterate_sum += w;
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

}  // namespace bolton
