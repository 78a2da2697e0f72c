#include "data/synthetic.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "random/distributions.h"
#include "util/strings.h"

namespace bolton {

namespace {

// Scales a raw count by `scale`, keeping at least `min_count` examples so
// tiny scales still produce usable train/test sets.
size_t Scaled(size_t raw, double scale, size_t min_count = 64) {
  double scaled = static_cast<double>(raw) * scale;
  return std::max(min_count, static_cast<size_t>(scaled));
}

// Generates train+test from one teacher so the two splits share the
// distribution, then normalizes both to the unit ball.
Result<std::pair<Dataset, Dataset>> GenerateSplit(SyntheticConfig config,
                                                  size_t test_count) {
  size_t train_count = config.num_examples;
  config.num_examples = train_count + test_count;
  BOLTON_ASSIGN_OR_RETURN(Dataset all, GenerateSynthetic(config));
  return std::move(all).SplitAt(train_count);
}

}  // namespace

Result<Dataset> GenerateSynthetic(const SyntheticConfig& config) {
  if (config.num_examples < 1) {
    return Status::InvalidArgument("num_examples must be >= 1");
  }
  if (config.dim < 1) return Status::InvalidArgument("dim must be >= 1");
  if (config.num_classes < 2) {
    return Status::InvalidArgument("num_classes must be >= 2");
  }
  if (config.label_flip_prob < 0.0 || config.label_flip_prob >= 1.0) {
    return Status::InvalidArgument("label_flip_prob must be in [0, 1)");
  }
  if (config.noise_stddev < 0.0) {
    return Status::InvalidArgument("noise_stddev must be >= 0");
  }

  Rng rng(config.seed);
  // One prototype per class, uniformly random directions at radius `margin`.
  std::vector<Vector> prototypes;
  prototypes.reserve(config.num_classes);
  for (int k = 0; k < config.num_classes; ++k) {
    Vector p = SampleUnitSphere(config.dim, &rng);
    p *= config.margin;
    prototypes.push_back(std::move(p));
  }

  Dataset out(config.dim, config.num_classes);
  for (size_t i = 0; i < config.num_examples; ++i) {
    int cls = static_cast<int>(rng.UniformInt(config.num_classes));
    Vector x = prototypes[cls];
    if (config.noise_stddev > 0.0) {
      x += SampleGaussianVector(config.dim, config.noise_stddev, &rng);
    }
    int label = cls;
    if (config.label_flip_prob > 0.0 &&
        rng.UniformDouble() < config.label_flip_prob) {
      // Flip to a uniformly random *other* class.
      int other = static_cast<int>(rng.UniformInt(config.num_classes - 1));
      label = other >= cls ? other + 1 : other;
    }
    if (config.num_classes == 2) label = (label == 0) ? -1 : +1;
    out.Add(Example{std::move(x), label});
  }
  out.NormalizeToUnitBall();
  return out;
}

Result<Dataset> GenerateTwoGaussians(size_t num_examples, size_t dim,
                                     double margin, uint64_t seed) {
  SyntheticConfig config;
  config.num_examples = num_examples;
  config.dim = dim;
  config.num_classes = 2;
  config.margin = margin;
  config.noise_stddev = 1.0;
  config.seed = seed;
  return GenerateSynthetic(config);
}

Result<std::pair<Dataset, Dataset>> GenerateMnistLike(
    const MnistLikeSpec& spec) {
  // MNIST: 10 well-separated digit classes in 784 dims; one-vs-all logistic
  // regression reaches ~0.9 on the real data after projection to 50 dims.
  SyntheticConfig config;
  config.num_examples = Scaled(60000, spec.scale);
  config.dim = 784;
  config.num_classes = 10;
  // Real MNIST's class structure dominates its pixel noise; a large margin
  // keeps the stand-in learnable after 784 → 50 random projection.
  config.margin = 8.0;
  config.noise_stddev = 1.0;
  config.label_flip_prob = 0.02;
  config.seed = spec.seed;
  return GenerateSplit(config, Scaled(10000, spec.scale));
}

Result<std::pair<Dataset, Dataset>> GenerateProteinLike(double scale,
                                                        uint64_t seed) {
  // Protein: binary, 74 features; "logistic regression models have very good
  // test accuracy on it" (§4.3) — high margin, low flip noise.
  SyntheticConfig config;
  config.num_examples = Scaled(36438, scale);
  config.dim = 74;
  config.num_classes = 2;
  config.margin = 2.5;
  config.noise_stddev = 1.0;
  config.label_flip_prob = 0.01;
  config.seed = seed;
  return GenerateSplit(config, Scaled(36438, scale));
}

Result<std::pair<Dataset, Dataset>> GenerateCovertypeLike(double scale,
                                                          uint64_t seed) {
  // Covertype: binary view of forest cover types, 54 features, large m,
  // moderately noisy (paper's noiseless accuracy ~0.75).
  SyntheticConfig config;
  config.num_examples = Scaled(498010, scale);
  config.dim = 54;
  config.num_classes = 2;
  config.margin = 1.0;
  config.noise_stddev = 1.2;
  config.label_flip_prob = 0.08;
  config.seed = seed;
  return GenerateSplit(config, Scaled(83002, scale));
}

Result<std::pair<Dataset, Dataset>> GenerateHiggsLike(double scale,
                                                      uint64_t seed) {
  // HIGGS: 28 physics features, 10.5M rows, noiseless accuracy ~0.64 —
  // a hard, noisy task where privacy "comes for free" at large m.
  SyntheticConfig config;
  config.num_examples = Scaled(10500000, scale);
  config.dim = 28;
  config.num_classes = 2;
  config.margin = 0.9;
  config.noise_stddev = 1.1;
  config.label_flip_prob = 0.18;
  config.seed = seed;
  return GenerateSplit(config, Scaled(500000, scale));
}

Result<std::pair<Dataset, Dataset>> GenerateKddcupLike(double scale,
                                                       uint64_t seed) {
  // KDDCup-99: 41 features, highly separable (normal vs. attack is nearly
  // deterministic given the features) — accuracy close to 1.
  SyntheticConfig config;
  config.num_examples = Scaled(494021, scale);
  config.dim = 41;
  config.num_classes = 2;
  config.margin = 4.0;
  config.noise_stddev = 1.0;
  config.label_flip_prob = 0.003;
  config.seed = seed;
  return GenerateSplit(config, Scaled(311029, scale));
}

Result<std::pair<Dataset, Dataset>> GenerateByName(const std::string& name,
                                                   double scale,
                                                   uint64_t seed) {
  if (name == "mnist") {
    MnistLikeSpec spec;
    spec.scale = scale;
    spec.seed = seed;
    return GenerateMnistLike(spec);
  }
  if (name == "protein") return GenerateProteinLike(scale, seed);
  if (name == "covertype") return GenerateCovertypeLike(scale, seed);
  if (name == "higgs") return GenerateHiggsLike(scale, seed);
  if (name == "kddcup") return GenerateKddcupLike(scale, seed);
  return Status::NotFound(StrFormat(
      "unknown dataset '%s' (expected mnist|protein|covertype|higgs|kddcup)",
      name.c_str()));
}

}  // namespace bolton
