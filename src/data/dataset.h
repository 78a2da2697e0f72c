#ifndef BOLTON_DATA_DATASET_H_
#define BOLTON_DATA_DATASET_H_

#include <cstddef>
#include <string>
#include <vector>

#include "linalg/vector.h"
#include "random/rng.h"
#include "util/result.h"

namespace bolton {

/// One labeled training/test example. For binary tasks `label` is ±1; for
/// multiclass tasks it is the class index in [0, num_classes).
struct Example {
  Vector x;
  int label = 0;
};

/// An ordered, labeled dataset — the training set S = ((x_i, y_i))_{i=1..m}
/// of the paper. Order matters: permutation-based SGD walks the set in a
/// (shuffled) index order, and the sensitivity analysis is stated in terms of
/// neighboring datasets that differ at one position.
class Dataset {
 public:
  Dataset() = default;

  /// Creates a dataset with the given feature dimension and class count
  /// (2 for binary ±1 labels).
  Dataset(size_t dim, int num_classes) : dim_(dim), num_classes_(num_classes) {}

  size_t size() const { return examples_.size(); }
  size_t dim() const { return dim_; }
  int num_classes() const { return num_classes_; }
  bool empty() const { return examples_.empty(); }

  const Example& operator[](size_t i) const { return examples_[i]; }
  Example& operator[](size_t i) { return examples_[i]; }
  const std::vector<Example>& examples() const { return examples_; }

  /// Appends an example. The feature dimension must match dim().
  void Add(Example example);

  /// Replaces the example at `index`; used by tests to construct neighboring
  /// datasets S ~ S' that differ in exactly one position.
  void Replace(size_t index, Example example);

  /// Scales each feature vector x to ‖x‖ ≤ 1 (dividing by ‖x‖ when it
  /// exceeds 1). This is the preprocessing assumed throughout the paper's
  /// analysis ("each ‖x‖ ≤ 1", §2).
  void NormalizeToUnitBall();

  /// Largest feature-vector norm in the dataset; 0 for an empty set.
  double MaxFeatureNorm() const;

  /// Returns the examples whose indices are listed, in that order.
  Dataset Subset(const std::vector<size_t>& indices) const;

  /// Moves the examples into {first `count` examples, the rest}, copying
  /// no features. Requires count <= size().
  std::pair<Dataset, Dataset> SplitAt(size_t count) &&;

  /// Shuffles example order uniformly (Fisher–Yates) using `rng`.
  void Shuffle(Rng* rng);

  /// Splits into `parts` nearly equal contiguous portions (the S_1..S_{l+1}
  /// split of the private tuning Algorithm 3). Requires 1 <= parts <= size().
  std::vector<Dataset> SplitEven(size_t parts) const;

  /// Copies labels of a multiclass set into a ±1 binary view: examples of
  /// class `positive_class` get +1, all others −1 (the one-vs-all reduction
  /// of §4.3).
  Dataset OneVsAllView(int positive_class) const;

  /// Human-readable one-line summary (size/dim/classes), for Table 3.
  std::string Summary(const std::string& name) const;

 private:
  size_t dim_ = 0;
  int num_classes_ = 2;
  std::vector<Example> examples_;
};

}  // namespace bolton

#endif  // BOLTON_DATA_DATASET_H_
