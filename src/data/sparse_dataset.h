#ifndef BOLTON_DATA_SPARSE_DATASET_H_
#define BOLTON_DATA_SPARSE_DATASET_H_

#include <vector>

#include "data/dataset.h"
#include "linalg/sparse_vector.h"

namespace bolton {

/// One labeled sparse example (±1 labels for binary tasks).
struct SparseExample {
  SparseVector x;
  int label = 0;
};

/// A dataset that keeps the sparse representation of its features end to
/// end. Mirrors Dataset's interface where the sparse training path needs
/// it; convert with ToDense()/FromDense() to reach the rest of the library.
class SparseDataset {
 public:
  SparseDataset() = default;
  SparseDataset(size_t dim, int num_classes)
      : dim_(dim), num_classes_(num_classes) {}

  size_t size() const { return examples_.size(); }
  size_t dim() const { return dim_; }
  int num_classes() const { return num_classes_; }
  bool empty() const { return examples_.empty(); }

  const SparseExample& operator[](size_t i) const { return examples_[i]; }

  /// Appends an example; the feature dimension must match dim().
  void Add(SparseExample example);

  /// Scales each feature vector to ‖x‖ ≤ 1 (the paper's preprocessing).
  void NormalizeToUnitBall();

  /// Average nnz per example — the quantity the sparse path's O(nnz)
  /// gradient kernel scales with.
  double AverageNnz() const;

  /// Materializes the dense equivalent.
  Dataset ToDense() const;

  /// Sparsifies a dense dataset.
  static SparseDataset FromDense(const Dataset& dense);

 private:
  size_t dim_ = 0;
  int num_classes_ = 2;
  std::vector<SparseExample> examples_;
};

}  // namespace bolton

#endif  // BOLTON_DATA_SPARSE_DATASET_H_
