#ifndef BOLTON_DATA_DATASET_H_
#define BOLTON_DATA_DATASET_H_

#include <atomic>
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

  /// Sets of fewer feature bytes than this are left on 4 KiB pages: their
  /// page tables (8 bytes per 4 KiB) stay cache-resident, and a one-time
  /// collapse (25–80 ms per 100 MB) would not pay back within one run.
  static constexpr size_t kHugePageFloorBytes = size_t{64} << 20;

  /// Hints that the rows are about to be read in random order: asks the
  /// kernel once to move the 2 MiB pages that hold the rows' features onto
  /// huge pages (MADV_COLLAPSE), so a scattered row read costs no page
  /// walk. Acts only when size() × dim() × 8 ≥ kHugePageFloorBytes; every
  /// later call is one atomic load. A hint: it changes no value, and an
  /// error (no THP, no free 2 MiB blocks) is ignored. Copies, Add and
  /// Replace clear the once-flag, since they bring rows the call has not
  /// seen; a row rebuilt through operator[] is not re-advised.
  void AdviseRandomReads() const;

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
  // AdviseRandomReads' once-flag. std::atomic cannot be copied, and a
  // copied (or moved-into) set starts unadvised: a copy's rows are new
  // allocations, and re-advising moved rows costs one walk over them
  // (~4 ms per 1M rows; their pages are already collapsed).
  struct AdvisedFlag {
    AdvisedFlag() = default;
    // noexcept, so that Dataset's move stays noexcept and a growing
    // std::vector<Dataset> moves its sets rather than copying them.
    AdvisedFlag(const AdvisedFlag&) noexcept {}
    AdvisedFlag& operator=(const AdvisedFlag&) noexcept {
      Reset();
      return *this;
    }
    // Loads first: Add calls this per row, and the flag is rarely set.
    void Reset() {
      if (done.load()) done.store(false);
    }
    mutable std::atomic<bool> done{false};
  };

  size_t dim_ = 0;
  int num_classes_ = 2;
  std::vector<Example> examples_;
  AdvisedFlag advised_;
};

}  // namespace bolton

#endif  // BOLTON_DATA_DATASET_H_
