#include "data/sparse_dataset.h"

#include "util/logging.h"

namespace bolton {

void SparseDataset::Add(SparseExample example) {
  BOLTON_CHECK(example.x.dim() == dim_);
  examples_.push_back(std::move(example));
}

void SparseDataset::NormalizeToUnitBall() {
  for (SparseExample& e : examples_) {
    double n = e.x.Norm();
    if (n > 1.0) e.x.Scale(1.0 / n);
  }
}

double SparseDataset::AverageNnz() const {
  if (examples_.empty()) return 0.0;
  size_t total = 0;
  for (const SparseExample& e : examples_) total += e.x.nnz();
  return static_cast<double>(total) / static_cast<double>(examples_.size());
}

Dataset SparseDataset::ToDense() const {
  Dataset out(dim_, num_classes_);
  for (const SparseExample& e : examples_) {
    out.Add(Example{e.x.ToDense(), e.label});
  }
  return out;
}

SparseDataset SparseDataset::FromDense(const Dataset& dense) {
  SparseDataset out(dense.dim(), dense.num_classes());
  for (size_t i = 0; i < dense.size(); ++i) {
    out.Add(SparseExample{SparseVector::FromDense(dense[i].x),
                          dense[i].label});
  }
  return out;
}

}  // namespace bolton
