#include "data/dataset.h"

#include <iterator>
#include <utility>

#include "random/permutation.h"
#include "util/logging.h"
#include "util/strings.h"

namespace bolton {

void Dataset::Add(Example example) {
  BOLTON_CHECK(example.x.dim() == dim_);
  examples_.push_back(std::move(example));
}

void Dataset::Replace(size_t index, Example example) {
  BOLTON_CHECK(index < examples_.size());
  BOLTON_CHECK(example.x.dim() == dim_);
  examples_[index] = std::move(example);
}

void Dataset::NormalizeToUnitBall() {
  for (Example& e : examples_) {
    double n = e.x.Norm();
    if (n > 1.0) e.x *= (1.0 / n);
  }
}

double Dataset::MaxFeatureNorm() const {
  double max_norm = 0.0;
  for (const Example& e : examples_) {
    double n = e.x.Norm();
    if (n > max_norm) max_norm = n;
  }
  return max_norm;
}

Dataset Dataset::Subset(const std::vector<size_t>& indices) const {
  Dataset out(dim_, num_classes_);
  for (size_t idx : indices) {
    BOLTON_CHECK(idx < examples_.size());
    out.examples_.push_back(examples_[idx]);
  }
  return out;
}

std::pair<Dataset, Dataset> Dataset::SplitAt(size_t count) && {
  BOLTON_CHECK(count <= examples_.size());
  Dataset tail(dim_, num_classes_);
  tail.examples_.assign(std::make_move_iterator(examples_.begin() + count),
                        std::make_move_iterator(examples_.end()));
  examples_.resize(count);
  return {std::move(*this), std::move(tail)};
}

void Dataset::Shuffle(Rng* rng) { ShuffleInPlace(&examples_, rng); }

std::vector<Dataset> Dataset::SplitEven(size_t parts) const {
  BOLTON_CHECK(parts >= 1);
  BOLTON_CHECK(parts <= examples_.size());
  std::vector<Dataset> out;
  out.reserve(parts);
  size_t base = examples_.size() / parts;
  size_t extra = examples_.size() % parts;
  size_t begin = 0;
  for (size_t p = 0; p < parts; ++p) {
    size_t len = base + (p < extra ? 1 : 0);
    Dataset part(dim_, num_classes_);
    part.examples_.assign(examples_.begin() + begin,
                          examples_.begin() + begin + len);
    out.push_back(std::move(part));
    begin += len;
  }
  return out;
}

Dataset Dataset::OneVsAllView(int positive_class) const {
  Dataset out(dim_, 2);
  out.examples_ = examples_;
  for (Example& e : out.examples_) {
    e.label = (e.label == positive_class) ? +1 : -1;
  }
  return out;
}

std::string Dataset::Summary(const std::string& name) const {
  return StrFormat("%-16s m=%-8zu d=%-5zu classes=%-3d max||x||=%.4f",
                   name.c_str(), size(), dim(), num_classes(),
                   MaxFeatureNorm());
}

}  // namespace bolton
