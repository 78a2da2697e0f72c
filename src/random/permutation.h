#ifndef BOLTON_RANDOM_PERMUTATION_H_
#define BOLTON_RANDOM_PERMUTATION_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "random/rng.h"

namespace bolton {

/// A uniformly random permutation of {0, 1, ..., n-1} (Fisher–Yates).
/// This is the permutation τ sampled once at the start of PSGD, and the
/// engine's equivalent of Bismarck's `ORDER BY RANDOM()` shuffle.
std::vector<size_t> RandomPermutation(size_t n, Rng* rng);

/// How many steps ahead of its swap ShuffleInPlace draws a swap target.
inline constexpr size_t kShuffleLookahead = 16;

/// Shuffles `items` in place with Fisher–Yates: for i = n−1 down to 1,
/// swap items[i] with items[UniformInt(i + 1)]. The targets do not depend
/// on the items, so each is drawn kShuffleLookahead steps before its swap
/// and its slot is prefetched then: the same draws in the same order, and
/// the scattered slot is in cache when its swap comes.
template <typename T>
void ShuffleInPlace(std::vector<T>* items, Rng* rng) {
  const size_t n = items->size();
  if (n < 2) return;
  T* slots = items->data();
  size_t targets[kShuffleLookahead];  // target of i at i % kShuffleLookahead
  size_t next = n - 1;                // the next i whose target is drawn
  auto draw = [&] {
    const size_t j = rng->UniformInt(next + 1);
    targets[next % kShuffleLookahead] = j;
    __builtin_prefetch(slots + j);
    --next;
  };
  for (size_t k = 0; k < kShuffleLookahead && next > 0; ++k) draw();
  for (size_t i = n - 1; i > 0; --i) {
    const size_t j = targets[i % kShuffleLookahead];
    if (next > 0) draw();  // reuses i's slot, read above
    std::swap(slots[i], slots[j]);
  }
}

}  // namespace bolton

#endif  // BOLTON_RANDOM_PERMUTATION_H_
