#ifndef BOLTON_TESTS_REFERENCE_RANDOM_H_
#define BOLTON_TESTS_REFERENCE_RANDOM_H_

// Plain reference versions of the samplers that every released model's
// permutations and noise come from. rng_test and permutation_test require
// the library to draw exactly these values and to consume exactly these
// words of the stream, so a faster sampler cannot change a released model.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "random/rng.h"

namespace bolton {
namespace reference {

// Rejection sampling with the threshold 2^64 mod n computed up front: two
// divisions per draw.
inline uint64_t UniformInt(uint64_t n, Rng* rng) {
  const uint64_t threshold = (~n + 1) % n;
  while (true) {
    const uint64_t r = rng->Next();
    if (r >= threshold) return r % n;
  }
}

// Fisher–Yates, one draw and one swap per step.
template <typename T>
void Shuffle(std::vector<T>* items, Rng* rng) {
  if (items->size() < 2) return;
  for (size_t i = items->size() - 1; i > 0; --i) {
    std::swap((*items)[i], (*items)[UniformInt(i + 1, rng)]);
  }
}

}  // namespace reference
}  // namespace bolton

#endif  // BOLTON_TESTS_REFERENCE_RANDOM_H_
