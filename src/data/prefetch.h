#ifndef BOLTON_DATA_PREFETCH_H_
#define BOLTON_DATA_PREFETCH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "data/dataset.h"

namespace bolton {

/// How far a loop over a known row order reads ahead: the features of
/// order[k + kPrefetchDistance] and the Example of
/// order[k + 2 * kPrefetchDistance] are requested while row order[k] is
/// processed. A scattered row is two dependent misses, its Example and
/// then the features it points to, hence the two levels.
inline constexpr size_t kPrefetchDistance = 8;

/// Requests the cache line holding `p`; a hint that never faults. GCC 12
/// at -O2 deletes a __builtin_prefetch whose loop does nothing else (as in
/// PrefetchFeatures), so on x86-64 the instruction is emitted as asm
/// volatile, which the compiler must keep.
inline void PrefetchLine(const void* p) {
#if defined(__x86_64__)
  asm volatile("prefetcht0 (%0)" : : "r"(p));
#else
  __builtin_prefetch(p);
#endif
}

/// Both lines an Example may span: where it straddles a line boundary, its
/// label sits in the second.
inline void PrefetchExample(const Example& row) {
  const char* e = reinterpret_cast<const char*>(&row);
  PrefetchLine(e);
  PrefetchLine(e + sizeof(Example) - 1);
}

/// The first 8 lines of the row's `dim` features: the hardware streamer
/// fetches the rest of a longer row. Reads the Example for its feature
/// pointer, so request that first.
inline void PrefetchFeatures(const Example& row, size_t dim) {
  constexpr uintptr_t kLine = 64;
  constexpr uintptr_t kMaxLines = 8;
  const auto begin = reinterpret_cast<uintptr_t>(row.x.data());
  const uintptr_t first = begin & ~(kLine - 1);
  const uintptr_t end =
      std::min(begin + dim * sizeof(double), first + kMaxLines * kLine);
  for (uintptr_t line = first; line < end; line += kLine) {
    PrefetchLine(reinterpret_cast<const void*>(line));
  }
}

}  // namespace bolton

#endif  // BOLTON_DATA_PREFETCH_H_
