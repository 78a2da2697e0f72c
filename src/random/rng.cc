#include "random/rng.h"

#include <cmath>

#include "util/logging.h"

namespace bolton {

namespace {

inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64(&sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::UniformDouble() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

uint64_t Rng::UniformInt(uint64_t n) {
  BOLTON_CHECK(n > 0);
  // Rejection sampling over the largest multiple of n below 2^64: a draw
  // below the threshold 2^64 mod n is rejected. The threshold is below n,
  // so a draw r >= n is accepted without it, and its division is paid
  // only when r < n (rare when n is far below 2^64, as a shuffle's n is).
  // Every accept, reject and value is the same as computing it up front.
  uint64_t r = Next();
  if (r < n) {
    const uint64_t threshold = (~n + 1) % n;  // == 2^64 mod n
    while (r < threshold) r = Next();
  }
  return r % n;
}

double Rng::Gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Marsaglia polar method: two deviates per accepted point.
  double u, v, s;
  do {
    u = UniformDouble(-1.0, 1.0);
    v = UniformDouble(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_gaussian_ = v * factor;
  has_cached_gaussian_ = true;
  return u * factor;
}

Rng Rng::Split() { return Rng(Next()); }

RngState Rng::SaveState() const {
  RngState state;
  for (int i = 0; i < 4; ++i) state.words[i] = s_[i];
  state.has_cached_gaussian = has_cached_gaussian_;
  state.cached_gaussian = cached_gaussian_;
  return state;
}

void Rng::RestoreState(const RngState& state) {
  for (int i = 0; i < 4; ++i) s_[i] = state.words[i];
  has_cached_gaussian_ = state.has_cached_gaussian;
  cached_gaussian_ = state.cached_gaussian;
}

uint64_t Rng::StateFingerprint() const {
  // Fold the four state words through splitmix64 so nearby states map to
  // unrelated digests. Read-only: the generator sequence is unaffected.
  uint64_t digest = 0;
  for (uint64_t word : s_) {
    uint64_t sm = digest ^ word;
    digest = SplitMix64(&sm);
  }
  return digest;
}

}  // namespace bolton
