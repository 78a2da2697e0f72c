#ifndef BOLTON_RANDOM_RNG_H_
#define BOLTON_RANDOM_RNG_H_

#include <cstdint>

namespace bolton {

/// A serialized Rng: the four xoshiro256** state words plus the Gaussian
/// cache. Checkpoints persist this so a resumed run continues the exact
/// random stream — permutations, splits, and noise draws — bit-identically
/// to an uninterrupted run (core/checkpoint.h).
struct RngState {
  uint64_t words[4] = {0, 0, 0, 0};
  bool has_cached_gaussian = false;
  double cached_gaussian = 0.0;
};

/// Deterministic pseudo-random generator: xoshiro256** seeded via splitmix64.
///
/// One small, fast, well-tested engine is used everywhere in the library so
/// that experiments are reproducible from a single seed. The class satisfies
/// C++'s UniformRandomBitGenerator requirements, so it can also drive
/// standard-library distributions, though the library ships its own
/// (random/distributions.h) to keep results identical across standard-library
/// implementations.
///
/// Not cryptographically secure. Differential privacy formally requires
/// cryptographic randomness in adversarial deployments; swapping the engine
/// is a one-line change and none of the calibration logic depends on it.
class Rng {
 public:
  using result_type = uint64_t;

  /// Seeds the four 64-bit words of state from `seed` using splitmix64,
  /// which guarantees a non-degenerate (not all zero) state.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }

  /// Next 64 random bits.
  uint64_t operator()() { return Next(); }
  uint64_t Next();

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0. Uses rejection sampling to
  /// avoid modulo bias; a draw costs one division (r mod n) unless r < n.
  uint64_t UniformInt(uint64_t n);

  /// Standard normal deviate (mean 0, variance 1), via the polar
  /// (Marsaglia) method with one cached value.
  double Gaussian();

  /// Forks an independently seeded generator; used to give each
  /// worker/sub-task its own stream derived from the parent seed.
  Rng Split();

  /// 64-bit digest of the current engine state. Consumes no randomness;
  /// recorded by the privacy ledger (obs/ledger.h) so every noise draw in a
  /// dump is attributable to the generator state that produced it.
  uint64_t StateFingerprint() const;

  /// Captures / restores the full generator state (including the Gaussian
  /// cache). RestoreState(SaveState()) is an exact no-op: the subsequent
  /// stream is bit-identical. Consumes no randomness.
  RngState SaveState() const;
  void RestoreState(const RngState& state);

 private:
  uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace bolton

#endif  // BOLTON_RANDOM_RNG_H_
