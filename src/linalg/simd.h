#ifndef BOLTON_LINALG_SIMD_H_
#define BOLTON_LINALG_SIMD_H_

#include <cstddef>
#include <string>
#include <utility>

namespace bolton {

/// Runtime-dispatched SIMD kernels for the dense double-precision loops that
/// dominate gradient work (dot, axpy, scale, elementwise add/sub, squared
/// norm/distance).
///
/// ## Bit-identity contract
///
/// Every tier produces BIT-IDENTICAL results to the scalar reference on the
/// same inputs, at the default rounding mode. This is what lets the sharded
/// executor's determinism contract ("results depend only on seed and shard
/// count") survive heterogeneous fleets and the BOLTON_SIMD override: a model
/// trained with AVX-512 kernels equals one trained with the scalar path bit
/// for bit.
///
/// The trick is a canonical reduction order shared by all tiers. Reductions
/// (dot, squared norm, squared distance) accumulate into 8 virtual lanes —
/// lane j sums elements with index ≡ j (mod 8) over the vectorizable prefix —
/// then combine as
///
///     c0 = l0+l4   c1 = l1+l5   c2 = l2+l6   c3 = l3+l7
///     total = (c0 + c1) + (c2 + c3)
///
/// and fold the remaining tail elements in index order. The same tree is
/// realized as 4×2-lane registers under SSE2, 2×4-lane under AVX2, and
/// 1×8-lane under AVX-512, so every tier performs the exact same sequence of
/// rounded double operations. Elementwise kernels (axpy, scale, add, sub) are
/// bit-identical by construction. No FMA is ever used (a fused multiply-add
/// rounds once where the contract requires twice); the translation unit is
/// compiled with -ffp-contract=off to keep the compiler from introducing one.
///
/// ## Dispatch
///
/// The active tier is resolved once per process: the BOLTON_SIMD environment
/// variable (scalar|sse2|avx2|avx512) if set and supported — an unsupported
/// request is clamped to the best supported tier with a warning — otherwise
/// the best tier the CPU supports (one-time __builtin_cpu_supports probe).
/// Tests and the ExecutorConfig override can force a tier at runtime with
/// ScopedSimdTier. The selected tier is surfaced through obs build info
/// (`boltondp version`, /buildz, bench JSON).
enum class SimdTier {
  /// Not a tier: "no override" in ExecutorConfig / ScopedSimdTier.
  kAuto,
  kScalar,
  kSse2,
  kAvx2,
  kAvx512,
};

/// Best tier the CPU supports (one-time probe, cached).
SimdTier DetectedSimdTier();

/// The tier new kernel calls dispatch to right now: the process default
/// (BOLTON_SIMD or the probe) unless a ScopedSimdTier override is live.
SimdTier ActiveSimdTier();

/// The process default tier: BOLTON_SIMD if set (clamped to supported),
/// otherwise DetectedSimdTier().
SimdTier DefaultSimdTier();

/// True when `tier`'s kernels can run on this CPU. kScalar is always
/// supported; kAuto is not a tier and returns false.
bool SimdTierSupported(SimdTier tier);

/// Lower-case tier name ("auto", "scalar", "sse2", "avx2", "avx512").
const char* SimdTierName(SimdTier tier);

/// Parses a tier name (as accepted by BOLTON_SIMD, plus "auto" and the
/// "avx512f" spelling). Returns false on unknown names.
bool ParseSimdTier(const std::string& name, SimdTier* out);

/// Forces the active tier for the whole process until reset; kAuto resets to
/// DefaultSimdTier(). Returns false (and changes nothing) when the tier is
/// unsupported on this CPU. Because all tiers are bit-identical this is safe
/// to flip at any time — concurrent runs can only differ in speed.
bool ForceSimdTier(SimdTier tier);

/// RAII tier override (test force-tier hook). Restores the previously
/// active tier on destruction. The constructor BOLTON_CHECKs that the tier is supported —
/// gate with SimdTierSupported() first.
class ScopedSimdTier {
 public:
  explicit ScopedSimdTier(SimdTier tier);
  ~ScopedSimdTier();

  ScopedSimdTier(const ScopedSimdTier&) = delete;
  ScopedSimdTier& operator=(const ScopedSimdTier&) = delete;

 private:
  SimdTier previous_;
};

/// <x, y> over n doubles, canonical reduction order.
double SimdDot(const double* x, const double* y, size_t n);

/// ||x||² over n doubles, canonical reduction order (== SimdDot(x, x, n)).
double SimdSquaredNorm(const double* x, size_t n);

/// ||x - y||² over n doubles, canonical reduction order.
double SimdSquaredDistance(const double* x, const double* y, size_t n);

/// y[i] += a * x[i] (BLAS axpy; multiply and add each rounded — no FMA).
void SimdAxpy(double a, const double* x, double* y, size_t n);

/// x[i] *= a.
void SimdScale(double* x, double a, size_t n);

/// y[i] += x[i].
void SimdAdd(double* y, const double* x, size_t n);

/// y[i] -= x[i].
void SimdSub(double* y, const double* x, size_t n);

/// Sparse·dense dot: Σ value·y[index] over `entries` (nnz sorted, unique
/// (index, value) pairs with index < n), in the SAME canonical order SimdDot
/// uses over the full dense index space — entry (i, v) lands in lane i mod 8
/// when i < (n & ~7), tail entries fold in index order after the lane
/// combine. A coordinate absent from `entries` would contribute an exact
/// +0.0 to its lane, which cannot change the sum, so the result is
/// bit-identical to SimdDot(densified, y, n) at every tier. This is what
/// keeps the sparse PSGD engine bit-for-bit against the dense engine. The
/// gather pattern stays scalar at every tier — the canonical order, not
/// vector registers, is the contract here.
double SimdSparseDot(const std::pair<size_t, double>* entries, size_t nnz,
                     const double* y, size_t n);

}  // namespace bolton

#endif  // BOLTON_LINALG_SIMD_H_
