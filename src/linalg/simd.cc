#include "linalg/simd.h"

#include <atomic>
#include <cstdlib>
#include <mutex>

#include "util/logging.h"

#if defined(__x86_64__) || defined(__i386__)
#define BOLTON_SIMD_X86 1
#endif

// This file is compiled with -ffp-contract=off (see src/linalg/CMakeLists):
// the bit-identity contract requires every multiply and add to round
// separately, and a compiler-introduced FMA would round once. The vector
// kernels spell out each multiply and add, and no FMA is ever asked for.

namespace bolton {

namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels. These DEFINE the semantics every vector tier must
// reproduce bit-for-bit: reductions use 8 virtual accumulator lanes over the
// vectorizable prefix, the fixed combine tree (l0+l4 ... then pairwise), and
// an index-order tail. See the contract comment in simd.h.
// ---------------------------------------------------------------------------

double DotScalar(const double* x, const double* y, size_t n) {
  double l0 = 0, l1 = 0, l2 = 0, l3 = 0, l4 = 0, l5 = 0, l6 = 0, l7 = 0;
  size_t i = 0;
  const size_t n8 = n & ~static_cast<size_t>(7);
  for (; i < n8; i += 8) {
    l0 += x[i + 0] * y[i + 0];
    l1 += x[i + 1] * y[i + 1];
    l2 += x[i + 2] * y[i + 2];
    l3 += x[i + 3] * y[i + 3];
    l4 += x[i + 4] * y[i + 4];
    l5 += x[i + 5] * y[i + 5];
    l6 += x[i + 6] * y[i + 6];
    l7 += x[i + 7] * y[i + 7];
  }
  const double c0 = l0 + l4, c1 = l1 + l5, c2 = l2 + l6, c3 = l3 + l7;
  double total = (c0 + c1) + (c2 + c3);
  for (; i < n; ++i) total += x[i] * y[i];
  return total;
}

double SquaredNormScalar(const double* x, size_t n) { return DotScalar(x, x, n); }

double SquaredDistanceScalar(const double* x, const double* y, size_t n) {
  double l0 = 0, l1 = 0, l2 = 0, l3 = 0, l4 = 0, l5 = 0, l6 = 0, l7 = 0;
  size_t i = 0;
  const size_t n8 = n & ~static_cast<size_t>(7);
  for (; i < n8; i += 8) {
    const double d0 = x[i + 0] - y[i + 0];
    const double d1 = x[i + 1] - y[i + 1];
    const double d2 = x[i + 2] - y[i + 2];
    const double d3 = x[i + 3] - y[i + 3];
    const double d4 = x[i + 4] - y[i + 4];
    const double d5 = x[i + 5] - y[i + 5];
    const double d6 = x[i + 6] - y[i + 6];
    const double d7 = x[i + 7] - y[i + 7];
    l0 += d0 * d0;
    l1 += d1 * d1;
    l2 += d2 * d2;
    l3 += d3 * d3;
    l4 += d4 * d4;
    l5 += d5 * d5;
    l6 += d6 * d6;
    l7 += d7 * d7;
  }
  const double c0 = l0 + l4, c1 = l1 + l5, c2 = l2 + l6, c3 = l3 + l7;
  double total = (c0 + c1) + (c2 + c3);
  for (; i < n; ++i) {
    const double d = x[i] - y[i];
    total += d * d;
  }
  return total;
}

void AxpyScalar(double a, const double* x, double* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void ScaleScalar(double* x, double a, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] *= a;
}

void AddScalar(double* y, const double* x, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += x[i];
}

void SubScalar(double* y, const double* x, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] -= x[i];
}

void BatchMarginsScalar(const double* const* rows, size_t batch,
                        const double* w, size_t n, double* margins) {
  for (size_t k = 0; k < batch; ++k) margins[k] = DotScalar(rows[k], w, n);
}

double BatchStepScalar(const double* const* rows, const double* coeffs,
                       size_t batch, const SimdStepTerms& terms, double* w,
                       size_t n) {
  for (size_t i = 0; i < n; ++i) {
    double g = 0.0;
    for (size_t k = 0; k < batch; ++k) {
      g += coeffs[k] * rows[k][i];
      if (terms.reg != 0.0) g += terms.reg * w[i];
      if (terms.linear != nullptr) g += terms.linear_coeff * terms.linear[i];
    }
    if (terms.noise != nullptr) g += terms.noise[i];
    w[i] += terms.neg_eta * g;
  }
  return SquaredNormScalar(w, n);
}

#ifdef BOLTON_SIMD_X86

// ---------------------------------------------------------------------------
// The vector tiers. Each kernel is written once over a GCC vector type V of
// kW = 2 (SSE2), 4 (AVX2) or 8 (AVX-512) doubles and inlined into one
// target function per tier, so every tier runs the same code at its own
// width. The 8 canonical lanes live in 8 / kW registers: lane j in element
// j mod kW of register j / kW. Elementwise kernels are bit-identical by
// construction; reductions combine the lanes in the scalar tree.
// ---------------------------------------------------------------------------

typedef double Vec2 __attribute__((vector_size(16)));
typedef double Vec4 __attribute__((vector_size(32)));
typedef double Vec8 __attribute__((vector_size(64)));

template <typename V>
[[gnu::always_inline]] inline void LoadV(V* v, const double* p) {
  __builtin_memcpy(v, p, sizeof(V));
}

template <typename V>
[[gnu::always_inline]] inline void StoreV(double* p, const V& v) {
  __builtin_memcpy(p, &v, sizeof(V));
}

// total = (c0 + c1) + (c2 + c3) over the 8 canonical lanes.
[[gnu::always_inline]] inline double CombineLanes(const double* l) {
  const double c0 = l[0] + l[4], c1 = l[1] + l[5], c2 = l[2] + l[6],
               c3 = l[3] + l[7];
  return (c0 + c1) + (c2 + c3);
}

// out[r] = ⟨rows[r], w⟩ for kRows rows at once, sharing each load of w.
template <typename V, size_t kRows>
[[gnu::always_inline]] inline void DotRowsV(const double* const* rows,
                                            const double* w, size_t n,
                                            double* out) {
  constexpr size_t kW = sizeof(V) / sizeof(double);
  constexpr size_t kRegs = 8 / kW;
  V acc[kRows][kRegs] = {};
  const size_t n8 = n & ~static_cast<size_t>(7);
  for (size_t i = 0; i < n8; i += 8) {
#pragma GCC unroll 8
    for (size_t j = 0; j < kRegs; ++j) {
      V wv;
      LoadV(&wv, w + i + j * kW);
#pragma GCC unroll 8
      for (size_t r = 0; r < kRows; ++r) {
        V xv;
        LoadV(&xv, rows[r] + i + j * kW);
        acc[r][j] = acc[r][j] + xv * wv;
      }
    }
  }
  for (size_t r = 0; r < kRows; ++r) {
    double lanes[8];
    __builtin_memcpy(lanes, acc[r], sizeof(lanes));
    double total = CombineLanes(lanes);
    for (size_t i = n8; i < n; ++i) total += rows[r][i] * w[i];
    out[r] = total;
  }
}

template <typename V>
[[gnu::always_inline]] inline void BatchMarginsV(const double* const* rows,
                                                 size_t batch,
                                                 const double* w, size_t n,
                                                 double* margins) {
  size_t k = 0;
  for (; k + 4 <= batch; k += 4) DotRowsV<V, 4>(rows + k, w, n, margins + k);
  for (; k < batch; ++k) DotRowsV<V, 1>(rows + k, w, n, margins + k);
}

template <typename V>
[[gnu::always_inline]] inline double DotV(const double* x, const double* y,
                                          size_t n) {
  double total;
  DotRowsV<V, 1>(&x, y, n, &total);
  return total;
}

template <typename V>
[[gnu::always_inline]] inline double SquaredDistanceV(const double* x,
                                                      const double* y,
                                                      size_t n) {
  constexpr size_t kW = sizeof(V) / sizeof(double);
  constexpr size_t kRegs = 8 / kW;
  V acc[kRegs] = {};
  const size_t n8 = n & ~static_cast<size_t>(7);
  for (size_t i = 0; i < n8; i += 8) {
#pragma GCC unroll 8
    for (size_t j = 0; j < kRegs; ++j) {
      V xv, yv;
      LoadV(&xv, x + i + j * kW);
      LoadV(&yv, y + i + j * kW);
      const V d = xv - yv;
      acc[j] = acc[j] + d * d;
    }
  }
  double lanes[8];
  __builtin_memcpy(lanes, acc, sizeof(lanes));
  double total = CombineLanes(lanes);
  for (size_t i = n8; i < n; ++i) {
    const double d = x[i] - y[i];
    total += d * d;
  }
  return total;
}

template <typename V>
[[gnu::always_inline]] inline void AxpyV(double a, const double* x, double* y,
                                         size_t n) {
  constexpr size_t kW = sizeof(V) / sizeof(double);
  size_t i = 0;
  for (; i + kW <= n; i += kW) {
    V xv, yv;
    LoadV(&xv, x + i);
    LoadV(&yv, y + i);
    StoreV(y + i, yv + a * xv);
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

template <typename V>
[[gnu::always_inline]] inline void ScaleV(double* x, double a, size_t n) {
  constexpr size_t kW = sizeof(V) / sizeof(double);
  size_t i = 0;
  for (; i + kW <= n; i += kW) {
    V xv;
    LoadV(&xv, x + i);
    StoreV(x + i, xv * a);
  }
  for (; i < n; ++i) x[i] *= a;
}

template <typename V>
[[gnu::always_inline]] inline void AddV(double* y, const double* x,
                                        size_t n) {
  constexpr size_t kW = sizeof(V) / sizeof(double);
  size_t i = 0;
  for (; i + kW <= n; i += kW) {
    V xv, yv;
    LoadV(&xv, x + i);
    LoadV(&yv, y + i);
    StoreV(y + i, yv + xv);
  }
  for (; i < n; ++i) y[i] += x[i];
}

template <typename V>
[[gnu::always_inline]] inline void SubV(double* y, const double* x,
                                        size_t n) {
  constexpr size_t kW = sizeof(V) / sizeof(double);
  size_t i = 0;
  for (; i + kW <= n; i += kW) {
    V xv, yv;
    LoadV(&xv, x + i);
    LoadV(&yv, y + i);
    StoreV(y + i, yv - xv);
  }
  for (; i < n; ++i) y[i] -= x[i];
}

// Steps the kU·kW coordinates from i: each coordinate's gradient stays in
// a register across the batch's rows, and register u of the stepped w is
// squared into the canonical lanes norm[u % (8 / kW)]. A group of four
// registers starts on a multiple of 8; a single register is passed the
// lanes of its own coordinates.
template <typename V, size_t kU, bool kReg, bool kLinear>
[[gnu::always_inline]] inline void StepLanesV(const double* const* rows,
                                              const double* coeffs,
                                              size_t batch,
                                              const SimdStepTerms& terms,
                                              double* w, size_t i, V* norm) {
  constexpr size_t kW = sizeof(V) / sizeof(double);
  constexpr size_t kRegs = 8 / kW;
  V wv[kU], g[kU] = {}, reg[kU] = {}, lin[kU] = {};
#pragma GCC unroll 8
  for (size_t u = 0; u < kU; ++u) {
    LoadV(&wv[u], w + i + u * kW);
    if constexpr (kReg) reg[u] = terms.reg * wv[u];
    if constexpr (kLinear) {
      LoadV(&lin[u], terms.linear + i + u * kW);
      lin[u] = terms.linear_coeff * lin[u];
    }
  }
  for (size_t k = 0; k < batch; ++k) {
    const double* x = rows[k] + i;
    const double c = coeffs[k];
#pragma GCC unroll 8
    for (size_t u = 0; u < kU; ++u) {
      V xv;
      LoadV(&xv, x + u * kW);
      g[u] = g[u] + c * xv;
      if constexpr (kReg) g[u] = g[u] + reg[u];
      if constexpr (kLinear) g[u] = g[u] + lin[u];
    }
  }
#pragma GCC unroll 8
  for (size_t u = 0; u < kU; ++u) {
    if (terms.noise != nullptr) {
      V z;
      LoadV(&z, terms.noise + i + u * kW);
      g[u] = g[u] + z;
    }
    wv[u] = wv[u] + terms.neg_eta * g[u];
    StoreV(w + i + u * kW, wv[u]);
    norm[u % kRegs] = norm[u % kRegs] + wv[u] * wv[u];
  }
}

template <typename V, bool kReg, bool kLinear>
[[gnu::always_inline]] inline double BatchStepV(const double* const* rows,
                                               const double* coeffs,
                                               size_t batch,
                                               const SimdStepTerms& terms,
                                               double* w, size_t n) {
  constexpr size_t kW = sizeof(V) / sizeof(double);
  constexpr size_t kRegs = 8 / kW;
  // A group of four registers keeps four vectors of sums in flight.
  constexpr size_t kGroupRegs = 4;
  constexpr size_t kGroup = kGroupRegs * kW;
  V norm[kRegs] = {};
  const size_t n8 = n & ~static_cast<size_t>(7);
  size_t i = 0;
  for (; i + kGroup <= n8; i += kGroup) {
    StepLanesV<V, kGroupRegs, kReg, kLinear>(rows, coeffs, batch, terms, w,
                                             i, norm);
  }
  // Registers left under a whole group, then the tail of under 8
  // coordinates in index order, as the scalar reference steps them.
  for (; i < n8; i += kW) {
    StepLanesV<V, 1, kReg, kLinear>(rows, coeffs, batch, terms, w, i,
                                    norm + (i % 8) / kW);
  }
  double lanes[8];
  __builtin_memcpy(lanes, norm, sizeof(lanes));
  double total = CombineLanes(lanes);
  for (; i < n; ++i) {
    double g = 0.0;
    for (size_t k = 0; k < batch; ++k) {
      g += coeffs[k] * rows[k][i];
      if constexpr (kReg) g += terms.reg * w[i];
      if constexpr (kLinear) g += terms.linear_coeff * terms.linear[i];
    }
    if (terms.noise != nullptr) g += terms.noise[i];
    w[i] += terms.neg_eta * g;
    total += w[i] * w[i];
  }
  return total;
}

template <typename V, bool kReg, bool kLinear>
[[gnu::always_inline]] inline double BatchStepRowsV(const double* const* rows,
                                                   const double* coeffs,
                                                   size_t batch,
                                                   const SimdStepTerms& terms,
                                                   double* w, size_t n) {
  // A one-row batch (b = 1, or a pass's one-row last batch) gets its own
  // copy of the loop with the row loop fixed at one.
  if (batch == 1) {
    return BatchStepV<V, kReg, kLinear>(rows, coeffs, 1, terms, w, n);
  }
  return BatchStepV<V, kReg, kLinear>(rows, coeffs, batch, terms, w, n);
}

// The regularizer and the linear term are fixed for a whole run, so each
// combination gets its own loop rather than a test per row.
template <typename V>
[[gnu::always_inline]] inline double BatchStepDispatchV(
    const double* const* rows, const double* coeffs, size_t batch,
    const SimdStepTerms& terms, double* w, size_t n) {
  if (terms.linear != nullptr) {
    return terms.reg != 0.0
               ? BatchStepRowsV<V, true, true>(rows, coeffs, batch, terms, w,
                                               n)
               : BatchStepRowsV<V, false, true>(rows, coeffs, batch, terms, w,
                                                n);
  }
  return terms.reg != 0.0
             ? BatchStepRowsV<V, true, false>(rows, coeffs, batch, terms, w, n)
             : BatchStepRowsV<V, false, false>(rows, coeffs, batch, terms, w,
                                               n);
}

// One target function per kernel and tier, each the generic body above.
#define BOLTON_TIER_KERNELS(Tier, V, target_spec)                              \
  __attribute__((target(target_spec))) double Dot##Tier(                      \
      const double* x, const double* y, size_t n) {                           \
    return DotV<V>(x, y, n);                                                  \
  }                                                                           \
  __attribute__((target(target_spec))) double SquaredNorm##Tier(              \
      const double* x, size_t n) {                                            \
    return DotV<V>(x, x, n);                                                  \
  }                                                                           \
  __attribute__((target(target_spec))) double SquaredDistance##Tier(          \
      const double* x, const double* y, size_t n) {                           \
    return SquaredDistanceV<V>(x, y, n);                                      \
  }                                                                           \
  __attribute__((target(target_spec))) void Axpy##Tier(                       \
      double a, const double* x, double* y, size_t n) {                       \
    AxpyV<V>(a, x, y, n);                                                     \
  }                                                                           \
  __attribute__((target(target_spec))) void Scale##Tier(double* x, double a,  \
                                                        size_t n) {           \
    ScaleV<V>(x, a, n);                                                       \
  }                                                                           \
  __attribute__((target(target_spec))) void Add##Tier(                        \
      double* y, const double* x, size_t n) {                                 \
    AddV<V>(y, x, n);                                                         \
  }                                                                           \
  __attribute__((target(target_spec))) void Sub##Tier(                        \
      double* y, const double* x, size_t n) {                                 \
    SubV<V>(y, x, n);                                                         \
  }                                                                           \
  __attribute__((target(target_spec))) void BatchMargins##Tier(               \
      const double* const* rows, size_t batch, const double* w, size_t n,     \
      double* margins) {                                                      \
    BatchMarginsV<V>(rows, batch, w, n, margins);                             \
  }                                                                           \
  __attribute__((target(target_spec))) double BatchStep##Tier(                \
      const double* const* rows, const double* coeffs, size_t batch,          \
      const SimdStepTerms& terms, double* w, size_t n) {                      \
    return BatchStepDispatchV<V>(rows, coeffs, batch, terms, w, n);           \
  }

BOLTON_TIER_KERNELS(Sse2, Vec2, "sse2")
BOLTON_TIER_KERNELS(Avx2, Vec4, "avx2")
BOLTON_TIER_KERNELS(Avx512, Vec8, "avx512f,avx2")

#undef BOLTON_TIER_KERNELS

#endif  // BOLTON_SIMD_X86

// ---------------------------------------------------------------------------
// Dispatch: one table per tier, one atomic pointer to the active table.
// ---------------------------------------------------------------------------

struct KernelTable {
  SimdTier tier;
  double (*dot)(const double*, const double*, size_t);
  double (*squared_norm)(const double*, size_t);
  double (*squared_distance)(const double*, const double*, size_t);
  void (*axpy)(double, const double*, double*, size_t);
  void (*scale)(double*, double, size_t);
  void (*add)(double*, const double*, size_t);
  void (*sub)(double*, const double*, size_t);
  void (*batch_margins)(const double* const*, size_t, const double*, size_t,
                        double*);
  double (*batch_step)(const double* const*, const double*, size_t,
                       const SimdStepTerms&, double*, size_t);
};

const KernelTable kScalarTable = {SimdTier::kScalar,
                                  DotScalar,
                                  SquaredNormScalar,
                                  SquaredDistanceScalar,
                                  AxpyScalar,
                                  ScaleScalar,
                                  AddScalar,
                                  SubScalar,
                                  BatchMarginsScalar,
                                  BatchStepScalar};

#ifdef BOLTON_SIMD_X86
const KernelTable kSse2Table = {SimdTier::kSse2,
                                DotSse2,
                                SquaredNormSse2,
                                SquaredDistanceSse2,
                                AxpySse2,
                                ScaleSse2,
                                AddSse2,
                                SubSse2,
                                BatchMarginsSse2,
                                BatchStepSse2};

const KernelTable kAvx2Table = {SimdTier::kAvx2,
                                DotAvx2,
                                SquaredNormAvx2,
                                SquaredDistanceAvx2,
                                AxpyAvx2,
                                ScaleAvx2,
                                AddAvx2,
                                SubAvx2,
                                BatchMarginsAvx2,
                                BatchStepAvx2};

const KernelTable kAvx512Table = {SimdTier::kAvx512,
                                  DotAvx512,
                                  SquaredNormAvx512,
                                  SquaredDistanceAvx512,
                                  AxpyAvx512,
                                  ScaleAvx512,
                                  AddAvx512,
                                  SubAvx512,
                                  BatchMarginsAvx512,
                                  BatchStepAvx512};
#endif

const KernelTable* TableForTier(SimdTier tier) {
  switch (tier) {
#ifdef BOLTON_SIMD_X86
    case SimdTier::kSse2:
      return &kSse2Table;
    case SimdTier::kAvx2:
      return &kAvx2Table;
    case SimdTier::kAvx512:
      return &kAvx512Table;
#endif
    default:
      return &kScalarTable;
  }
}

std::atomic<const KernelTable*> g_active_table{nullptr};

SimdTier ResolveDefaultTier() {
  const char* env = std::getenv("BOLTON_SIMD");
  if (env == nullptr || env[0] == '\0') return DetectedSimdTier();
  SimdTier requested;
  if (!ParseSimdTier(env, &requested)) {
    BOLTON_LOG(kWarning) << "BOLTON_SIMD=" << env
                         << " is not a tier name; using "
                         << SimdTierName(DetectedSimdTier());
    return DetectedSimdTier();
  }
  if (requested == SimdTier::kAuto) return DetectedSimdTier();
  if (!SimdTierSupported(requested)) {
    // Clamp, don't fail: the same CI script must run on machines with and
    // without wide vectors, and every tier is bit-identical anyway.
    BOLTON_LOG(kWarning) << "BOLTON_SIMD=" << env
                         << " is not supported on this CPU; clamping to "
                         << SimdTierName(DetectedSimdTier());
    return DetectedSimdTier();
  }
  return requested;
}

const KernelTable* ActiveTable() {
  const KernelTable* table = g_active_table.load(std::memory_order_acquire);
  if (table != nullptr) return table;
  static std::once_flag once;
  std::call_once(once, [] {
    const KernelTable* resolved = TableForTier(DefaultSimdTier());
    const KernelTable* expected = nullptr;
    // A ForceSimdTier that raced ahead of the lazy init wins.
    g_active_table.compare_exchange_strong(expected, resolved,
                                           std::memory_order_acq_rel);
  });
  return g_active_table.load(std::memory_order_acquire);
}

}  // namespace

SimdTier DetectedSimdTier() {
#ifdef BOLTON_SIMD_X86
  static const SimdTier tier = [] {
    if (__builtin_cpu_supports("avx512f")) return SimdTier::kAvx512;
    if (__builtin_cpu_supports("avx2")) return SimdTier::kAvx2;
    if (__builtin_cpu_supports("sse2")) return SimdTier::kSse2;
    return SimdTier::kScalar;
  }();
  return tier;
#else
  return SimdTier::kScalar;
#endif
}

SimdTier DefaultSimdTier() {
  static const SimdTier tier = ResolveDefaultTier();
  return tier;
}

SimdTier ActiveSimdTier() { return ActiveTable()->tier; }

bool SimdTierSupported(SimdTier tier) {
  switch (tier) {
    case SimdTier::kAuto:
      return false;
    case SimdTier::kScalar:
      return true;
    case SimdTier::kSse2:
    case SimdTier::kAvx2:
    case SimdTier::kAvx512:
      return static_cast<int>(tier) <= static_cast<int>(DetectedSimdTier());
  }
  return false;
}

const char* SimdTierName(SimdTier tier) {
  switch (tier) {
    case SimdTier::kAuto:
      return "auto";
    case SimdTier::kScalar:
      return "scalar";
    case SimdTier::kSse2:
      return "sse2";
    case SimdTier::kAvx2:
      return "avx2";
    case SimdTier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool ParseSimdTier(const std::string& name, SimdTier* out) {
  if (name == "auto") {
    *out = SimdTier::kAuto;
    return true;
  }
  if (name == "scalar") {
    *out = SimdTier::kScalar;
    return true;
  }
  if (name == "sse2") {
    *out = SimdTier::kSse2;
    return true;
  }
  if (name == "avx2") {
    *out = SimdTier::kAvx2;
    return true;
  }
  if (name == "avx512" || name == "avx512f") {
    *out = SimdTier::kAvx512;
    return true;
  }
  return false;
}

bool ForceSimdTier(SimdTier tier) {
  if (tier == SimdTier::kAuto) {
    g_active_table.store(TableForTier(DefaultSimdTier()),
                         std::memory_order_release);
    return true;
  }
  if (!SimdTierSupported(tier)) {
    BOLTON_LOG(kWarning) << "cannot force SIMD tier " << SimdTierName(tier)
                         << ": unsupported on this CPU (detected "
                         << SimdTierName(DetectedSimdTier()) << ")";
    return false;
  }
  g_active_table.store(TableForTier(tier), std::memory_order_release);
  return true;
}

ScopedSimdTier::ScopedSimdTier(SimdTier tier) : previous_(ActiveSimdTier()) {
  BOLTON_CHECK(tier == SimdTier::kAuto || SimdTierSupported(tier));
  ForceSimdTier(tier);
}

ScopedSimdTier::~ScopedSimdTier() { ForceSimdTier(previous_); }

double SimdDot(const double* x, const double* y, size_t n) {
  return ActiveTable()->dot(x, y, n);
}

double SimdSquaredNorm(const double* x, size_t n) {
  return ActiveTable()->squared_norm(x, n);
}

double SimdSquaredDistance(const double* x, const double* y, size_t n) {
  return ActiveTable()->squared_distance(x, y, n);
}

void SimdAxpy(double a, const double* x, double* y, size_t n) {
  ActiveTable()->axpy(a, x, y, n);
}

void SimdScale(double* x, double a, size_t n) {
  ActiveTable()->scale(x, a, n);
}

void SimdAdd(double* y, const double* x, size_t n) {
  ActiveTable()->add(y, x, n);
}

void SimdSub(double* y, const double* x, size_t n) {
  ActiveTable()->sub(y, x, n);
}

void SimdBatchMargins(const double* const* rows, size_t batch,
                      const double* w, size_t n, double* margins) {
  ActiveTable()->batch_margins(rows, batch, w, n, margins);
}

double SimdBatchStep(const double* const* rows, const double* coeffs,
                     size_t batch, const SimdStepTerms& terms, double* w,
                     size_t n) {
  return ActiveTable()->batch_step(rows, coeffs, batch, terms, w, n);
}

double SimdSparseDot(const std::pair<size_t, double>* entries, size_t nnz,
                     const double* y, size_t n) {
  // One implementation for every tier: the contract is the canonical lane
  // ORDER, and a scalar gather realizes it exactly. Entries are sorted by
  // index, so each lane's partial sum accumulates in ascending index order —
  // the same order DotScalar visits them — and the coordinates missing here
  // would only have added exact +0.0 to their lane.
  double lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const size_t n8 = n & ~static_cast<size_t>(7);
  size_t k = 0;
  for (; k < nnz && entries[k].first < n8; ++k) {
    lanes[entries[k].first & 7] += entries[k].second * y[entries[k].first];
  }
  const double c0 = lanes[0] + lanes[4], c1 = lanes[1] + lanes[5],
               c2 = lanes[2] + lanes[6], c3 = lanes[3] + lanes[7];
  double total = (c0 + c1) + (c2 + c3);
  for (; k < nnz; ++k) total += entries[k].second * y[entries[k].first];
  return total;
}

}  // namespace bolton
