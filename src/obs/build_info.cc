#include "obs/build_info.h"

#include "linalg/simd.h"
#include "obs/perf_counters.h"
#include "util/json.h"
#include "util/strings.h"

// The build system stamps these onto this one translation unit (see
// src/obs/CMakeLists.txt); the fallbacks keep non-CMake builds compiling.
#ifndef BOLTON_GIT_SHA
#define BOLTON_GIT_SHA "unknown"
#endif
#ifndef BOLTON_BUILD_TYPE
#define BOLTON_BUILD_TYPE "unknown"
#endif
#ifndef BOLTON_VERSION
#define BOLTON_VERSION "0.0.0"
#endif

namespace bolton {
namespace obs {

namespace {

std::string CompilerString() {
#if defined(__clang__)
  return StrFormat("clang %d.%d.%d", __clang_major__, __clang_minor__,
                   __clang_patchlevel__);
#elif defined(__GNUC__)
  return StrFormat("gcc %d.%d.%d", __GNUC__, __GNUC_MINOR__,
                   __GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

std::string SimdLevel() {
  // The tier the gradient kernels actually dispatch to (linalg/simd.h):
  // the BOLTON_SIMD override or the CPU probe — not merely what the CPU
  // supports. Cached with the rest of the build info at first read; a
  // later ScopedSimdTier test override is deliberately not reflected.
  return SimdTierName(ActiveSimdTier());
}

const char* PerfTierName(PerfTier tier) {
  switch (tier) {
    case PerfTier::kHardwareGroup:
      return "hardware-group";
    case PerfTier::kClockFallback:
      return "clock-fallback";
  }
  return "unknown";
}

}  // namespace

const BuildInfo& GetBuildInfo() {
  static const BuildInfo* info = [] {
    auto* b = new BuildInfo();
    b->version = BOLTON_VERSION;
    b->git_sha = BOLTON_GIT_SHA;
    b->build_type = BOLTON_BUILD_TYPE;
    b->compiler = CompilerString();
    b->simd = SimdLevel();
    b->perf_tier = PerfTierName(PerfCaps().tier);
    return b;
  }();
  return *info;
}

std::string RenderBuildInfoJson() {
  const BuildInfo& b = GetBuildInfo();
  JsonWriter w;
  w.BeginObject().Field("version", b.version).Field("git_sha", b.git_sha);
  w.Field("build_type", b.build_type).Field("compiler", b.compiler);
  w.Field("simd", b.simd).Field("perf_tier", b.perf_tier);
  return w.EndObject().str();
}

std::string BuildInfoSummaryLine() {
  const BuildInfo& b = GetBuildInfo();
  return StrFormat("boltondp %s (%s, %s, %s, %s, perf:%s)",
                   b.version.c_str(), b.git_sha.c_str(),
                   b.build_type.c_str(), b.compiler.c_str(), b.simd.c_str(),
                   b.perf_tier.c_str());
}

}  // namespace obs
}  // namespace bolton
