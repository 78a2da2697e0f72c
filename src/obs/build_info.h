#ifndef BOLTON_OBS_BUILD_INFO_H_
#define BOLTON_OBS_BUILD_INFO_H_

#include <string>

namespace bolton {
namespace obs {

/// What binary is this? Every diagnostic artifact answers it the same way:
/// `boltondp version` prints it, the obs HTTP server serves it at /buildz,
/// crash postmortems and bench result JSON embed it — so a report can
/// always be traced back to a commit and a build configuration.
struct BuildInfo {
  std::string version;     // project version (CMake)
  std::string git_sha;     // short commit sha + "-dirty", or "unknown"
  std::string build_type;  // CMAKE_BUILD_TYPE ("RelWithDebInfo", "Debug")
  std::string compiler;    // "gcc 13.2.0" / "clang 17.0.1"
  /// SIMD tier the gradient kernels dispatch to (linalg/simd.h: runtime
  /// CPU probe, overridable via BOLTON_SIMD): "avx512", "avx2", "sse2",
  /// or "scalar".
  std::string simd;
  /// Perf-counter capability tier of this host (obs/perf_counters.h):
  /// "hardware-group" or "clock-fallback".
  std::string perf_tier;
};

/// The process's build info; the runtime fields are probed once on first
/// call and cached.
const BuildInfo& GetBuildInfo();

/// One JSON object, e.g. {"version":"1.0.0","git_sha":"11e6495", ...}.
/// The single rendering path for /buildz, the postmortem "build" key, and
/// the bench-JSON "build" key.
std::string RenderBuildInfoJson();

/// One human line for `boltondp version`:
/// "boltondp 1.0.0 (11e6495, RelWithDebInfo, gcc 13.2.0, avx2, ...)".
std::string BuildInfoSummaryLine();

}  // namespace obs
}  // namespace bolton

#endif  // BOLTON_OBS_BUILD_INFO_H_
