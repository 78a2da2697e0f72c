#ifndef BOLTON_OBS_TELEMETRY_H_
#define BOLTON_OBS_TELEMETRY_H_

#include <cstdint>

namespace bolton {
namespace obs {

/// Shared primitives for the telemetry pillars (obs/metrics.h, obs/trace.h,
/// obs/ledger.h).
///
/// Every pillar is off by default and its recording calls reduce to a branch
/// on a relaxed atomic when disabled, so instrumented hot paths stay honest
/// in runtime measurements (the Figure 5 overhead contract; see DESIGN.md
/// "Observability").

/// Nanoseconds on the process-wide monotonic clock (steady_clock), relative
/// to the first telemetry call. Never goes backwards; unrelated to wall time.
uint64_t MonotonicNanos();

/// Master switch: flips metrics, trace, ledger, and perf-counter
/// recording together.
void SetAllEnabled(bool enabled);

/// Refreshes the process memory gauge process.peak_rss_bytes (VmHWM in
/// /proc/self/status) in the default registry. Polled on read: the obs
/// HTTP server calls this on every /metrics scrape and the CLI/bench dump
/// paths call it before rendering, so the gauge is fresh wherever it is
/// observed without a dedicated poller thread.
void UpdateProcessMemoryGauges();

/// Wires the fault-injection registry (util/failpoint.h — a layer below
/// obs, so it cannot call us directly) into the telemetry pillars: every
/// fired failpoint increments the `failpoints_fired` counter and, when
/// the ledger is enabled, records a "fault" event carrying the site (as
/// label), hit count (as step), and action. Idempotent; installed by the
/// CLI/bench surfaces that enable telemetry.
void InstallFailpointObsBridge();

}  // namespace obs
}  // namespace bolton

#endif  // BOLTON_OBS_TELEMETRY_H_
