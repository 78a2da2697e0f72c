#include "obs/telemetry.h"


#include <chrono>
#include <cstdio>

#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"
#include "util/failpoint.h"

namespace bolton {
namespace obs {

uint64_t MonotonicNanos() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch)
          .count());
}

void SetAllEnabled(bool enabled) {
  SetMetricsEnabled(enabled);
  SetTracingEnabled(enabled);
  PrivacyLedger::Default().SetEnabled(enabled);
  SetPerfCountersEnabled(enabled);
}

void UpdateProcessMemoryGauges() {
  if (!MetricsEnabled()) return;
  static Gauge* peak_rss =
      MetricsRegistry::Default().GetGauge("process.peak_rss_bytes");
  // /proc/self/status VmHWM: the kernel's high-water mark of the resident
  // set.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status != nullptr) {
    char line[256];
    while (std::fgets(line, sizeof(line), status) != nullptr) {
      unsigned long long kb = 0;
      if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) {
        peak_rss->Set(static_cast<double>(kb) * 1024.0);
        break;
      }
    }
    std::fclose(status);
  }
}

void InstallFailpointObsBridge() {
  FailpointRegistry::Default().SetObserver(
      [](const char* site, uint64_t hit, const char* action) {
        static Counter* fired =
            MetricsRegistry::Default().GetCounter("failpoints_fired");
        fired->Increment();
        PrivacyLedger::Default().Record(
            {.kind = "fault", .mechanism = action, .label = site, .step = hit});
      });
}

}  // namespace obs
}  // namespace bolton
