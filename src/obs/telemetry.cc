#include "obs/telemetry.h"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>

#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"
#include "util/failpoint.h"
#include "util/strings.h"

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
  TraceRecorder::Default().SetEnabled(enabled);
  PrivacyLedger::Default().SetEnabled(enabled);
  SetPerfCountersEnabled(enabled);
}

void UpdateProcessMemoryGauges() {
  if (!MetricsEnabled()) return;
  static Gauge* max_rss =
      MetricsRegistry::Default().GetGauge("process.max_rss_bytes");
  static Gauge* rss = MetricsRegistry::Default().GetGauge("process.rss_bytes");
  static Gauge* vm = MetricsRegistry::Default().GetGauge("process.vm_bytes");
  static Gauge* peak_rss =
      MetricsRegistry::Default().GetGauge("process.peak_rss_bytes");

  struct rusage usage {};
  if (::getrusage(RUSAGE_SELF, &usage) == 0) {
    // ru_maxrss is kilobytes on Linux.
    max_rss->Set(static_cast<double>(usage.ru_maxrss) * 1024.0);
  }
  // /proc/self/statm: "size resident ..." in pages.
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f != nullptr) {
    unsigned long long vm_pages = 0, rss_pages = 0;
    if (std::fscanf(f, "%llu %llu", &vm_pages, &rss_pages) == 2) {
      const double page = static_cast<double>(::sysconf(_SC_PAGESIZE));
      vm->Set(static_cast<double>(vm_pages) * page);
      rss->Set(static_cast<double>(rss_pages) * page);
    }
    std::fclose(f);
  }
  // /proc/self/status VmHWM: the peak resident set, which ru_maxrss can
  // under-report after memory is returned (it is never reset, but VmHWM
  // is the kernel's authoritative high-water mark).
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
        PrivacyLedger& ledger = PrivacyLedger::Default();
        if (!ledger.enabled()) return;
        LedgerEvent event;
        event.kind = "fault";
        event.mechanism = action;
        event.label = site;
        event.step = hit;
        ledger.Record(std::move(event));
      });
}

namespace internal {

Status WriteStringToFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal(
        StrFormat("cannot open '%s' for writing", path.c_str()));
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != content.size() || !close_ok) {
    return Status::Internal(StrFormat("short write to '%s'", path.c_str()));
  }
  return Status::OK();
}

}  // namespace internal
}  // namespace obs
}  // namespace bolton
