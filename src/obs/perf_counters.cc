#include "obs/perf_counters.h"

#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>

#include "obs/metrics.h"
#include "util/strings.h"

namespace bolton {
namespace obs {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<bool> g_force_unavailable{false};

/// Process totals (the sum of every outermost counting span). Plain relaxed
/// atomics: totals are diagnostics, not a release barrier.
std::atomic<uint64_t> g_total_cycles{0};
std::atomic<uint64_t> g_total_instructions{0};
std::atomic<uint64_t> g_total_cache_references{0};
std::atomic<uint64_t> g_total_cache_misses{0};
std::atomic<uint64_t> g_total_branch_misses{0};
std::atomic<uint64_t> g_total_task_clock_ns{0};
std::atomic<uint64_t> g_total_hw_contributions{0};

/// The five hardware events, in the fixed order the group is opened and
/// read (PERF_FORMAT_GROUP preserves open order).
struct HwEvent {
  uint32_t type;
  uint64_t config;
  const char* name;
};
constexpr HwEvent kHwEvents[] = {
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES, "cycles"},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS, "instructions"},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_REFERENCES, "cache-references"},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES, "cache-misses"},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES, "branch-misses"},
};
constexpr size_t kHwEventCount = sizeof(kHwEvents) / sizeof(kHwEvents[0]);

int OpenPerfEvent(uint32_t type, uint64_t config, int group_fd,
                  bool group_leader) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = type;
  attr.config = config;
  // User-space only: works at perf_event_paranoid <= 2 without privileges,
  // and "our code, not the kernel" is the attribution the solver needs.
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  // The leader starts disabled; the whole group is enabled with one ioctl
  // after every sibling opened, so all five counts cover the same interval.
  attr.disabled = group_leader ? 1 : 0;
  if (group_leader) attr.read_format = PERF_FORMAT_GROUP;
  return static_cast<int>(::syscall(SYS_perf_event_open, &attr, /*pid=*/0,
                                    /*cpu=*/-1, group_fd,
                                    PERF_FLAG_FD_CLOEXEC));
}

int ReadParanoidLevel() {
  std::FILE* f = std::fopen("/proc/sys/kernel/perf_event_paranoid", "r");
  if (f == nullptr) return -999;
  int level = -999;
  if (std::fscanf(f, "%d", &level) != 1) level = -999;
  std::fclose(f);
  return level;
}

/// Per-thread counter file descriptors, opened lazily at the probed tier.
/// The thread_local destructor closes them when the thread exits.
struct ThreadPerfState {
  bool initialized = false;
  int group_fd = -1;  // hardware group leader (cycles)
  int sibling_fds[kHwEventCount - 1] = {-1, -1, -1, -1};

  ~ThreadPerfState() {
    if (group_fd >= 0) ::close(group_fd);
    for (int fd : sibling_fds) {
      if (fd >= 0) ::close(fd);
    }
  }
};

ThreadPerfState& TlsPerf() {
  thread_local ThreadPerfState state;
  return state;
}

/// Opens the full hardware group for the calling thread. Returns false
/// (with everything closed again) if any event refuses to open — partial
/// groups would silently skew the derived rates.
bool OpenHardwareGroup(ThreadPerfState* state) {
  state->group_fd = OpenPerfEvent(kHwEvents[0].type, kHwEvents[0].config,
                                  /*group_fd=*/-1, /*group_leader=*/true);
  if (state->group_fd < 0) return false;
  for (size_t i = 1; i < kHwEventCount; ++i) {
    state->sibling_fds[i - 1] =
        OpenPerfEvent(kHwEvents[i].type, kHwEvents[i].config, state->group_fd,
                      /*group_leader=*/false);
    if (state->sibling_fds[i - 1] < 0) {
      for (size_t j = 1; j < i; ++j) {
        ::close(state->sibling_fds[j - 1]);
        state->sibling_fds[j - 1] = -1;
      }
      ::close(state->group_fd);
      state->group_fd = -1;
      return false;
    }
  }
  ::ioctl(state->group_fd, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
  ::ioctl(state->group_fd, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
  return true;
}

/// The task clock of every tier: the calling thread's on-CPU time.
uint64_t ThreadCpuClockNs() {
  timespec ts{};
  if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

PerfCapability Probe() {
  PerfCapability caps;
  ThreadPerfState probe_state;
  if (OpenHardwareGroup(&probe_state)) {
    caps.tier = PerfTier::kHardwareGroup;
    std::string names;
    for (const HwEvent& event : kHwEvents) {
      if (!names.empty()) names += ",";
      names += event.name;
    }
    caps.detail = StrFormat(
        "hardware group [%s]; task clock from CLOCK_THREAD_CPUTIME_ID",
        names.c_str());
    // probe_state's destructor closes the probe fds; every thread opens
    // its own group on first read.
    return caps;
  }
  const int hw_errno = errno;
  caps.tier = PerfTier::kClockFallback;
  caps.detail = StrFormat(
      "hardware counters unavailable (%s; perf_event_paranoid=%d); task "
      "clock from CLOCK_THREAD_CPUTIME_ID",
      std::strerror(hw_errno), ReadParanoidLevel());
  return caps;
}

bool ReadExactly(int fd, void* buffer, size_t size) {
  const ssize_t n = ::read(fd, buffer, size);
  return n == static_cast<ssize_t>(size);
}

}  // namespace

const PerfCapability& PerfCaps() {
  static const PerfCapability* caps = new PerfCapability(Probe());
  return *caps;
}

bool PerfCountersEnabled() {
  return g_enabled.load(std::memory_order_relaxed);
}

void SetPerfCountersEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool PerfHardwareAvailable() {
  return PerfCountersEnabled() &&
         PerfCaps().tier == PerfTier::kHardwareGroup &&
         !g_force_unavailable.load(std::memory_order_relaxed);
}

double PerfCounterDelta::Ipc() const {
  if (!available || cycles == 0) return 0.0;
  return static_cast<double>(instructions) / static_cast<double>(cycles);
}

double PerfCounterDelta::CacheMissRate() const {
  if (!available || cache_references == 0) return 0.0;
  return static_cast<double>(cache_misses) /
         static_cast<double>(cache_references);
}

double PerfCounterDelta::BranchMissRate() const {
  if (!available || instructions == 0) return 0.0;
  return static_cast<double>(branch_misses) /
         static_cast<double>(instructions);
}

PerfCounterDelta& PerfCounterDelta::operator+=(const PerfCounterDelta& o) {
  available = available || o.available;
  cycles += o.cycles;
  instructions += o.instructions;
  cache_references += o.cache_references;
  cache_misses += o.cache_misses;
  branch_misses += o.branch_misses;
  task_clock_ns += o.task_clock_ns;
  return *this;
}

PerfCounterDelta PerfCounterDelta::operator-(
    const PerfCounterDelta& o) const {
  auto sub = [](uint64_t a, uint64_t b) { return a >= b ? a - b : 0; };
  PerfCounterDelta out;
  out.available = available;
  out.cycles = sub(cycles, o.cycles);
  out.instructions = sub(instructions, o.instructions);
  out.cache_references = sub(cache_references, o.cache_references);
  out.cache_misses = sub(cache_misses, o.cache_misses);
  out.branch_misses = sub(branch_misses, o.branch_misses);
  out.task_clock_ns = sub(task_clock_ns, o.task_clock_ns);
  return out;
}

PerfReading ReadCurrentThreadPerf() {
  PerfReading reading;
  if (!PerfCountersEnabled()) return reading;
  reading.valid = true;
  if (g_force_unavailable.load(std::memory_order_relaxed)) {
    reading.task_clock_ns = ThreadCpuClockNs();
    return reading;
  }
  ThreadPerfState& state = TlsPerf();
  if (!state.initialized) {
    // A thread whose own open fails (e.g. fd exhaustion late in a run)
    // degrades alone, never the process.
    state.initialized = true;
    if (PerfCaps().tier == PerfTier::kHardwareGroup) {
      OpenHardwareGroup(&state);
    }
  }
  if (state.group_fd >= 0) {
    // PERF_FORMAT_GROUP layout: { u64 nr; u64 values[nr]; } in open order.
    uint64_t buffer[1 + kHwEventCount] = {0};
    if (ReadExactly(state.group_fd, buffer, sizeof(buffer)) &&
        buffer[0] == kHwEventCount) {
      reading.hardware = true;
      for (size_t i = 0; i < kHwEventCount; ++i) {
        reading.values[i] = buffer[1 + i];
      }
    }
  }
  reading.task_clock_ns = ThreadCpuClockNs();
  return reading;
}

PerfCounterDelta DeltaBetween(const PerfReading& start,
                              const PerfReading& end) {
  PerfCounterDelta delta;
  if (!start.valid || !end.valid) return delta;
  auto sub = [](uint64_t a, uint64_t b) { return a >= b ? a - b : 0; };
  delta.available = start.hardware && end.hardware;
  if (delta.available) {
    delta.cycles = sub(end.values[0], start.values[0]);
    delta.instructions = sub(end.values[1], start.values[1]);
    delta.cache_references = sub(end.values[2], start.values[2]);
    delta.cache_misses = sub(end.values[3], start.values[3]);
    delta.branch_misses = sub(end.values[4], start.values[4]);
  }
  delta.task_clock_ns = sub(end.task_clock_ns, start.task_clock_ns);
  return delta;
}

PerfCounterDelta ProcessPerfTotals() {
  PerfCounterDelta totals;
  totals.available =
      g_total_hw_contributions.load(std::memory_order_relaxed) > 0;
  totals.cycles = g_total_cycles.load(std::memory_order_relaxed);
  totals.instructions = g_total_instructions.load(std::memory_order_relaxed);
  totals.cache_references =
      g_total_cache_references.load(std::memory_order_relaxed);
  totals.cache_misses = g_total_cache_misses.load(std::memory_order_relaxed);
  totals.branch_misses =
      g_total_branch_misses.load(std::memory_order_relaxed);
  totals.task_clock_ns =
      g_total_task_clock_ns.load(std::memory_order_relaxed);
  return totals;
}

void AddProcessPerfTotals(const PerfCounterDelta& delta) {
  if (delta.available) {
    g_total_hw_contributions.fetch_add(1, std::memory_order_relaxed);
    g_total_cycles.fetch_add(delta.cycles, std::memory_order_relaxed);
    g_total_instructions.fetch_add(delta.instructions,
                                   std::memory_order_relaxed);
    g_total_cache_references.fetch_add(delta.cache_references,
                                       std::memory_order_relaxed);
    g_total_cache_misses.fetch_add(delta.cache_misses,
                                   std::memory_order_relaxed);
    g_total_branch_misses.fetch_add(delta.branch_misses,
                                    std::memory_order_relaxed);
  }
  g_total_task_clock_ns.fetch_add(delta.task_clock_ns,
                                  std::memory_order_relaxed);
}

void UpdatePerfGauges() {
  if (!MetricsEnabled()) return;
  static Gauge* available =
      MetricsRegistry::Default().GetGauge("perf.available");
  static Gauge* cycles =
      MetricsRegistry::Default().GetGauge("perf.cycles_total");
  static Gauge* instructions =
      MetricsRegistry::Default().GetGauge("perf.instructions_total");
  static Gauge* ipc = MetricsRegistry::Default().GetGauge("perf.ipc");
  static Gauge* cache_miss_rate =
      MetricsRegistry::Default().GetGauge("perf.cache_miss_rate");
  static Gauge* branch_miss_rate =
      MetricsRegistry::Default().GetGauge("perf.branch_miss_rate");
  static Gauge* task_clock = MetricsRegistry::Default().GetGauge(
      "perf.task_clock_seconds_total");

  available->Set(PerfHardwareAvailable() ? 1.0 : 0.0);
  const PerfCounterDelta totals = ProcessPerfTotals();
  cycles->Set(static_cast<double>(totals.cycles));
  instructions->Set(static_cast<double>(totals.instructions));
  ipc->Set(totals.Ipc());
  cache_miss_rate->Set(totals.CacheMissRate());
  branch_miss_rate->Set(totals.BranchMissRate());
  task_clock->Set(static_cast<double>(totals.task_clock_ns) * 1e-9);
}

namespace internal {
void ForcePerfUnavailableForTest(bool force) {
  g_force_unavailable.store(force, std::memory_order_relaxed);
}
}  // namespace internal

}  // namespace obs
}  // namespace bolton
