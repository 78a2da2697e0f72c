#include "obs/postmortem.h"

#include <execinfo.h>
#include <fcntl.h>
#include <link.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>

#include "obs/build_info.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/atomic_file.h"
#include "util/failpoint.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/symbolize.h"
#include "util/thread_name.h"

namespace bolton {
namespace obs {

namespace {

constexpr int kMaxFrames = 64;
constexpr int kMaxModules = 64;

/// One loaded object, captured at install time. Frames are written to the
/// raw file as (module path, pc - relocation base): the offset survives
/// ASLR, so a fresh `boltondp postmortem finalize` process of the same
/// binary can re-base and symbolize what a dead process recorded.
struct Module {
  char path[256];
  uintptr_t base;  // relocation base (dlpi_addr; 0 for non-PIE main exe)
  uintptr_t lo;    // lowest / highest mapped address, for pc matching
  uintptr_t hi;
};

Module g_modules[kMaxModules];
int g_module_count = 0;

/// All fixed-size, all set up in InstallCrashHandler — the handler itself
/// only loads and write(2)s.
char g_dir[256] = {0};
char g_raw_path[320] = {0};
std::atomic<int> g_raw_fd{-1};
std::atomic<bool> g_installed{false};
/// One postmortem per process: set by the first crash path to run, so the
/// SIGABRT that follows a failed check, or a fatal signal raised while a
/// record is being written, goes straight to the default action.
std::atomic<bool> g_crashed{false};
FlightRecorder* g_recorder = nullptr;

int CaptureModule(struct dl_phdr_info* info, size_t, void*) {
  if (g_module_count >= kMaxModules) return 1;
  Module& m = g_modules[g_module_count];
  if (info->dlpi_name != nullptr && info->dlpi_name[0] != '\0') {
    std::snprintf(m.path, sizeof(m.path), "%s", info->dlpi_name);
  } else {
    // The main executable reports an empty name; use its real path so
    // finalize can match it by string.
    const ssize_t n =
        ::readlink("/proc/self/exe", m.path, sizeof(m.path) - 1);
    m.path[n > 0 ? n : 0] = '\0';
  }
  m.base = info->dlpi_addr;
  m.lo = UINTPTR_MAX;
  m.hi = 0;
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const auto& phdr = info->dlpi_phdr[i];
    if (phdr.p_type != PT_LOAD) continue;
    const uintptr_t lo = info->dlpi_addr + phdr.p_vaddr;
    const uintptr_t hi = lo + phdr.p_memsz;
    if (lo < m.lo) m.lo = lo;
    if (hi > m.hi) m.hi = hi;
  }
  if (m.hi > m.lo) ++g_module_count;
  return 0;
}

const Module* FindModule(uintptr_t pc) {
  for (int i = 0; i < g_module_count; ++i) {
    if (pc >= g_modules[i].lo && pc < g_modules[i].hi) return &g_modules[i];
  }
  return nullptr;
}

const char* SignalName(int sig) {
  switch (sig) {
    case SIGSEGV:
      return "SIGSEGV";
    case SIGBUS:
      return "SIGBUS";
    case SIGFPE:
      return "SIGFPE";
    case SIGILL:
      return "SIGILL";
    case SIGABRT:
      return "SIGABRT";
  }
  return "UNKNOWN";
}

/// VmHWM from /proc/self/status with open/read/close only.
uint64_t PeakRssBytesSignalSafe() {
  const int fd = ::open("/proc/self/status", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return 0;
  char buf[4096];
  ssize_t total = 0;
  while (total < static_cast<ssize_t>(sizeof(buf)) - 1) {
    const ssize_t n = ::read(fd, buf + total, sizeof(buf) - 1 - total);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    total += n;
  }
  ::close(fd);
  buf[total] = '\0';
  const char* key = "VmHWM:";
  for (ssize_t i = 0; i + 6 < total; ++i) {
    bool match = (i == 0 || buf[i - 1] == '\n');
    for (int k = 0; match && k < 6; ++k) match = buf[i + k] == key[k];
    if (!match) continue;
    uint64_t kb = 0;
    for (ssize_t j = i + 6; j < total && buf[j] != '\n'; ++j) {
      if (buf[j] >= '0' && buf[j] <= '9') kb = kb * 10 + (buf[j] - '0');
    }
    return kb * 1024;
  }
  return 0;
}

void RestoreAndReraise(int sig) {
  struct sigaction dfl;
  std::memset(&dfl, 0, sizeof(dfl));
  dfl.sa_handler = SIG_DFL;
  ::sigaction(sig, &dfl, nullptr);
  ::raise(sig);
}

/// Writes the raw record (`pmraw` ... `pmend`) that FinalizePostmortem
/// renders, with write(2) only: the one crash-report writer, run by the
/// signal handler and by a failed check alike. A failed check passes its
/// message and writes a `fatal |<message>` line; a signal writes its
/// `signal` and `fault` lines instead.
void WriteRawRecord(int fd, int sig, const void* fault_addr,
                    const char* fatal_message) {
  // One line per record, built by the flight recorder's signal-safe
  // writer (obs/flight_recorder.h).
  internal::LineBuilder line;
  line.Text("pmraw bolton-postmortem-raw-v1");
  line.Flush(fd);
  if (fatal_message != nullptr) {
    line.Text("fatal |");
    line.Message(fatal_message);
    line.Flush(fd);
  } else {
    line.Text("signal ");
    line.Uint(static_cast<uint64_t>(sig));
    line.Text(" ");
    line.Text(SignalName(sig));
    line.Flush(fd);
    line.Text("fault ");
    line.Hex(reinterpret_cast<uint64_t>(fault_addr));
    line.Flush(fd);
  }

  line.Text("crash ");
  line.Uint(bolton::internal::LogMonotonicNanos());
  line.Text(" ");
  line.Uint(CurrentThreadSmallId());
  line.Text(" ");
  line.Token(bolton::internal::CurrentThreadNameCStr());
  line.Flush(fd);

  // The crashing thread's open span stack (ids + literal names, read
  // straight from its own TLS; see obs/trace.h ThreadSpanState).
  const internal::ThreadSpanState& spans = internal::ThreadState();
  const int depth = spans.depth < internal::ThreadSpanState::kMaxStack
                        ? spans.depth
                        : internal::ThreadSpanState::kMaxStack;
  for (int i = 0; i < depth; ++i) {
    if (spans.stack_names[i] == nullptr) continue;
    line.Text("span ");
    line.Uint(spans.stack_ids[i]);
    line.Text(" ");
    line.Token(spans.stack_names[i]);
    line.Flush(fd);
  }

  void* pcs[kMaxFrames];
  const int n_frames = ::backtrace(pcs, kMaxFrames);
  for (int i = 0; i < n_frames; ++i) {
    const uintptr_t pc = reinterpret_cast<uintptr_t>(pcs[i]);
    const Module* module = FindModule(pc);
    line.Text("frame ");
    if (module != nullptr) {
      line.Token(module->path);
      line.Text(" ");
      line.Hex(pc - module->base);
    } else {
      line.Text("? ");
      line.Hex(pc);
    }
    line.Flush(fd);
  }

  line.Text("peakrss ");
  line.Uint(PeakRssBytesSignalSafe());
  line.Flush(fd);
  line.Text("failpoints ");
  line.Token(ArmedFailpointSpecCStr());
  line.Flush(fd);

  if (g_recorder != nullptr) g_recorder->WriteRawTo(fd);
  line.Text("pmend");
  line.Flush(fd);
  ::fsync(fd);
}

void CrashSignalHandler(int sig, siginfo_t* info, void*) {
  const int fd = g_raw_fd.load(std::memory_order_acquire);
  if (fd >= 0 && !g_crashed.exchange(true)) {
    WriteRawRecord(fd, sig, info != nullptr ? info->si_addr : nullptr,
                   nullptr);
  }
  RestoreAndReraise(sig);
}

void CleanExitCleanup() {
  // Clean exit: nothing crashed, so drop the empty pre-opened raw file
  // instead of leaving confusing litter next to real postmortems.
  const int fd = g_raw_fd.exchange(-1);
  if (fd < 0) return;
  struct stat st;
  const bool empty = ::fstat(fd, &st) == 0 && st.st_size == 0;
  ::close(fd);
  if (empty && g_raw_path[0] != '\0') ::unlink(g_raw_path);
}

/// A failed BOLTON_CHECK, in normal context: the same raw record as a
/// signal, rendered at once so postmortem.json exists before abort().
void FatalHook(const char* message) {
  const int fd = g_raw_fd.load(std::memory_order_acquire);
  if (fd < 0 || g_crashed.exchange(true)) return;
  g_recorder->SnapshotMetricsNow();
  WriteRawRecord(fd, 0, nullptr, message != nullptr ? message : "");
  // Nothing useful to do with a failure here: the process is about to
  // abort either way, and the raw record stays for a later finalize.
  (void)FinalizePostmortem(g_dir);
}

}  // namespace

Status InstallCrashHandler(const PostmortemOptions& options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("postmortem dir must not be empty");
  }
  if (::mkdir(options.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError(StrFormat("cannot create postmortem dir '%s'",
                                     options.dir.c_str()));
  }
  std::snprintf(g_dir, sizeof(g_dir), "%s", options.dir.c_str());
  std::snprintf(g_raw_path, sizeof(g_raw_path), "%s/postmortem.raw",
                options.dir.c_str());
  const int fd =
      ::open(g_raw_path, O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0600);
  if (fd < 0) {
    return Status::IOError(
        StrFormat("cannot open '%s' for writing", g_raw_path));
  }
  const int old_fd = g_raw_fd.exchange(fd, std::memory_order_release);
  if (old_fd >= 0) ::close(old_fd);

  if (g_installed.exchange(true)) return Status::OK();  // dir switched

  // Everything the handler will touch gets primed now, while allocation
  // is still legal: the module table, the monotonic epochs, the flight
  // recorder singleton (whose construction takes a lock), the thread's
  // span TLS, and backtrace() itself (its first call may dlopen libgcc).
  g_module_count = 0;
  ::dl_iterate_phdr(&CaptureModule, nullptr);
  bolton::internal::LogMonotonicNanos();
  MonotonicNanos();
  g_recorder = &FlightRecorder::Default();
  internal::ThreadState();
  void* prime[4];
  ::backtrace(prime, 4);

  // Fixed size rather than SIGSTKSZ, which is no longer a compile-time
  // constant on modern glibc.
  static char alt_stack[64 * 1024];
  stack_t ss;
  std::memset(&ss, 0, sizeof(ss));
  ss.ss_sp = alt_stack;
  ss.ss_size = sizeof(alt_stack);
  ::sigaltstack(&ss, nullptr);

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = &CrashSignalHandler;
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
  ::sigemptyset(&sa.sa_mask);
  for (const int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT}) {
    ::sigaction(sig, &sa, nullptr);
  }

  bolton::internal::SetFatalHook(&FatalHook);
  std::atexit(&CleanExitCleanup);
  return Status::OK();
}

std::string RenderPostmortemJson(const PostmortemReport& report) {
  JsonWriter w;
  w.BeginObject().Field("schema", "bolton-postmortem-v1");
  w.Field("reason", report.reason);
  if (report.reason == "signal") {
    w.Key("signal").BeginObject().Field("number", report.signal_number);
    w.Field("name", report.signal_name).Field("fault_addr", report.fault_addr);
    w.EndObject();
  }
  if (!report.fatal_message.empty()) {
    w.Field("fatal_message", report.fatal_message);
  }
  w.Key("crash").BeginObject().Field("mono_ns", report.mono_ns);
  w.Field("thread_id", report.thread_id);
  w.Field("thread_name", report.thread_name).EndObject();
  w.Key("build").Raw(RenderBuildInfoJson());
  w.Key("backtrace").BeginArray();
  for (const PostmortemReport::Frame& f : report.frames) {
    w.BeginObject().Field("module", f.module);
    w.Field("offset",
            StrFormat("0x%llx", static_cast<unsigned long long>(f.offset)));
    w.Field("pc", StrFormat("0x%llx", static_cast<unsigned long long>(f.pc)));
    w.Field("symbol", f.symbol).Field("resolved", f.resolved).EndObject();
  }
  w.EndArray().Key("active_spans").BeginArray();
  for (const auto& [id, name] : report.active_spans) {
    w.BeginObject().Field("id", id).Field("name", name).EndObject();
  }
  w.EndArray().Key("recent_logs").BeginArray();
  for (const RecordedLogEvent& event : report.recent_logs) {
    w.Raw(RenderRecordedLogJson(event));
  }
  w.EndArray().Key("log_ring").Raw(RenderRingStatsJson(report.log_ring));
  w.Key("recent_spans").BeginArray();
  for (const SpanRecord& span : report.recent_spans) {
    w.Raw(RenderSpanJson(span));
  }
  w.EndArray().Key("span_ring").Raw(RenderRingStatsJson(report.span_ring));
  w.Key("metrics").BeginArray();
  for (const RecordedMetric& metric : report.metrics) {
    w.Raw(RenderRecordedMetricJson(metric));
  }
  w.EndArray().Field("peak_rss_bytes", report.peak_rss_bytes);
  return w.Field("failpoints", report.failpoints).EndObject().str();
}

namespace {

/// ----- raw-file parsing (finalize path; normal context) -----

uint64_t ParseUintToken(const std::string& token) {
  uint64_t v = 0;
  size_t i = 0;
  int base = 10;
  if (token.size() > 2 && token[0] == '0' && token[1] == 'x') {
    base = 16;
    i = 2;
  }
  for (; i < token.size(); ++i) {
    const char c = token[i];
    uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (base == 16 && c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a' + 10);
    } else {
      break;
    }
    v = v * static_cast<uint64_t>(base) + digit;
  }
  return v;
}

/// Re-bases a (module, offset) frame in the current process and
/// symbolizes it. `bases` maps module path -> relocation base here.
PostmortemReport::Frame ResolveFrame(
    const std::string& module, uint64_t offset,
    const std::map<std::string, uintptr_t>& bases) {
  PostmortemReport::Frame frame;
  frame.module = module;
  frame.offset = offset;
  const auto it = bases.find(module);
  if (it == bases.end()) {
    frame.symbol = StrFormat("[%s+0x%llx]", module.c_str(),
                             static_cast<unsigned long long>(offset));
    return frame;
  }
  frame.pc = it->second + offset;
  // The crash pc is the *return address* for every non-leaf frame;
  // symbolizing it directly is close enough for a postmortem.
  const SymbolizedPc symbol =
      SymbolizePc(reinterpret_cast<void*>(frame.pc));
  frame.symbol = symbol.name;
  frame.resolved = symbol.resolved;
  return frame;
}

int CollectBase(struct dl_phdr_info* info, size_t, void* arg) {
  auto* bases = static_cast<std::map<std::string, uintptr_t>*>(arg);
  std::string path;
  if (info->dlpi_name != nullptr && info->dlpi_name[0] != '\0') {
    path = info->dlpi_name;
  } else {
    char exe[256];
    const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (n > 0) path.assign(exe, static_cast<size_t>(n));
  }
  if (!path.empty()) (*bases)[path] = info->dlpi_addr;
  return 0;
}

}  // namespace

Status FinalizePostmortem(const std::string& dir) {
  const std::string raw_path = dir + "/postmortem.raw";
  const std::string json_path = dir + "/postmortem.json";
  std::FILE* raw = std::fopen(raw_path.c_str(), "r");
  std::string content;
  if (raw != nullptr) {
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), raw)) > 0) {
      content.append(buf, n);
    }
    std::fclose(raw);
  }
  if (content.empty()) {
    return Status::NotFound(
        StrFormat("no crash recorded in '%s'", dir.c_str()));
  }

  std::map<std::string, uintptr_t> bases;
  ::dl_iterate_phdr(&CollectBase, &bases);

  PostmortemReport report;
  report.reason = "signal";
  for (const std::string& line : StrSplit(content, '\n')) {
    if (line.empty()) continue;
    // The message part of an fllog or fatal line may contain spaces;
    // split it off at the " |" delimiter before tokenizing.
    std::string head = line;
    std::string message;
    const size_t bar = line.find(" |");
    if (bar != std::string::npos &&
        (StartsWith(line, "fllog ") || StartsWith(line, "fatal "))) {
      head = line.substr(0, bar);
      message = line.substr(bar + 2);
    }
    const std::vector<std::string> tokens = StrSplit(head, ' ');
    if (tokens.empty()) continue;
    const std::string& tag = tokens[0];
    if (tag == "fatal") {
      report.reason = "check_failure";
      report.fatal_message = message;
    } else if (tag == "signal" && tokens.size() >= 3) {
      report.signal_number = static_cast<int>(ParseUintToken(tokens[1]));
      report.signal_name = tokens[2];
    } else if (tag == "fault" && tokens.size() >= 2) {
      report.fault_addr = tokens[1];
    } else if (tag == "crash" && tokens.size() >= 4) {
      report.mono_ns = ParseUintToken(tokens[1]);
      report.thread_id = ParseUintToken(tokens[2]);
      report.thread_name = DecodeToken(tokens[3]);
    } else if (tag == "span" && tokens.size() >= 3) {
      report.active_spans.emplace_back(ParseUintToken(tokens[1]),
                                       tokens[2]);
    } else if (tag == "frame" && tokens.size() >= 3) {
      if (tokens[1] == "?") {
        PostmortemReport::Frame frame;
        frame.pc = ParseUintToken(tokens[2]);
        frame.symbol = StrFormat(
            "[0x%llx]", static_cast<unsigned long long>(frame.pc));
        report.frames.push_back(std::move(frame));
      } else {
        report.frames.push_back(
            ResolveFrame(tokens[1], ParseUintToken(tokens[2]), bases));
      }
    } else if (tag == "peakrss" && tokens.size() >= 2) {
      report.peak_rss_bytes = ParseUintToken(tokens[1]);
    } else if (tag == "failpoints" && tokens.size() >= 2) {
      report.failpoints = DecodeToken(tokens[1]);
    } else if (tag == "flstats" && tokens.size() >= 5) {
      RingStats stats{ParseUintToken(tokens[2]), ParseUintToken(tokens[3]),
                      ParseUintToken(tokens[4])};
      if (tokens[1] == "logs") {
        report.log_ring = stats;
      } else if (tokens[1] == "spans") {
        report.span_ring = stats;
      }
    } else if (tag == "fllog" && tokens.size() >= 9) {
      RecordedLogEvent event;
      event.seq = ParseUintToken(tokens[1]);
      event.mono_ns = ParseUintToken(tokens[2]);
      if (!ParseLogLevel(tokens[3], &event.level)) {
        event.level = LogLevel::kInfo;
      }
      event.thread_id = ParseUintToken(tokens[4]);
      event.span_id = ParseUintToken(tokens[5]);
      event.line = static_cast<int>(ParseUintToken(tokens[6]));
      event.thread_name = DecodeToken(tokens[7]);
      event.file = DecodeToken(tokens[8]);
      event.message = message;
      report.recent_logs.push_back(std::move(event));
    } else if (tag == "flspan" && tokens.size() >= 16) {
      SpanRecord span;
      span.id = ParseUintToken(tokens[1]);
      span.parent_id = ParseUintToken(tokens[2]);
      span.depth = static_cast<int>(ParseUintToken(tokens[3]));
      span.start_ns = ParseUintToken(tokens[4]);
      span.duration_ns = ParseUintToken(tokens[5]);
      span.thread_id = ParseUintToken(tokens[6]);
      const uint64_t counter_flags = ParseUintToken(tokens[7]);
      span.has_counters = (counter_flags & 1) != 0;
      PerfCounterDelta& c = span.counters;
      c.available = (counter_flags & 2) != 0;
      c.cycles = ParseUintToken(tokens[8]);
      c.instructions = ParseUintToken(tokens[9]);
      c.cache_references = ParseUintToken(tokens[10]);
      c.cache_misses = ParseUintToken(tokens[11]);
      c.branch_misses = ParseUintToken(tokens[12]);
      c.task_clock_ns = ParseUintToken(tokens[13]);
      span.thread_name = DecodeToken(tokens[14]);
      span.name = DecodeToken(tokens[15]);
      report.recent_spans.push_back(std::move(span));
    } else if (tag == "flmetric" && tokens.size() >= 4) {
      RecordedMetric metric;
      metric.kind = tokens[1].empty() ? 'g' : tokens[1][0];
      const uint64_t bits = ParseUintToken(tokens[2]);
      if (metric.kind == 'c') {
        metric.value = static_cast<double>(bits);
      } else {
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        metric.value = v;
      }
      metric.name = DecodeToken(tokens[3]);
      report.metrics.push_back(std::move(metric));
    }
  }

  return AtomicWriteFile(json_path, RenderPostmortemJson(report), 0666);
}

}  // namespace obs
}  // namespace bolton
