#include "util/logging.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "util/json.h"
#include "util/strings.h"
#include "util/thread_name.h"

namespace bolton {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kInfo};
std::atomic<bool> g_timestamps{false};
std::atomic<internal::SpanIdProvider> g_span_provider{nullptr};
std::atomic<internal::FatalHook> g_fatal_hook{nullptr};

const char* Basename(const char* file) {
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  return base;
}

/// The built-in stderr text sink. Its output is the project's historical
/// log format, byte for byte: "[I file.cc:42] msg" by default,
/// "[I 0.001234s <thread> file.cc:42] msg" with SetLogTimestamps(true),
/// where <thread> is the thread's name or "t<id>" when unnamed.
class StderrSink : public LogSink {
 public:
  void Write(const LogEvent& event) override {
    std::string line;
    line.reserve(event.message_len + 48);
    line += "[";
    line += LogLevelTag(event.level);
    line += " ";
    if (GetLogTimestamps()) {
      char stamp[96];
      if (event.thread_name[0] != '\0') {
        std::snprintf(stamp, sizeof(stamp), "%.6fs %s ",
                      static_cast<double>(event.mono_ns) * 1e-9,
                      event.thread_name);
      } else {
        std::snprintf(stamp, sizeof(stamp), "%.6fs t%llu ",
                      static_cast<double>(event.mono_ns) * 1e-9,
                      static_cast<unsigned long long>(event.thread_id));
      }
      line += stamp;
    }
    line += event.file;
    line += ":";
    line += std::to_string(event.line);
    line += "] ";
    line.append(event.message, event.message_len);
    line += "\n";
    std::fputs(line.c_str(), stderr);
  }
};

/// One JSON object per event, appended to a file. Registered through
/// OpenLogJsonlFile; Write() runs under the dispatch mutex so no lock of
/// its own is needed.
class JsonlFileSink : public LogSink {
 public:
  explicit JsonlFileSink(std::FILE* file) : file_(file) {}
  ~JsonlFileSink() override {
    if (file_ != nullptr) std::fclose(file_);
  }

  void Write(const LogEvent& event) override {
    std::string line = RenderLogEventJson(event);
    line += '\n';
    std::fwrite(line.data(), 1, line.size(), file_);
    // Flushed per line: the JSONL file is a diagnostic artifact that must
    // survive a crash immediately after the write.
    std::fflush(file_);
  }

 private:
  std::FILE* file_;
};

struct SinkRegistry {
  std::mutex mu;
  StderrSink stderr_sink;
  std::vector<LogSink*> extra_sinks;
  std::unique_ptr<JsonlFileSink> jsonl_sink;  // owned; also in extra_sinks
};

SinkRegistry& Sinks() {
  // Leaked: sinks must stay usable during static destruction (atexit
  // handlers and late CheckFailed paths may still log).
  static SinkRegistry* registry = new SinkRegistry();
  return *registry;
}

}  // namespace

void SetLogLevel(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}
LogLevel GetLogLevel() { return g_level.load(std::memory_order_relaxed); }

void SetLogTimestamps(bool enabled) {
  g_timestamps.store(enabled, std::memory_order_relaxed);
}
bool GetLogTimestamps() {
  return g_timestamps.load(std::memory_order_relaxed);
}

const char* LogLevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
  }
  return "?";
}

bool ParseLogLevel(const std::string& text, LogLevel* out) {
  std::string lower;
  lower.reserve(text.size());
  for (char c : text) {
    lower += static_cast<char>(c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c);
  }
  if (lower == "d" || lower == "debug") {
    *out = LogLevel::kDebug;
  } else if (lower == "i" || lower == "info") {
    *out = LogLevel::kInfo;
  } else if (lower == "w" || lower == "warning") {
    *out = LogLevel::kWarning;
  } else if (lower == "e" || lower == "error") {
    *out = LogLevel::kError;
  } else {
    return false;
  }
  return true;
}

void AddLogSink(LogSink* sink) {
  SinkRegistry& registry = Sinks();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (LogSink* existing : registry.extra_sinks) {
    if (existing == sink) return;
  }
  registry.extra_sinks.push_back(sink);
}

void RemoveLogSink(LogSink* sink) {
  SinkRegistry& registry = Sinks();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (auto it = registry.extra_sinks.begin();
       it != registry.extra_sinks.end(); ++it) {
    if (*it == sink) {
      registry.extra_sinks.erase(it);
      return;
    }
  }
}

std::string RenderLogEventJson(const LogEvent& event) {
  const std::string thread =
      event.thread_name[0] != '\0'
          ? std::string(event.thread_name)
          : StrFormat("t%llu", static_cast<unsigned long long>(event.thread_id));
  JsonWriter w;
  w.BeginObject().Field("mono_ns", event.mono_ns);
  w.Field("level", LogLevelTag(event.level)).Field("tid", event.thread_id);
  w.Field("thread", thread).Field("file", event.file);
  w.Field("line", event.line).Field("span", event.span_id);
  w.Field("msg", std::string_view(event.message, event.message_len));
  return w.EndObject().str();
}

Status OpenLogJsonlFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::IOError(
        StrFormat("cannot open log JSONL file '%s'", path.c_str()));
  }
  SinkRegistry& registry = Sinks();
  std::lock_guard<std::mutex> lock(registry.mu);
  if (registry.jsonl_sink != nullptr) {
    // Switching files: drop the old sink from the fan-out first.
    for (auto it = registry.extra_sinks.begin();
         it != registry.extra_sinks.end(); ++it) {
      if (*it == registry.jsonl_sink.get()) {
        registry.extra_sinks.erase(it);
        break;
      }
    }
  }
  registry.jsonl_sink = std::make_unique<JsonlFileSink>(file);
  registry.extra_sinks.push_back(registry.jsonl_sink.get());
  return Status::OK();
}

namespace internal {

uint64_t LogMonotonicNanos() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch)
          .count());
}

void SetLogSpanIdProvider(SpanIdProvider provider) {
  g_span_provider.store(provider, std::memory_order_relaxed);
}

void SetFatalHook(FatalHook hook) {
  g_fatal_hook.store(hook, std::memory_order_relaxed);
}

namespace {

/// A sink that logs (directly or transitively) must not re-enter the
/// dispatch path: recursive events are dropped instead of deadlocking on
/// the registry mutex.
bool& InDispatch() {
  thread_local bool in_dispatch = false;
  return in_dispatch;
}

LogEvent BuildEvent(LogLevel level, const char* file_basename, int line,
                    const char* message, size_t message_len) {
  LogEvent event;
  event.level = level;
  event.mono_ns = LogMonotonicNanos();
  event.thread_id = CurrentThreadSmallId();
  event.thread_name = internal::CurrentThreadNameCStr();
  event.file = file_basename;
  event.line = line;
  const SpanIdProvider provider =
      g_span_provider.load(std::memory_order_relaxed);
  event.span_id = provider != nullptr ? provider() : 0;
  event.message = message;
  event.message_len = message_len;
  return event;
}

void DispatchEvent(const LogEvent& event, bool include_stderr) {
  if (InDispatch()) return;
  InDispatch() = true;
  SinkRegistry& registry = Sinks();
  std::lock_guard<std::mutex> lock(registry.mu);
  if (include_stderr) registry.stderr_sink.Write(event);
  for (LogSink* sink : registry.extra_sinks) sink->Write(event);
  InDispatch() = false;
}

}  // namespace

void Dispatch(LogLevel level, const char* file_basename, int line,
              const char* message, size_t message_len) {
  DispatchEvent(BuildEvent(level, file_basename, line, message, message_len),
                /*include_stderr=*/true);
}

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : enabled_(level >= GetLogLevel()),
      level_(level),
      file_(Basename(file)),
      line_(line) {}

LogMessage::~LogMessage() {
  if (!enabled_) return;
  const std::string message = stream_.str();
  Dispatch(level_, file_, line_, message.c_str(), message.size());
}

void CheckFailed(const char* expr, const char* file, int line) {
  // The historical fatal line, byte-identical, straight to stderr (the
  // structured dispatch below deliberately skips the stderr sink so the
  // failure is printed exactly once).
  std::fprintf(stderr, "[F %s:%d] check failed: %s\n", file, line, expr);
  char message[512];
  std::snprintf(message, sizeof(message), "check failed: %s", expr);
  DispatchEvent(BuildEvent(LogLevel::kError, Basename(file), line, message,
                           std::strlen(message)),
                /*include_stderr=*/false);
  char fatal[640];
  std::snprintf(fatal, sizeof(fatal), "check failed: %s at %s:%d", expr,
                Basename(file), line);
  const FatalHook hook = g_fatal_hook.load(std::memory_order_relaxed);
  if (hook != nullptr) hook(fatal);
  std::abort();
}

}  // namespace internal
}  // namespace bolton
