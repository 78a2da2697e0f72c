#include "util/failpoint.h"

#include <chrono>
#include <cstdlib>
#include <string_view>
#include <thread>
#include <utility>

#include "util/logging.h"
#include "util/strings.h"

namespace bolton {

namespace {

/// The raw spec of the currently armed site set, mirrored into a fixed
/// buffer so the crash handler (obs/postmortem.cc) can embed it in a
/// postmortem with plain async-signal-safe loads — the registry's map and
/// mutex are off-limits in signal context. Written under the registry
/// lock; a torn read during a concurrent Configure garbles at worst the
/// text, never memory safety.
char g_armed_spec[256] = {0};

void StashArmedSpec(const std::string& spec) {
  const size_t n = spec.size() < sizeof(g_armed_spec) - 1
                       ? spec.size()
                       : sizeof(g_armed_spec) - 1;
  for (size_t i = 0; i < n; ++i) g_armed_spec[i] = spec[i];
  g_armed_spec[n] = '\0';
}

/// Parses the numeric operand after a fixed prefix ("error@", "1in", ...).
Result<uint64_t> ParseOperand(const std::string& action,
                              const std::string& text) {
  auto parsed = ParseU64(text);
  if (!parsed.ok() || parsed.value() < 1) {
    return Status::InvalidArgument(StrFormat(
        "failpoint action '%s' needs a positive integer operand, got '%s'",
        action.c_str(), text.c_str()));
  }
  return parsed.value();
}

}  // namespace

FailpointRegistry& FailpointRegistry::Default() {
  static FailpointRegistry* registry = [] {
    auto* r = new FailpointRegistry();
    Status status = r->ConfigureFromEnv();
    if (!status.ok()) {
      BOLTON_LOG(kWarning) << "ignoring malformed BOLTON_FAILPOINTS: "
                           << status.ToString();
    }
    return r;
  }();
  return *registry;
}

Status FailpointRegistry::ParseAction(const std::string& text, Site* site) {
  if (text == "off") {
    site->action = Action::kOff;
    return Status::OK();
  }
  if (text == "error") {
    site->action = Action::kErrorAlways;
    return Status::OK();
  }
  if (text == "panic") {
    site->action = Action::kPanic;
    site->n = 1;
    return Status::OK();
  }
  if (StartsWith(text, "error@")) {
    BOLTON_ASSIGN_OR_RETURN(site->n, ParseOperand("error@", text.substr(6)));
    site->action = Action::kErrorAtHit;
    return Status::OK();
  }
  if (StartsWith(text, "error*")) {
    BOLTON_ASSIGN_OR_RETURN(site->n, ParseOperand("error*", text.substr(6)));
    site->action = Action::kErrorFirstN;
    return Status::OK();
  }
  if (StartsWith(text, "1in")) {
    BOLTON_ASSIGN_OR_RETURN(site->n, ParseOperand("1in", text.substr(3)));
    site->action = Action::kEveryNth;
    return Status::OK();
  }
  if (StartsWith(text, "panic@")) {
    BOLTON_ASSIGN_OR_RETURN(site->n, ParseOperand("panic@", text.substr(6)));
    site->action = Action::kPanic;
    return Status::OK();
  }
  if (StartsWith(text, "delay@")) {
    BOLTON_ASSIGN_OR_RETURN(site->n, ParseOperand("delay@", text.substr(6)));
    site->action = Action::kDelay;
    return Status::OK();
  }
  return Status::InvalidArgument(StrFormat(
      "unknown failpoint action '%s' (error[@N|*N]|1inN|panic[@N]|delay@MS|"
      "off)",
      text.c_str()));
}

Status FailpointRegistry::Configure(const std::string& spec) {
  std::map<std::string, Site> parsed;
  for (const std::string& raw : StrSplit(spec, ';')) {
    const std::string entry(StripWhitespace(raw));
    if (entry.empty()) continue;
    const size_t colon = entry.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == entry.size()) {
      return Status::InvalidArgument(
          StrFormat("failpoint entry '%s' is not site:action", entry.c_str()));
    }
    Site site;
    BOLTON_RETURN_IF_ERROR(ParseAction(entry.substr(colon + 1), &site));
    parsed[entry.substr(0, colon)] = site;
  }
  std::lock_guard<std::mutex> lock(mu_);
  sites_ = std::move(parsed);
  armed_.store(!sites_.empty(), std::memory_order_relaxed);
  StashArmedSpec(spec);
  return Status::OK();
}

Status FailpointRegistry::ConfigureFromEnv() {
  const char* spec = std::getenv("BOLTON_FAILPOINTS");
  return Configure(spec == nullptr ? "" : spec);
}

void FailpointRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  sites_.clear();
  armed_.store(false, std::memory_order_relaxed);
  StashArmedSpec("");
}

const char* ArmedFailpointSpecCStr() { return g_armed_spec; }

Status FailpointRegistry::Evaluate(const char* site) {
  uint64_t hit = 0;
  uint64_t delay_ms = 0;
  const char* fired_action = nullptr;
  Observer observer;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sites_.find(site);
    if (it == sites_.end()) return Status::OK();
    Site& s = it->second;
    hit = ++s.hits;
    bool fire = false;
    switch (s.action) {
      case Action::kOff:
        break;
      case Action::kErrorAlways:
        fire = true;
        break;
      case Action::kErrorAtHit:
        fire = hit == s.n;
        break;
      case Action::kErrorFirstN:
        fire = hit <= s.n;
        break;
      case Action::kEveryNth:
        fire = hit % s.n == 0;
        break;
      case Action::kPanic:
        fire = hit == s.n;
        break;
      case Action::kDelay:
        fire = true;
        delay_ms = s.n;
        break;
    }
    if (!fire) return Status::OK();
    ++s.fired;
    fired_action = s.action == Action::kPanic
                       ? "panic"
                       : (s.action == Action::kDelay ? "delay" : "error");
    observer = observer_;
  }

  if (observer) observer(site, hit, fired_action);

  if (delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    return Status::OK();
  }
  if (std::string_view(fired_action) == "panic") {
    BOLTON_LOG(kError) << "failpoint '" << site << "': injected panic (hit "
                       << hit << ")";
    std::abort();
  }
  return Status::IOError(StrFormat(
      "failpoint '%s': injected error (hit %llu)", site,
      static_cast<unsigned long long>(hit)));
}

FailpointRegistry::SiteStats FailpointRegistry::Stats(
    const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end()) return SiteStats{};
  return SiteStats{it->second.hits, it->second.fired};
}

void FailpointRegistry::SetObserver(Observer observer) {
  std::lock_guard<std::mutex> lock(mu_);
  observer_ = std::move(observer);
}

}  // namespace bolton
