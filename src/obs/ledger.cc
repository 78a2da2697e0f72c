#include "obs/ledger.h"

#include "obs/export.h"
#include "obs/telemetry.h"

namespace bolton {
namespace obs {

PrivacyLedger& PrivacyLedger::Default() {
  static PrivacyLedger* ledger = new PrivacyLedger();
  return *ledger;
}

void PrivacyLedger::Record(LedgerEvent event) {
  if (!enabled()) return;
  event.time_ns = MonotonicNanos();
  std::lock_guard<std::mutex> lock(mu_);
  event.seq = next_seq_++;
  events_.push_back(std::move(event));
}

std::vector<LedgerEvent> PrivacyLedger::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

size_t PrivacyLedger::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void PrivacyLedger::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  next_seq_ = 1;
}

void PrivacyLedger::Restore(std::vector<LedgerEvent> events) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t max_seq = 0;
  for (const LedgerEvent& event : events) {
    if (event.seq > max_seq) max_seq = event.seq;
  }
  events_ = std::move(events);
  next_seq_ = max_seq + 1;
}

std::string PrivacyLedger::ToJsonl() const {
  return RenderLedgerJsonl(Snapshot());
}

}  // namespace obs
}  // namespace bolton
