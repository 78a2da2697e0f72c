#include "obs/ledger.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "obs/export.h"
#include "obs/telemetry.h"
#include "util/strings.h"

namespace bolton {
namespace obs {

void LedgerTotals::Add(const LedgerEvent& e) {
  ++events;
  if (!e.accepted) ++rejected;
  if (e.kind == "noise_draw") {
    ++noise_draws;
  } else if (e.kind == "budget_commit" || e.kind == "budget_recover") {
    ++charges;
    if (e.accepted) {
      epsilon_charged += e.epsilon;
      delta_charged += e.delta;
    }
  } else if (e.kind == "calibration") {
    ++calibrations;
  }
}

PrivacyLedger::File::~File() { ::close(fd); }

PrivacyLedger& PrivacyLedger::Default() {
  static PrivacyLedger* ledger = new PrivacyLedger();
  return *ledger;
}

void PrivacyLedger::Record(LedgerEvent event) {
  if (!enabled()) return;
  event.time_ns = MonotonicNanos();
  std::shared_ptr<File> file;
  {
    std::lock_guard<std::mutex> lock(mu_);
    event.seq = next_seq_++;
    totals_.Add(event);
    if (ring_.size() < kLedgerSlots) {
      ring_.push_back(event);
    } else {
      ring_[(event.seq - 1) % kLedgerSlots] = event;
    }
    file = file_;
  }
  if (file == nullptr) return;
  // One write(2) per line: O_APPEND keeps concurrent lines whole, though
  // they may land out of seq order.
  const std::string line = RenderLedgerEventJson(event) + "\n";
  if (::write(file->fd, line.data(), line.size()) !=
      static_cast<ssize_t>(line.size())) {
    file->failed_writes.fetch_add(1, std::memory_order_relaxed);
  }
}

std::vector<LedgerEvent> PrivacyLedger::Snapshot(size_t max) const {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t recorded = next_seq_ - 1;
  const size_t n = std::min(max, ring_.size());
  std::vector<LedgerEvent> events;
  events.reserve(n);
  // Event `seq` sits at slot (seq - 1) % kLedgerSlots.
  for (uint64_t i = recorded - n; i < recorded; ++i) {
    events.push_back(ring_[i % kLedgerSlots]);
  }
  return events;
}

LedgerTotals PrivacyLedger::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

void PrivacyLedger::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  totals_ = LedgerTotals();
  next_seq_ = 1;
}

Status PrivacyLedger::OpenFile(const std::string& path) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0666);
  if (fd < 0) {
    return Status::IOError(StrFormat("cannot open ledger file %s: %s",
                                     path.c_str(), std::strerror(errno)));
  }
  std::shared_ptr<File> file(new File{fd, path});
  std::lock_guard<std::mutex> lock(mu_);
  file_.swap(file);
  SetEnabled(true);
  return Status::OK();
}

Status PrivacyLedger::CloseFile() {
  std::shared_ptr<File> file;
  {
    std::lock_guard<std::mutex> lock(mu_);
    file.swap(file_);
  }
  if (file == nullptr || file->failed_writes == 0) return Status::OK();
  return Status::IOError(StrFormat(
      "%llu ledger lines failed to write to %s",
      static_cast<unsigned long long>(file->failed_writes.load()),
      file->path.c_str()));
}

}  // namespace obs
}  // namespace bolton
