#include "serve/admission.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/failpoint.h"
#include "util/strings.h"

namespace bolton {
namespace serve {

namespace {

struct AdmissionMetrics {
  obs::Counter* admitted;
  obs::Counter* overloaded;
  obs::Counter* tenant_busy;
};

AdmissionMetrics& Metrics() {
  static AdmissionMetrics* m = new AdmissionMetrics{
      obs::MetricsRegistry::Default().GetCounter("serve.admitted_total"),
      obs::MetricsRegistry::Default().GetCounter("serve.overloaded_total"),
      obs::MetricsRegistry::Default().GetCounter("serve.tenant_busy_total"),
  };
  return *m;
}

}  // namespace

AdmissionTicket& AdmissionTicket::operator=(AdmissionTicket&& other) noexcept {
  if (this != &other) {
    Release();
    controller_ = other.controller_;
    tenant_ = std::move(other.tenant_);
    other.controller_ = nullptr;
  }
  return *this;
}

void AdmissionTicket::Release() {
  if (controller_ == nullptr) return;
  controller_->Release(tenant_);
  controller_ = nullptr;
}

AdmissionController::AdmissionController(const AdmissionOptions& options)
    : options_(options) {
  options_.max_inflight = std::max<size_t>(options_.max_inflight, 1);
  options_.max_inflight_per_tenant =
      std::max<size_t>(options_.max_inflight_per_tenant, 1);
}

Result<AdmissionTicket> AdmissionController::Admit(const std::string& tenant) {
  // Fault gate: an injected error refuses admission (nothing claimed).
  BOLTON_FAILPOINT("serve.admit");

  std::lock_guard<std::mutex> lock(mu_);
  if (total_inflight_ >= options_.max_inflight) {
    Metrics().overloaded->Increment();
    return Status::OutOfRange(StrFormat(
        "overloaded: %zu requests already executing (cap %zu)",
        total_inflight_, options_.max_inflight));
  }
  size_t& mine = tenant_inflight_[tenant];
  if (mine >= options_.max_inflight_per_tenant) {
    Metrics().tenant_busy->Increment();
    return Status::FailedPrecondition(StrFormat(
        "tenant_busy: tenant '%s' already has %zu requests executing "
        "(cap %zu)",
        tenant.c_str(), mine, options_.max_inflight_per_tenant));
  }
  ++mine;
  ++total_inflight_;
  Metrics().admitted->Increment();
  return AdmissionTicket(this, tenant);
}

void AdmissionController::Release(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenant_inflight_.find(tenant);
  if (it != tenant_inflight_.end()) {
    if (--it->second == 0) tenant_inflight_.erase(it);
  }
  if (total_inflight_ > 0) --total_inflight_;
}

size_t AdmissionController::inflight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_inflight_;
}

size_t AdmissionController::inflight(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenant_inflight_.find(tenant);
  return it == tenant_inflight_.end() ? 0 : it->second;
}

}  // namespace serve
}  // namespace bolton
