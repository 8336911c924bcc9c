#include "src/cluster/admission.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/base/strings.h"

namespace fwcluster {

namespace {

// EWMA weight for observed per-invocation service times.
constexpr double kServiceEwmaAlpha = 0.2;
// Service-time prior before any completion has been observed.
constexpr Duration kInitialServiceEstimate = Duration::Millis(5);

}  // namespace

AdmissionController::AdmissionController(int num_hosts, int workers_per_host,
                                         const AdmissionConfig& config)
    : config_(config), workers_per_host_(workers_per_host) {
  FW_CHECK(num_hosts > 0);
  FW_CHECK(workers_per_host > 0);
  service_ewma_seconds_.assign(static_cast<size_t>(num_hosts), kInitialServiceEstimate.seconds());
}

Status AdmissionController::Admit(int host, int64_t queue_depth, SimTime now,
                                  SimTime deadline) const {
  if (!config_.enabled) {
    return Status::Ok();
  }
  if (config_.queue_capacity > 0 && queue_depth >= config_.queue_capacity) {
    return Status::ResourceExhausted(
        fwbase::StrFormat("host %d dispatch queue at capacity (%lld)", host,
                          static_cast<long long>(queue_depth)));
  }
  if (deadline < SimTime::Max()) {
    const Duration wait = EstimatedWait(host, queue_depth);
    if (now + wait >= deadline) {
      return Status::ResourceExhausted(fwbase::StrFormat(
          "estimated queue wait %lldus on host %d exceeds request deadline",
          static_cast<long long>(wait.micros()), host));
    }
  }
  return Status::Ok();
}

void AdmissionController::AddHost() {
  service_ewma_seconds_.push_back(kInitialServiceEstimate.seconds());
}

void AdmissionController::RecordService(int host, Duration service) {
  double& ewma = service_ewma_seconds_[static_cast<size_t>(host)];
  ewma = kServiceEwmaAlpha * service.seconds() + (1.0 - kServiceEwmaAlpha) * ewma;
}

Duration AdmissionController::EstimatedWait(int host, int64_t queue_depth) const {
  // With W workers draining the queue in parallel, a request behind `depth`
  // others waits roughly depth/W service times before starting.
  const double service = service_ewma_seconds_[static_cast<size_t>(host)];
  const double wait =
      static_cast<double>(queue_depth) * service / static_cast<double>(workers_per_host_);
  return Duration::SecondsF(wait);
}

RetryBudget::RetryBudget(bool enabled, double deposit_ratio, double burst)
    : enabled_(enabled), deposit_ratio_(deposit_ratio), burst_(burst) {
  FW_CHECK(deposit_ratio >= 0.0);
  FW_CHECK(burst >= 1.0);
}

double& RetryBudget::Tokens(AppId app) {
  if (app >= tokens_.size()) {
    tokens_.resize(static_cast<size_t>(app) + 1, burst_);
  }
  return tokens_[app];
}

void RetryBudget::OnAccepted(AppId app) {
  if (!enabled_) {
    return;
  }
  // A fresh bucket starts full, so its first deposit is capped away.
  double& tokens = Tokens(app);
  tokens = std::min(burst_, tokens + deposit_ratio_);
}

bool RetryBudget::TrySpend(AppId app) {
  if (!enabled_) {
    return true;
  }
  double& tokens = Tokens(app);
  if (tokens < 1.0) {
    return false;
  }
  tokens -= 1.0;
  return true;
}

}  // namespace fwcluster
