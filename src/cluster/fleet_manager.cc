#include "src/cluster/fleet_manager.h"

#include <algorithm>
#include <cmath>

#include "src/base/check.h"

namespace fwcluster {

FleetPlanner::FleetPlanner(const FleetConfig& config, int default_host_capacity)
    : config_(config),
      capacity_(config.host_capacity > 0 ? config.host_capacity : default_host_capacity) {
  FW_CHECK(capacity_ > 0);
  FW_CHECK(config_.min_hosts >= 1);
  FW_CHECK(config_.max_hosts >= config_.min_hosts);
  FW_CHECK(config_.safety > 0.0);
  FW_CHECK(config_.rate_ewma_alpha > 0.0 && config_.rate_ewma_alpha <= 1.0);
  FW_CHECK(config_.scale_down_ticks >= 1);
  FW_CHECK(config_.max_add_per_tick >= 1);
}

int FleetPlanner::Desired(double rate_per_sec, double service_seconds) const {
  // Little's law: L = λ·S concurrent requests, with safety headroom, spread
  // over hosts absorbing `capacity_` each.
  const double concurrency =
      std::max(0.0, rate_per_sec) * std::max(0.0, service_seconds) * config_.safety;
  const int hosts = static_cast<int>(std::ceil(concurrency / static_cast<double>(capacity_)));
  return std::clamp(hosts, config_.min_hosts, config_.max_hosts);
}

int FleetPlanner::Step(double observed_rate_per_sec, double service_seconds,
                       int provisioned) {
  rate_ewma_ = config_.rate_ewma_alpha * observed_rate_per_sec +
               (1.0 - config_.rate_ewma_alpha) * rate_ewma_;
  // Scale-up sizes against the *instantaneous* rate when it exceeds the EWMA:
  // a flash crowd must not wait out the smoothing window while requests shed.
  const int desired =
      Desired(std::max(rate_ewma_, observed_rate_per_sec), service_seconds);
  if (desired > provisioned) {
    low_ticks_ = 0;
    return std::min(desired - provisioned, config_.max_add_per_tick);
  }
  if (desired < provisioned) {
    // Down-scaling is deliberately slow: wait out scale_down_ticks of
    // sustained low demand, then drain one host at a time.
    if (++low_ticks_ >= config_.scale_down_ticks) {
      low_ticks_ = 0;
      return -1;
    }
    return 0;
  }
  low_ticks_ = 0;
  return 0;
}

void FleetLedger::OnProvision(int host, SimTime now) {
  FW_CHECK_MSG(open_.count(host) == 0, "host provisioned twice");
  open_[host] = now;
}

void FleetLedger::OnRemove(int host, SimTime now) {
  auto it = open_.find(host);
  FW_CHECK_MSG(it != open_.end(), "removing a host the ledger never provisioned");
  closed_seconds_ += (now - it->second).seconds();
  open_.erase(it);
}

double FleetLedger::HostSeconds(SimTime now) const {
  double total = closed_seconds_;
  for (const auto& [host, since] : open_) {
    total += (now - since).seconds();
  }
  return total;
}

int PickJoinZone(const std::vector<int>& hosts_per_zone) {
  FW_CHECK(!hosts_per_zone.empty());
  int best = 0;
  for (int z = 1; z < static_cast<int>(hosts_per_zone.size()); ++z) {
    if (hosts_per_zone[z] < hosts_per_zone[best]) {
      best = z;
    }
  }
  return best;
}

}  // namespace fwcluster
