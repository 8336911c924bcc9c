// Fleet membership for the elastic control plane (DESIGN.md §16).
//
// The cluster front end used to schedule over a fixed host set; production
// fleets grow, shrink, and lose whole zones. This module holds the pieces of
// that lifecycle that are pure bookkeeping — no coroutines, no clock reads,
// no RNG — so they unit-test in isolation while the Cluster drives them:
//
//   * HostLifecycle: the per-host state machine
//         joining → warming → active → draining → removed
//     A host is schedulable only while active; crashes do NOT advance the
//     lifecycle (a dead active host is still a fleet member and comes back
//     on restart — decommission is the only exit).
//   * FleetPlanner: capacity autoscaling from the same Little's-law signals
//     the warm-pool autoscaler uses. Required concurrency L = λ·S (arrival
//     rate EWMA × service-time EWMA); desired hosts = ⌈L·safety / per-host
//     capacity⌉, clamped to [min_hosts, max_hosts]. Scale-up applies
//     immediately (bounded per tick so a flash crowd ramps instead of
//     stepping); scale-down waits for `scale_down_ticks` consecutive low
//     ticks and then drains one host at a time — capacity mistakes in the
//     down direction cost SLO, so the planner is deliberately asymmetric.
//   * FleetLedger: host-hours accounting (provision → remove intervals), the
//     denominator of cost-per-invocation in bench/elastic_fleet.
//   * PickJoinZone: zone placement for new hosts (least-populated zone,
//     lowest index on ties) so growth keeps the fleet zone-balanced.
#ifndef FIREWORKS_SRC_CLUSTER_FLEET_MANAGER_H_
#define FIREWORKS_SRC_CLUSTER_FLEET_MANAGER_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/base/units.h"

namespace fwcluster {

using fwbase::Duration;
using fwbase::SimTime;

// joining: provisioned, workers running, not yet installed/warm.
// warming:  pulling snapshots + preparing warm clones (registry-driven).
// active:  admitted to the scheduler ring; the only schedulable state.
// draining: no new dispatch; queued + inflight work bleeds out.
// removed: torn down (no VMs, no netns, no parked clones); terminal.
enum class HostLifecycle { kJoining, kWarming, kActive, kDraining, kRemoved };

struct FleetConfig {
  FleetConfig() {}

  // Capacity autoscaling of the host count. Off by default: the fleet then
  // only changes membership through explicit AddHost/RemoveHost calls.
  bool enabled = false;
  Duration interval = Duration::Seconds(5);
  // Headroom multiplier on the Little's-law concurrency target.
  double safety = 1.3;
  int min_hosts = 1;
  int max_hosts = 64;
  // Concurrent requests one host absorbs at the planner's target utilization
  // (<= 0 falls back to the cluster's workers_per_host).
  int host_capacity = 0;
  // EWMA weight for the observed per-tick arrival rate.
  double rate_ewma_alpha = 0.3;
  // Consecutive below-target ticks before one host is drained.
  int scale_down_ticks = 3;
  // Hosts added in a single tick (ramp bound for flash crowds).
  int max_add_per_tick = 2;
};

// Pure scale-up/scale-down decisions; the Cluster applies them.
class FleetPlanner {
 public:
  FleetPlanner(const FleetConfig& config, int default_host_capacity);

  // Little's-law target host count for a steady rate/service pair.
  int Desired(double rate_per_sec, double service_seconds) const;

  // Feeds one tick's observed arrival rate + service estimate, given
  // `provisioned` non-draining hosts. Returns the membership delta to apply
  // now: +n hosts to add (≤ max_add_per_tick), -1 to drain one, or 0.
  int Step(double observed_rate_per_sec, double service_seconds, int provisioned);

  double rate_ewma() const { return rate_ewma_; }

 private:
  FleetConfig config_;
  int capacity_;
  double rate_ewma_ = 0.0;
  int low_ticks_ = 0;
};

// Host-hours accounting: a host is paid for from provisioning (AddHost / the
// initial fleet) until removal, whether or not it serves — that is exactly
// what makes an over-provisioned static fleet expensive.
class FleetLedger {
 public:
  void OnProvision(int host, SimTime now);
  void OnRemove(int host, SimTime now);

  // Total paid host time up to `now`: closed intervals plus every still-open
  // one.
  double HostSeconds(SimTime now) const;
  double HostHours(SimTime now) const { return HostSeconds(now) / 3600.0; }
  int provisioned() const { return static_cast<int>(open_.size()); }

 private:
  // Ordered map: iteration feeds HostSeconds, determinism prefers ordered.
  std::map<int, SimTime> open_;
  double closed_seconds_ = 0.0;
};

// Zone for the next host: the zone with the fewest provisioned hosts (lowest
// zone index on ties), so elastic growth stays spread across zones.
int PickJoinZone(const std::vector<int>& hosts_per_zone);

}  // namespace fwcluster

#endif  // FIREWORKS_SRC_CLUSTER_FLEET_MANAGER_H_
