// Front-end scheduling policies for the multi-host cluster (src/cluster).
//
// The front end picks a host for every invocation from a snapshot of per-host
// state (alive? how many in flight?). Three policies:
//
//   * kRoundRobin       — rotate over alive hosts; ignores the app entirely.
//   * kLeastLoaded      — pick the alive host with the fewest in-flight
//                         invocations (ties break to the lowest host index so
//                         decisions are deterministic).
//   * kSnapshotLocality — consistent hashing with virtual nodes and bounded
//                         loads: each app maps to a stable ring owner, so its
//                         post-JIT snapshot pages (and parked warm clones)
//                         stay hot on one host. When the owner is saturated
//                         (inflight above c× the alive-host mean) the request
//                         spills to the next alive host clockwise — a Zipf
//                         head app cannot melt its owner. Crashed owners'
//                         apps spill the same way and return home on restart.
//
// All policies are pure functions of (app, host views, internal counters) —
// no RNG — so a replayed request stream schedules identically.
#ifndef FIREWORKS_SRC_CLUSTER_SCHEDULER_H_
#define FIREWORKS_SRC_CLUSTER_SCHEDULER_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/hash.h"

namespace fwcluster {

enum class SchedulerPolicy { kRoundRobin, kLeastLoaded, kSnapshotLocality };

const char* SchedulerPolicyName(SchedulerPolicy policy);
std::optional<SchedulerPolicy> ParseSchedulerPolicy(const std::string& name);
std::vector<SchedulerPolicy> AllSchedulerPolicies();

// What the scheduler may consult about one host when picking. With health
// checks enabled this is *detected* state (heartbeats + data-path evidence,
// see health.h), not the cluster's own fault bookkeeping: the front end only
// knows what a real control plane could know.
struct HostView {
  HostView() {}

  // False once the failure detector declares the host dead.
  bool alive = true;
  // Late on heartbeats (phi above the suspect threshold) but not yet dead:
  // schedulable, deprioritized.
  bool suspect = false;
  // Reporting memory pressure (brownout): schedulable, deprioritized.
  bool pressured = false;
  // Invocations dispatched to the host and not yet completed.
  int64_t inflight = 0;
  // Requests sitting in the host's dispatch queue (subset of inflight).
  int64_t queue_depth = 0;
  // Whether the host already holds the app's snapshot locally (chunk cache /
  // installed image). Defaults true so deployments without a distribution
  // tier schedule exactly as before; with one, the locality policy prefers
  // holders before forcing a cold registry pull.
  bool holds_snapshot = true;
  // Failure-domain the host lives in (DESIGN.md §16). Zone-aware placement
  // (WarmTargets) spreads an app's warm capacity across distinct zones; a
  // single-zone fleet leaves every host at zone 0 and nothing changes.
  int zone = 0;

  // Every policy prefers healthy hosts and falls back to merely-alive ones,
  // so a suspect/pressured host sheds new load without being fenced off.
  bool preferred() const { return alive && !suspect && !pressured; }
};

// A consistent-hash ring with virtual nodes. Structural guarantees (the
// scheduler property tests assert these exactly):
//   * adding a host moves keys only onto the new host;
//   * removing a host moves only the keys it owned.
//
// The ring is a vector of (point, host) sorted by point, then host: two
// hosts whose vnodes share a 64-bit point both keep it, the smaller id
// first, so a leave never drops another host's vnode. A walk allocates
// nothing: it marks visited hosts with a per-walk stamp in a reused vector.
class ConsistentHashRing {
 public:
  explicit ConsistentHashRing(int vnodes_per_host);

  void AddHost(int host);
  void RemoveHost(int host);
  bool Contains(int host) const;

  // A key's point on the ring; hash it once for several walks.
  static uint64_t PointOf(std::string_view key) { return fwbase::HashKey(key); }

  // Ring owner of `key`; -1 when the ring is empty.
  int Owner(std::string_view key) const {
    return OwnerIf(key, [](int) { return true; });
  }
  // First owner clockwise from `key` for which alive(host) is true; -1 when
  // no member host is alive.
  template <typename Alive>
  int OwnerIf(std::string_view key, const Alive& alive) const {
    int found = -1;
    Walk(PointOf(key), [&found, &alive](int host) {
      if (alive(host)) {
        found = host;
        return false;
      }
      return true;
    });
    return found;
  }
  // Visits distinct member hosts clockwise from `point` (each at most once);
  // stops early when `visit` returns false. `visit` must not walk this ring.
  template <typename Visit>
  void Walk(uint64_t point, const Visit& visit) const {
    const size_t n = ring_.size();
    if (n == 0) {
      return;
    }
    const uint32_t stamp = NextStamp();
    size_t i = static_cast<size_t>(
        std::lower_bound(ring_.begin(), ring_.end(), point,
                         [](const VNode& v, uint64_t p) { return v.point < p; }) -
        ring_.begin());
    int unvisited = member_count_;
    for (size_t step = 0; step < n && unvisited > 0; ++step, ++i) {
      if (i == n) {
        i = 0;  // Wrap around the ring.
      }
      const int host = ring_[i].host;
      if (visited_[host] == stamp) {
        continue;
      }
      visited_[host] = stamp;
      --unvisited;
      if (!visit(host)) {
        return;
      }
    }
  }

 private:
  struct VNode {
    uint64_t point;
    int host;
    bool operator<(const VNode& o) const {
      return point != o.point ? point < o.point : host < o.host;
    }
  };

  // A stamp no host carries yet; restarts the marks when the counter wraps.
  uint32_t NextStamp() const;

  int vnodes_per_host_;
  std::vector<VNode> ring_;     // Sorted: walks never depend on insertion order.
  std::vector<bool> member_;    // By host id.
  int member_count_ = 0;
  mutable std::vector<uint32_t> visited_;  // By host id: the stamp of its last walk.
  mutable uint32_t stamp_ = 0;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual SchedulerPolicy policy() const = 0;

  // Picks a host index for one invocation of `app`; hosts[i] describes host i.
  // Returns -1 when no host is schedulable.
  virtual int Pick(const std::string& app, const std::vector<HostView>& hosts) = 0;

  // Permanent membership changes (decommission / recommission). A crash is
  // NOT a leave: the host keeps its ring assignment so its apps come home on
  // restart; Pick simply skips non-alive hosts meanwhile.
  virtual void OnHostJoin(int host) {}
  virtual void OnHostLeave(int host) {}

  // Up to `want` distinct alive hosts where `app`'s warm capacity should
  // live, spread across distinct zones: the ring owner first, then the next
  // hosts clockwise in zones not yet covered. Fewer alive zones than `want`
  // simply yields fewer targets — replicas never stack up inside one failure
  // domain. Policies without a placement notion return empty (the cluster
  // then skips zone spreading).
  virtual std::vector<int> WarmTargets(const std::string& app,
                                       const std::vector<HostView>& hosts,
                                       int want) const {
    return {};
  }
};

// Builds a scheduler over hosts [0, num_hosts). `vnodes_per_host` only
// affects kSnapshotLocality.
std::unique_ptr<Scheduler> MakeScheduler(SchedulerPolicy policy, int num_hosts,
                                         int vnodes_per_host = 64);

}  // namespace fwcluster

#endif  // FIREWORKS_SRC_CLUSTER_SCHEDULER_H_
