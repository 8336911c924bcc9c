#include "src/cluster/scheduler.h"

#include "src/base/check.h"
#include "src/base/hash.h"
#include "src/base/strings.h"

namespace fwcluster {

const char* SchedulerPolicyName(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::kRoundRobin:
      return "round-robin";
    case SchedulerPolicy::kLeastLoaded:
      return "least-loaded";
    case SchedulerPolicy::kSnapshotLocality:
      return "snapshot-locality";
  }
  return "unknown";
}

std::optional<SchedulerPolicy> ParseSchedulerPolicy(const std::string& name) {
  for (SchedulerPolicy p : AllSchedulerPolicies()) {
    if (name == SchedulerPolicyName(p)) {
      return p;
    }
  }
  return std::nullopt;
}

std::vector<SchedulerPolicy> AllSchedulerPolicies() {
  return {SchedulerPolicy::kRoundRobin, SchedulerPolicy::kLeastLoaded,
          SchedulerPolicy::kSnapshotLocality};
}

// ---------------------------------------------------------------------------
// ConsistentHashRing
// ---------------------------------------------------------------------------

ConsistentHashRing::ConsistentHashRing(int vnodes_per_host)
    : vnodes_per_host_(vnodes_per_host) {
  FW_CHECK(vnodes_per_host > 0);
}

void ConsistentHashRing::AddHost(int host) {
  if (members_.count(host) > 0) {
    return;
  }
  members_[host] = true;
  for (int v = 0; v < vnodes_per_host_; ++v) {
    const uint64_t point = fwbase::HashKey(fwbase::StrFormat("host-%d-vnode-%d", host, v));
    auto [it, inserted] = ring_.emplace(point, host);
    if (!inserted) {
      // 64-bit collision between two hosts' vnodes: keep the smaller host id
      // so ownership never depends on insertion order.
      it->second = std::min(it->second, host);
    }
  }
}

void ConsistentHashRing::RemoveHost(int host) {
  if (members_.erase(host) == 0) {
    return;
  }
  for (int v = 0; v < vnodes_per_host_; ++v) {
    const uint64_t point = fwbase::HashKey(fwbase::StrFormat("host-%d-vnode-%d", host, v));
    auto it = ring_.find(point);
    if (it != ring_.end() && it->second == host) {
      ring_.erase(it);
    }
  }
}

bool ConsistentHashRing::Contains(int host) const { return members_.count(host) > 0; }

int ConsistentHashRing::Owner(const std::string& key) const {
  return OwnerIf(key, [](int) { return true; });
}

int ConsistentHashRing::OwnerIf(const std::string& key,
                                const std::function<bool(int)>& alive) const {
  int found = -1;
  Walk(key, [&found, &alive](int host) {
    if (alive(host)) {
      found = host;
      return false;
    }
    return true;
  });
  return found;
}

void ConsistentHashRing::Walk(const std::string& key,
                              const std::function<bool(int)>& visit) const {
  if (ring_.empty()) {
    return;
  }
  const uint64_t point = fwbase::HashKey(key);
  auto it = ring_.lower_bound(point);
  std::map<int, bool> seen;
  for (size_t step = 0; step < ring_.size(); ++step) {
    if (it == ring_.end()) {
      it = ring_.begin();  // Wrap around the ring.
    }
    if (seen.emplace(it->second, true).second && !visit(it->second)) {
      return;
    }
    ++it;
  }
}

// ---------------------------------------------------------------------------
// Policies
// ---------------------------------------------------------------------------

namespace {

class RoundRobinScheduler : public Scheduler {
 public:
  SchedulerPolicy policy() const override { return SchedulerPolicy::kRoundRobin; }

  int Pick(const std::string& app, const std::vector<HostView>& hosts) override {
    const int n = static_cast<int>(hosts.size());
    // First rotation over preferred (healthy) hosts, then over anything
    // alive: a suspect/pressured host only serves when nothing better can.
    for (const bool healthy_only : {true, false}) {
      for (int i = 0; i < n; ++i) {
        const int h = (next_ + i) % n;
        if (healthy_only ? hosts[h].preferred() : hosts[h].alive) {
          next_ = (h + 1) % n;
          return h;
        }
      }
    }
    return -1;
  }

 private:
  int next_ = 0;
};

// Least-loaded alive host in `hosts`, restricted to preferred() hosts when
// `healthy_only`; -1 when the restricted set is empty. Shared by the
// least-loaded policy and the locality policy's spill path.
int PickLeastLoaded(const std::vector<HostView>& hosts, bool healthy_only) {
  int best = -1;
  for (int h = 0; h < static_cast<int>(hosts.size()); ++h) {
    if (healthy_only ? !hosts[h].preferred() : !hosts[h].alive) {
      continue;
    }
    if (best < 0 || hosts[h].inflight < hosts[best].inflight) {
      best = h;  // Ties keep the lowest index: deterministic.
    }
  }
  return best;
}

class LeastLoadedScheduler : public Scheduler {
 public:
  SchedulerPolicy policy() const override { return SchedulerPolicy::kLeastLoaded; }

  int Pick(const std::string& app, const std::vector<HostView>& hosts) override {
    const int healthy = PickLeastLoaded(hosts, /*healthy_only=*/true);
    return healthy >= 0 ? healthy : PickLeastLoaded(hosts, /*healthy_only=*/false);
  }
};

class SnapshotLocalityScheduler : public Scheduler {
 public:
  // CHWBL overload bound: c = 1.25 of the alive-host mean inflight, with
  // additive slack so an idle cluster (mean ≈ 0) still accepts work.
  static constexpr double kLoadBoundFactor = 1.25;
  static constexpr int64_t kLoadBoundSlack = 8;

  SnapshotLocalityScheduler(int num_hosts, int vnodes_per_host) : ring_(vnodes_per_host) {
    for (int h = 0; h < num_hosts; ++h) {
      ring_.AddHost(h);
    }
  }

  SchedulerPolicy policy() const override { return SchedulerPolicy::kSnapshotLocality; }

  int Pick(const std::string& app, const std::vector<HostView>& hosts) override {
    // Bounded loads (Mirrokni et al.): accept the first alive owner clockwise
    // whose inflight is below c× the alive-host mean (plus slack for cold
    // clusters), so a Zipf head app spills instead of melting its owner.
    int alive_count = 0;
    int64_t total_inflight = 0;
    for (const HostView& v : hosts) {
      if (v.alive) {
        ++alive_count;
        total_inflight += v.inflight;
      }
    }
    if (alive_count == 0) {
      return -1;
    }
    const int64_t bound =
        static_cast<int64_t>(kLoadBoundFactor * static_cast<double>(total_inflight) /
                             static_cast<double>(alive_count)) +
        kLoadBoundSlack;
    // Four ring passes, strictly weakening: healthy owners already holding
    // the app's snapshot, then any healthy owner, then alive holders, then
    // anything alive. With every host holding every snapshot (the default —
    // no distribution tier) passes 1/2 and 3/4 coincide and this is the
    // original two-pass walk. With a distribution tier, a holder within the
    // load bound wins over an equally-healthy non-holder, so a warm chunk
    // cache keeps attracting its app instead of forcing cold registry pulls.
    struct Pass {
      bool healthy_only;
      bool holders_only;
    };
    static constexpr Pass kPasses[] = {
        {true, true}, {true, false}, {false, true}, {false, false}};
    int chosen = -1;
    for (const Pass& pass : kPasses) {
      ring_.Walk(app, [&hosts, bound, pass, &chosen](int h) {
        if (h >= static_cast<int>(hosts.size()) ||
            (pass.healthy_only ? !hosts[h].preferred() : !hosts[h].alive)) {
          return true;
        }
        if (pass.holders_only && !hosts[h].holds_snapshot) {
          return true;
        }
        if (hosts[h].inflight <= bound) {
          chosen = h;
          return false;
        }
        return true;
      });
      if (chosen >= 0) {
        return chosen;
      }
    }
    // Every alive member host is above the bound (or the ring lost all alive
    // members): fall back to the least-loaded host, healthy first.
    const int healthy = PickLeastLoaded(hosts, /*healthy_only=*/true);
    return healthy >= 0 ? healthy : PickLeastLoaded(hosts, /*healthy_only=*/false);
  }

  void OnHostJoin(int host) override { ring_.AddHost(host); }
  void OnHostLeave(int host) override { ring_.RemoveHost(host); }

  std::vector<int> WarmTargets(const std::string& app, const std::vector<HostView>& hosts,
                               int want) const override {
    // Clockwise from the app's ring point: the first alive host is the
    // primary (where Pick sends steady-state traffic), then one host per
    // not-yet-covered zone until `want` targets. Deterministic — a pure
    // function of the ring and the views.
    std::vector<int> targets;
    std::map<int, bool> zones_covered;
    ring_.Walk(app, [&hosts, &targets, &zones_covered, want](int h) {
      if (h >= static_cast<int>(hosts.size()) || !hosts[h].alive) {
        return true;
      }
      if (targets.empty() || zones_covered.count(hosts[h].zone) == 0) {
        targets.push_back(h);
        zones_covered.emplace(hosts[h].zone, true);
      }
      return static_cast<int>(targets.size()) < want;
    });
    return targets;
  }

 private:
  ConsistentHashRing ring_;
};

}  // namespace

std::unique_ptr<Scheduler> MakeScheduler(SchedulerPolicy policy, int num_hosts,
                                         int vnodes_per_host) {
  FW_CHECK(num_hosts > 0);
  switch (policy) {
    case SchedulerPolicy::kRoundRobin:
      return std::make_unique<RoundRobinScheduler>();
    case SchedulerPolicy::kLeastLoaded:
      return std::make_unique<LeastLoadedScheduler>();
    case SchedulerPolicy::kSnapshotLocality:
      return std::make_unique<SnapshotLocalityScheduler>(num_hosts, vnodes_per_host);
  }
  FW_CHECK_MSG(false, "unknown scheduler policy");
  return nullptr;
}

}  // namespace fwcluster
