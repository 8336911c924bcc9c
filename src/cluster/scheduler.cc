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
  FW_CHECK(host >= 0);
  if (Contains(host)) {
    return;
  }
  if (static_cast<size_t>(host) >= member_.size()) {
    member_.resize(host + 1, false);
    visited_.resize(host + 1, 0);
  }
  member_[host] = true;
  ++member_count_;
  const auto old_end = static_cast<std::ptrdiff_t>(ring_.size());
  for (int v = 0; v < vnodes_per_host_; ++v) {
    ring_.push_back(
        VNode{fwbase::HashKey(fwbase::StrFormat("host-%d-vnode-%d", host, v)), host});
  }
  std::sort(ring_.begin() + old_end, ring_.end());
  std::inplace_merge(ring_.begin(), ring_.begin() + old_end, ring_.end());
}

void ConsistentHashRing::RemoveHost(int host) {
  if (!Contains(host)) {
    return;
  }
  member_[host] = false;
  --member_count_;
  ring_.erase(std::remove_if(ring_.begin(), ring_.end(),
                             [host](const VNode& v) { return v.host == host; }),
              ring_.end());
}

bool ConsistentHashRing::Contains(int host) const {
  return host >= 0 && static_cast<size_t>(host) < member_.size() && member_[host];
}

uint32_t ConsistentHashRing::NextStamp() const {
  if (++stamp_ == 0) {
    std::fill(visited_.begin(), visited_.end(), 0);
    stamp_ = 1;
  }
  return stamp_;
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
    const uint64_t point = ConsistentHashRing::PointOf(app);
    int chosen = -1;
    for (const Pass& pass : kPasses) {
      ring_.Walk(point, [&hosts, bound, pass, &chosen](int h) {
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
    ring_.Walk(ConsistentHashRing::PointOf(app), [&hosts, &targets, want](int h) {
      if (h >= static_cast<int>(hosts.size()) || !hosts[h].alive) {
        return true;
      }
      const bool zone_covered = std::any_of(targets.begin(), targets.end(), [&](int t) {
        return hosts[t].zone == hosts[h].zone;
      });
      if (!zone_covered) {
        targets.push_back(h);
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
