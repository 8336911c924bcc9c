// Heartbeat-driven failure detection for the cluster front end.
//
// The front end used to consult an omniscient liveness oracle (the cluster's
// own `alive` bit). Real control planes only see evidence: periodic
// heartbeats and data-path errors. This module turns that evidence into a
// per-host health state machine:
//
//        heartbeat                 phi >= kPhiSuspect        phi >= kPhiDead
//   ┌───────────────┐            ┌──────────────────┐      ┌───────────────┐
//   │               ▼            │                  ▼      │               ▼
//   │            ALIVE ──────────┘               SUSPECT ──┘             DEAD
//   │               ▲                              │ │                     │
//   │               └──────────────────────────────┘ │                     │
//   │                      heartbeat (reinstated)    │                     │
//   └────────────────────────────────────────────────┴─────────────────────┘
//                heartbeat (reinstated — false positive healed)
//
// Suspicion uses a phi-accrual detector (Hayashibara et al.) in its
// exponential form: with an EWMA `mean` of observed heartbeat intervals,
//   phi(Δt) = log10(e) · Δt / mean
// grows linearly in the time since the last heartbeat, so thresholds express
// "the chance a live host is this late is < 10^-phi". Two thresholds split
// the response: a *suspect* host is deprioritized by the scheduler but keeps
// its in-flight work; only a *dead* host is excluded outright. A heartbeat
// from any non-alive state reinstates the host immediately — false positives
// heal, and exactly-once is preserved by the cluster's epoch guards, not by
// the detector.
//
// ReportFailure() is the data-path shortcut: a worker that observes a
// connection-refused analog (bounced queue, stale-epoch zombie) does not wait
// out phi; the host is dead now.
//
// Heartbeats also carry a memory-pressure reading (PSS fraction of host
// memory); `pressured()` feeds the brownout path (autoscaler sheds warm
// pools, scheduler deprioritizes) before the host OOMs.
//
// Everything here is a pure function of the call sequence — no clock reads,
// no RNG — so detection is as deterministic as the simulation driving it.
#ifndef FIREWORKS_SRC_CLUSTER_HEALTH_H_
#define FIREWORKS_SRC_CLUSTER_HEALTH_H_

#include <cstdint>
#include <vector>

#include "src/base/units.h"

namespace fwcluster {

using fwbase::Duration;
using fwbase::SimTime;

enum class HealthState { kAlive, kSuspect, kDead };

// State-machine edge taken by one detector call, surfaced so the cluster can
// mirror transitions into metrics (cluster.suspects / detector_dead /
// reinstated) without the detector depending on observability.
enum class HealthTransition { kNone, kSuspected, kDied, kReinstated };

struct HealthConfig {
  HealthConfig() {}

  // Cadence at which hosts report liveness + memory pressure.
  Duration heartbeat_interval = Duration::Millis(100);
  // PSS fraction of host memory at which the host counts as pressured
  // (brownout threshold).
  double pressure_fraction = 0.9;
};

class FailureDetector {
 public:
  // phi thresholds (exponential model: phi = log10(e) · Δt / mean_interval).
  // With a steady mean m, suspicion starts at ≈ 4.6·m and death at ≈ 18.4·m.
  static constexpr double kPhiSuspect = 2.0;
  static constexpr double kPhiDead = 8.0;

  // All hosts start kAlive with last-heartbeat = `now` and mean interval =
  // heartbeat_interval (startup grace: nobody is suspect before real
  // evidence accrues).
  FailureDetector(int num_hosts, const HealthConfig& config, SimTime now);

  // One received heartbeat. Updates the interval EWMA (only across
  // alive→alive gaps: a reinstatement gap is downtime, not a sample) and
  // reinstates suspect/dead hosts.
  HealthTransition Heartbeat(int host, SimTime now, double pss_fraction);

  // Re-evaluates phi at `now` and applies any suspect/dead transition.
  // Idempotent between heartbeats; never reinstates (only evidence does).
  HealthTransition Evaluate(int host, SimTime now);

  // Data-path evidence of death (bounced dispatch, stale-epoch zombie):
  // transition straight to kDead without waiting for phi.
  HealthTransition ReportFailure(int host);

  // Grows the detector by one host (elastic fleet join). The new host starts
  // kAlive with last-heartbeat = `now` — the same startup grace the initial
  // fleet gets.
  void AddHost(SimTime now);

  HealthState state(int host) const;
  double Phi(int host, SimTime now) const;
  bool pressured(int host) const;
  double pss_fraction(int host) const;

  // Time after the last heartbeat at which phi crosses `phi` given no further
  // heartbeats (so tests can land a recovery exactly at a threshold).
  Duration TimeToPhi(int host, double phi) const;

  const HealthConfig& config() const { return config_; }

 private:
  struct HostRecord {
    SimTime last_heartbeat;
    double mean_interval_seconds = 0.0;
    HealthState state = HealthState::kAlive;
    double pss_fraction = 0.0;
  };

  HealthConfig config_;
  std::vector<HostRecord> records_;
};

}  // namespace fwcluster

#endif  // FIREWORKS_SRC_CLUSTER_HEALTH_H_
