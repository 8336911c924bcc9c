#include "src/cluster/health.h"

#include "src/base/check.h"

namespace fwcluster {

namespace {
// log10(e): converts the exponential-model hazard Δt/mean into a phi value.
constexpr double kLog10E = 0.4342944819032518;
// EWMA weight for observed heartbeat intervals.
constexpr double kIntervalEwmaAlpha = 0.2;
}  // namespace

static_assert(FailureDetector::kPhiSuspect > 0.0 &&
              FailureDetector::kPhiDead >= FailureDetector::kPhiSuspect);

FailureDetector::FailureDetector(int num_hosts, const HealthConfig& config, SimTime now)
    : config_(config) {
  FW_CHECK(num_hosts > 0);
  FW_CHECK(config.heartbeat_interval.nanos() > 0);
  records_.resize(static_cast<size_t>(num_hosts));
  for (HostRecord& r : records_) {
    r.last_heartbeat = now;
    r.mean_interval_seconds = config.heartbeat_interval.seconds();
  }
}

HealthTransition FailureDetector::Heartbeat(int host, SimTime now, double pss_fraction) {
  HostRecord& r = records_[static_cast<size_t>(host)];
  const HealthState before = r.state;
  if (before == HealthState::kAlive) {
    // Only alive→alive gaps sample the interval distribution; the gap that
    // ends a suspicion or an outage is downtime, and folding it into the
    // mean would desensitize the detector right after every recovery.
    const double observed = (now - r.last_heartbeat).seconds();
    if (observed > 0.0) {
      r.mean_interval_seconds =
          kIntervalEwmaAlpha * observed + (1.0 - kIntervalEwmaAlpha) * r.mean_interval_seconds;
    }
  }
  r.last_heartbeat = now;
  r.pss_fraction = pss_fraction;
  r.state = HealthState::kAlive;
  return before == HealthState::kAlive ? HealthTransition::kNone
                                       : HealthTransition::kReinstated;
}

HealthTransition FailureDetector::Evaluate(int host, SimTime now) {
  HostRecord& r = records_[static_cast<size_t>(host)];
  if (r.state == HealthState::kDead) {
    return HealthTransition::kNone;  // Only a heartbeat resurrects.
  }
  const double phi = Phi(host, now);
  if (phi >= kPhiDead) {
    r.state = HealthState::kDead;
    return HealthTransition::kDied;
  }
  if (phi >= kPhiSuspect && r.state == HealthState::kAlive) {
    r.state = HealthState::kSuspect;
    return HealthTransition::kSuspected;
  }
  return HealthTransition::kNone;
}

HealthTransition FailureDetector::ReportFailure(int host) {
  HostRecord& r = records_[static_cast<size_t>(host)];
  if (r.state == HealthState::kDead) {
    return HealthTransition::kNone;
  }
  r.state = HealthState::kDead;
  return HealthTransition::kDied;
}

void FailureDetector::AddHost(SimTime now) {
  HostRecord r;
  r.last_heartbeat = now;
  r.mean_interval_seconds = config_.heartbeat_interval.seconds();
  records_.push_back(r);
}

HealthState FailureDetector::state(int host) const {
  return records_[static_cast<size_t>(host)].state;
}

double FailureDetector::Phi(int host, SimTime now) const {
  const HostRecord& r = records_[static_cast<size_t>(host)];
  const double elapsed = (now - r.last_heartbeat).seconds();
  if (elapsed <= 0.0 || r.mean_interval_seconds <= 0.0) {
    return 0.0;
  }
  return kLog10E * elapsed / r.mean_interval_seconds;
}

bool FailureDetector::pressured(int host) const {
  return records_[static_cast<size_t>(host)].pss_fraction >= config_.pressure_fraction;
}

double FailureDetector::pss_fraction(int host) const {
  return records_[static_cast<size_t>(host)].pss_fraction;
}

Duration FailureDetector::TimeToPhi(int host, double phi) const {
  const HostRecord& r = records_[static_cast<size_t>(host)];
  return Duration::SecondsF(phi * r.mean_interval_seconds / kLog10E);
}

}  // namespace fwcluster
