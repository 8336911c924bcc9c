#include "src/fault/fault.h"

#include <cstdlib>
#include <utility>

#include "src/base/strings.h"

namespace fwfault {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kVmCrashOnResume:
      return "vm_crash_on_resume";
    case FaultKind::kVmCrashDuringExec:
      return "vm_crash_during_exec";
    case FaultKind::kSnapshotCorruption:
      return "snapshot_corruption";
    case FaultKind::kDiskReadError:
      return "disk_read_error";
    case FaultKind::kDiskWriteError:
      return "disk_write_error";
    case FaultKind::kBrokerDropMessage:
      return "broker_drop_message";
    case FaultKind::kBrokerDuplicateMessage:
      return "broker_duplicate_message";
    case FaultKind::kBrokerDelayMessage:
      return "broker_delay_message";
    case FaultKind::kNetLinkLoss:
      return "net_link_loss";
    case FaultKind::kNetNatExhausted:
      return "net_nat_exhausted";
    case FaultKind::kSandboxCrash:
      return "sandbox_crash";
    case FaultKind::kHeartbeatLoss:
      return "heartbeat_loss";
    case FaultKind::kHostSlowdown:
      return "host_slowdown";
    case FaultKind::kChunkCorruption:
      return "chunk_corruption";
    case FaultKind::kRegistryUnreachable:
      return "registry_unreachable";
    case FaultKind::kZoneOutage:
      return "zone_outage";
    case FaultKind::kCount:
      break;
  }
  return "?";
}

FaultPlan& FaultPlan::Set(FaultKind kind, double probability, uint64_t max_trips) {
  FW_CHECK_MSG(probability >= 0.0 && probability <= 1.0, "probability outside [0, 1]");
  auto& spec = specs_[static_cast<size_t>(kind)];
  spec.probability = probability;
  spec.max_trips = max_trips;
  return *this;
}

FaultPlan& FaultPlan::SetWindow(FaultKind kind, SimTime start, SimTime end) {
  auto& spec = specs_[static_cast<size_t>(kind)];
  spec.window_start = start;
  spec.window_end = end;
  return *this;
}

bool FaultPlan::empty() const {
  for (const auto& spec : specs_) {
    if (spec.enabled()) {
      return false;
    }
  }
  return true;
}

Result<FaultPlan> FaultPlan::Parse(const std::string& spec) {
  FaultPlan plan;
  if (spec.empty() || spec == "none") {
    return plan;
  }
  for (const std::string& item : fwbase::StrSplit(spec, ',')) {
    const size_t eq = item.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("fault spec item '" + item + "' is not kind=prob");
    }
    const std::string name = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    char* end = nullptr;
    const double p = std::strtod(value.c_str(), &end);
    // Written so that NaN, which fails every comparison, is rejected too.
    if (end == value.c_str() || *end != '\0' || !(p >= 0.0 && p <= 1.0)) {
      return Status::InvalidArgument("bad probability '" + value + "' for fault " + name);
    }
    bool found = false;
    for (int k = 0; k < kFaultKindCount; ++k) {
      if (name == FaultKindName(static_cast<FaultKind>(k))) {
        plan.Set(static_cast<FaultKind>(k), p);
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::InvalidArgument("unknown fault kind '" + name + "'");
    }
  }
  return plan;
}

namespace {

template <size_t... I>
std::array<fwbase::Rng, sizeof...(I)> ForkStreams(fwbase::Rng& master,
                                                  std::index_sequence<I...>) {
  // Braced-init-list evaluation is left-to-right, so stream order is fixed.
  return {((void)I, master.Fork())...};
}

}  // namespace

FaultInjector::FaultInjector(fwsim::Simulation& sim, const FaultPlan& plan, uint64_t seed)
    : sim_(sim), plan_(plan), streams_([&] {
        fwbase::Rng master(seed);
        return ForkStreams(master, std::make_index_sequence<kFaultKindCount>{});
      }()) {}

bool FaultInjector::Trip(FaultKind kind) {
  const size_t idx = static_cast<size_t>(kind);
  ++opportunities_[idx];
  const FaultSpec& spec = plan_.spec(kind);
  if (!spec.enabled() || trips_[idx] >= spec.max_trips) {
    return false;
  }
  const SimTime now = sim_.Now();
  if (now < spec.window_start || now > spec.window_end) {
    return false;
  }
  if (!streams_[idx].Chance(spec.probability)) {
    return false;
  }
  ++trips_[idx];
  if (obs_ != nullptr) {
    obs_->metrics().GetCounter("fault.injected.count", FaultKindName(kind)).Increment();
  }
  return true;
}

Duration FaultInjector::SampleDelay(FaultKind kind, Duration mean) {
  return Duration::SecondsF(streams_[static_cast<size_t>(kind)].Exponential(mean.seconds()));
}

uint64_t FaultInjector::total_trips() const {
  uint64_t total = 0;
  for (uint64_t t : trips_) {
    total += t;
  }
  return total;
}

}  // namespace fwfault
