// Deterministic fault injection for the simulator.
//
// A FaultPlan names which fault kinds can fire, with what per-opportunity
// probability, inside which simulated-time window, and up to what budget. A
// FaultInjector evaluates the plan at injection points threaded through the
// subsystems (hypervisor, snapshot store, block device, broker, network,
// container engine), each of which takes its injector at construction. An
// empty plan is inert: no randomness is drawn and no time is charged, so runs
// with an empty plan are bit-identical to runs with faults off.
//
// Determinism: the injector owns one dedicated RNG stream *per fault kind*,
// all derived from a single fault seed. Injection decisions therefore never
// perturb the simulation's own RNG, and opportunities of one kind never shift
// the decisions of another — the same (plan, seed, workload) always trips the
// same faults at the same simulated instants.
#ifndef FIREWORKS_SRC_FAULT_FAULT_H_
#define FIREWORKS_SRC_FAULT_FAULT_H_

#include <array>
#include <cstdint>
#include <string>

#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/base/units.h"
#include "src/obs/observability.h"
#include "src/simcore/simulation.h"

namespace fwfault {

using fwbase::Duration;
using fwbase::Result;
using fwbase::SimTime;
using fwbase::Status;

enum class FaultKind {
  kVmCrashOnResume = 0,     // VMM process dies during snapshot restore/resume.
  kVmCrashDuringExec,       // Guest VM crashes while the function body runs.
  kSnapshotCorruption,      // Checksum mismatch when loading a stored image.
  kDiskReadError,           // Block-device read error (device retries).
  kDiskWriteError,          // Write error surfaced by the snapshot store.
  kBrokerDropMessage,       // Acked record never lands in the partition log.
  kBrokerDuplicateMessage,  // Record appended twice.
  kBrokerDelayMessage,      // Extra delivery latency before append.
  kNetLinkLoss,             // Packet lost on the wire.
  kNetNatExhausted,         // NAT port allocation fails when binding an IP.
  kSandboxCrash,            // Container sandbox dies on unpause/restore.
  kHeartbeatLoss,           // A host's liveness heartbeat is dropped en route.
  kHostSlowdown,            // Gray failure: the host serves, but slowly.
  kChunkCorruption,         // A fetched snapshot chunk fails digest check.
  kRegistryUnreachable,     // The snapshot registry drops a fetch RPC.
  kZoneOutage,              // Every host in one zone dies at the same instant.
  kCount,
};

inline constexpr int kFaultKindCount = static_cast<int>(FaultKind::kCount);

// Short stable identifier, e.g. "vm_crash_on_resume" (used by --faults= specs
// and metric labels).
const char* FaultKindName(FaultKind kind);

// Per-kind activation: probability per opportunity, an optional simulated-time
// window, and an optional trip budget.
struct FaultSpec {
  FaultSpec() {}

  double probability = 0.0;
  SimTime window_start = SimTime::Zero();
  SimTime window_end = SimTime::Max();
  uint64_t max_trips = UINT64_MAX;

  bool enabled() const { return probability > 0.0; }
};

class FaultPlan {
 public:
  FaultPlan() {}

  // Fluent setters so plans read like a table.
  FaultPlan& Set(FaultKind kind, double probability, uint64_t max_trips = UINT64_MAX);
  FaultPlan& SetWindow(FaultKind kind, SimTime start, SimTime end);

  const FaultSpec& spec(FaultKind kind) const {
    return specs_[static_cast<size_t>(kind)];
  }
  bool empty() const;

  // Parses "kind=prob,kind=prob,..." (e.g. "vm_crash_on_resume=0.05,
  // broker_drop_message=0.1"). "none" yields an empty plan. Unknown kinds and
  // probabilities outside [0, 1] are errors.
  static Result<FaultPlan> Parse(const std::string& spec);

 private:
  std::array<FaultSpec, kFaultKindCount> specs_;
};

class FaultInjector {
 public:
  // `seed` feeds the injector's dedicated RNG streams (one per kind).
  FaultInjector(fwsim::Simulation& sim, const FaultPlan& plan, uint64_t seed);

  // Optional: mirror trip counts into "fault.injected.count{kind}" metrics.
  // HostEnv wires its injector; the cluster's stays unwired, because its
  // trips would add lines to the cluster registry (and cluster_books.golden).
  void set_observability(fwobs::Observability* obs) { obs_ = obs; }

  // One injection opportunity: returns true if the fault fires now. Draws
  // randomness only for kinds the plan enables.
  bool Trip(FaultKind kind);

  // Extra latency for delay-type faults: exponential with the given mean,
  // from the kind's dedicated stream.
  Duration SampleDelay(FaultKind kind, Duration mean);

  uint64_t trips(FaultKind kind) const { return trips_[static_cast<size_t>(kind)]; }
  uint64_t opportunities(FaultKind kind) const {
    return opportunities_[static_cast<size_t>(kind)];
  }
  uint64_t total_trips() const;
  const FaultPlan& plan() const { return plan_; }

 private:
  fwsim::Simulation& sim_;
  FaultPlan plan_;
  std::array<fwbase::Rng, kFaultKindCount> streams_;
  std::array<uint64_t, kFaultKindCount> trips_{};
  std::array<uint64_t, kFaultKindCount> opportunities_{};
  fwobs::Observability* obs_ = nullptr;
};

}  // namespace fwfault

#endif  // FIREWORKS_SRC_FAULT_FAULT_H_
