// Cluster fabric: the network cost model for snapshot distribution.
//
// Hosts pull snapshot chunks from two places — the central registry (high
// latency, bandwidth shared across a bounded number of streams) and cluster
// peers (rack-local latency, per-transfer bandwidth). This type charges
// simulated time for those transfers; it carries no protocol and keeps no
// counts. The fetch protocol (cache lookup, peer-before-registry, retries)
// and its byte counts by source live in fwcluster::SnapshotDistribution, and
// the registry's state in fwstore::SnapshotRegistry.
#ifndef FIREWORKS_SRC_NET_FABRIC_H_
#define FIREWORKS_SRC_NET_FABRIC_H_

#include <cstdint>

#include "src/base/units.h"
#include "src/simcore/primitives.h"
#include "src/simcore/simulation.h"

namespace fwnet {

class ClusterFabric {
 public:
  explicit ClusterFabric(fwsim::Simulation& sim);

  // Charges one registry round-trip plus `bytes` of transfer, holding one of
  // the bounded registry streams for the duration.
  fwsim::Co<void> RegistryTransfer(uint64_t bytes);

  // Metadata-only registry RPC (manifest fetch): latency, no stream slot.
  fwsim::DelayAwaiter RegistryRpc();

  // Charges a rack-local peer transfer of `bytes`.
  fwsim::DelayAwaiter PeerTransfer(uint64_t bytes);

 private:
  fwsim::Simulation& sim_;
  fwsim::Resource registry_slots_;
};

}  // namespace fwnet

#endif  // FIREWORKS_SRC_NET_FABRIC_H_
