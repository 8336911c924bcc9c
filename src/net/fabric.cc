#include "src/net/fabric.h"

namespace fwnet {

namespace {

// Round-trip to the registry service (metadata RPCs and per-stream transfer
// setup).
constexpr fwbase::Duration kRegistryRpcLatency = fwbase::Duration::Micros(120);
// Rack-local peer round-trip.
constexpr fwbase::Duration kPeerRpcLatency = fwbase::Duration::Micros(60);
// Per-stream sequential read bandwidth out of the registry's store.
constexpr double kRegistryBandwidthBytesPerSec = 1.25e9;  // ~10 Gb/s.
// Peer-to-peer transfer bandwidth (page-cache-hot source).
constexpr double kPeerBandwidthBytesPerSec = 2.5e9;
// Concurrent transfer streams the registry serves; more block.
constexpr int64_t kRegistryStreams = 4;

}  // namespace

ClusterFabric::ClusterFabric(fwsim::Simulation& sim)
    : sim_(sim), registry_slots_(sim, kRegistryStreams) {}

fwsim::Co<void> ClusterFabric::RegistryTransfer(uint64_t bytes) {
  co_await registry_slots_.Acquire();
  co_await fwsim::Delay(sim_, kRegistryRpcLatency +
                                  fwbase::TransferTime(bytes, kRegistryBandwidthBytesPerSec));
  registry_slots_.Release();
}

fwsim::DelayAwaiter ClusterFabric::RegistryRpc() {
  return fwsim::Delay(sim_, kRegistryRpcLatency);
}

fwsim::DelayAwaiter ClusterFabric::PeerTransfer(uint64_t bytes) {
  return fwsim::Delay(sim_,
                      kPeerRpcLatency + fwbase::TransferTime(bytes, kPeerBandwidthBytesPerSec));
}

}  // namespace fwnet
