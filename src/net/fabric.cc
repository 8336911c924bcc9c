#include "src/net/fabric.h"

namespace fwnet {

namespace {

fwbase::Duration TransferTime(uint64_t bytes, double bytes_per_sec) {
  return fwbase::Duration::SecondsF(static_cast<double>(bytes) / bytes_per_sec);
}

}  // namespace

fwsim::Co<void> ClusterFabric::RegistryTransfer(uint64_t bytes) {
  co_await registry_slots_.Acquire();
  co_await fwsim::Delay(sim_, config_.registry_rpc_latency +
                                  TransferTime(bytes, config_.registry_bandwidth_bytes_per_sec));
  registry_slots_.Release();
  ++registry_transfers_;
  registry_bytes_ += bytes;
}

fwsim::DelayAwaiter ClusterFabric::RegistryRpc() {
  return fwsim::Delay(sim_, config_.registry_rpc_latency);
}

fwsim::Co<void> ClusterFabric::PeerTransfer(uint64_t bytes) {
  co_await fwsim::Delay(sim_, config_.peer_rpc_latency +
                                  TransferTime(bytes, config_.peer_bandwidth_bytes_per_sec));
  ++peer_transfers_;
  peer_bytes_ += bytes;
}

}  // namespace fwnet
