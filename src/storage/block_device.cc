#include "src/storage/block_device.h"

#include "src/fault/fault.h"

namespace fwstore {

BlockDevice::BlockDevice(fwsim::Simulation& sim, const Config& config,
                         fwfault::FaultInjector& injector)
    : sim_(sim), config_(config), queue_(sim, config.parallelism), injector_(injector) {}

Duration BlockDevice::ReadCost(uint64_t bytes) const {
  return config_.read_latency + fwbase::TransferTime(bytes, config_.read_bw_bytes_per_sec);
}

Duration BlockDevice::WriteCost(uint64_t bytes) const {
  return config_.write_latency + fwbase::TransferTime(bytes, config_.write_bw_bytes_per_sec);
}

fwsim::Co<void> BlockDevice::DoOp(Duration cost) {
  co_await queue_.Acquire();
  co_await fwsim::Delay(sim_, cost);
  queue_.Release();
}

fwsim::Co<void> BlockDevice::Read(uint64_t bytes) {
  co_await DoOp(ReadCost(bytes));
  // Media read errors are absorbed by the device retrying the op. Each retry
  // is a fresh injection opportunity; the cap keeps a plan with
  // probability ~1.0 from looping forever.
  int budget = 8;
  while (budget-- > 0 && injector_.Trip(fwfault::FaultKind::kDiskReadError)) {
    co_await DoOp(ReadCost(bytes));
  }
}

fwsim::Co<void> BlockDevice::Write(uint64_t bytes) {
  bytes_written_ += bytes;
  ++write_ops_;
  co_await DoOp(WriteCost(bytes));
}

}  // namespace fwstore
