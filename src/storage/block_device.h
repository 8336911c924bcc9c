// BlockDevice: a latency + bandwidth disk model with bounded parallelism.
//
// Operations cost a fixed per-op latency plus size/bandwidth transfer time,
// and at most `parallelism` operations progress concurrently (an SSD queue).
#ifndef FIREWORKS_SRC_STORAGE_BLOCK_DEVICE_H_
#define FIREWORKS_SRC_STORAGE_BLOCK_DEVICE_H_

#include <cstdint>

#include "src/base/units.h"
#include "src/simcore/primitives.h"
#include "src/simcore/simulation.h"

namespace fwfault {
class FaultInjector;
}  // namespace fwfault

namespace fwstore {

using fwbase::Duration;

// Sequential NVMe read bandwidth: the device's default read rate, and the
// rate of the bulk snapshot transfers modelled outside it (the hypervisor's
// and the distribution tier's REAP prefetch, and the tier's install).
inline constexpr double kSequentialBytesPerSec = 2.0e9;

class BlockDevice {
 public:
  struct Config {
    Duration read_latency = Duration::Micros(80);   // NVMe-class.
    Duration write_latency = Duration::Micros(20);  // Write cache absorbs.
    double read_bw_bytes_per_sec = kSequentialBytesPerSec;
    double write_bw_bytes_per_sec = 0.55e9;
    int parallelism = 8;
  };

  // Media read errors from `injector` are absorbed here by the device's own
  // retry (the op cost is charged again), mirroring firmware behaviour.
  // Callers never see them. `injector` must outlive the device.
  BlockDevice(fwsim::Simulation& sim, const Config& config, fwfault::FaultInjector& injector);

  fwsim::Co<void> Read(uint64_t bytes);
  fwsim::Co<void> Write(uint64_t bytes);

  // Pure cost queries (no queueing), for planners.
  Duration ReadCost(uint64_t bytes) const;
  Duration WriteCost(uint64_t bytes) const;

  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t write_ops() const { return write_ops_; }

 private:
  fwsim::Co<void> DoOp(Duration cost);

  fwsim::Simulation& sim_;
  Config config_;
  fwsim::Resource queue_;
  uint64_t bytes_written_ = 0;
  uint64_t write_ops_ = 0;
  fwfault::FaultInjector& injector_;
};

}  // namespace fwstore

#endif  // FIREWORKS_SRC_STORAGE_BLOCK_DEVICE_H_
