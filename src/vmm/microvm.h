// MicroVm: one Firecracker-style microVM instance.
//
// A microVM owns its guest-physical AddressSpace, a state machine for its
// lifecycle, and an MMDS (microVM Metadata Service) key/value store that the
// host writes and the guest reads — the mechanism Fireworks uses to tell each
// snapshot clone its instance identity (fcID) so it can find its parameter
// queue (§3.5–3.6).
#ifndef FIREWORKS_SRC_VMM_MICROVM_H_
#define FIREWORKS_SRC_VMM_MICROVM_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "src/base/status.h"
#include "src/mem/address_space.h"

namespace fwvmm {

using fwbase::Result;
using fwbase::Status;

enum class VmState {
  kConfigured,  // VMM process up, devices configured, guest not started.
  kBooting,     // Guest kernel boot in progress.
  kRunning,
  kPaused,
  kDead,
};

const char* VmStateName(VmState state);

class MicroVm {
 public:
  MicroVm(uint64_t id, std::string name, std::unique_ptr<fwmem::AddressSpace> space,
          bool restored_from_snapshot);

  MicroVm(const MicroVm&) = delete;
  MicroVm& operator=(const MicroVm&) = delete;

  uint64_t id() const { return id_; }
  const std::string& name() const { return name_; }
  VmState state() const { return state_; }
  bool restored_from_snapshot() const { return restored_from_snapshot_; }

  // vmgenid-style VM generation (DESIGN.md §15): assigned by the hypervisor,
  // strictly increasing across every create *and* restore it performs. A
  // guest whose observed generation lags this one is running on duplicated
  // snapshot identity and must reseed before serving traffic.
  uint64_t generation() const { return generation_; }

  fwmem::AddressSpace& address_space() { return *space_; }
  const fwmem::AddressSpace& address_space() const { return *space_; }

  // MMDS. Host-side writes are free (REST API cost charged by Hypervisor);
  // guest-side reads pay an HTTP round trip inside the guest (cost charged by
  // the guest-process model).
  void SetMetadata(const std::string& key, std::string value);
  Result<std::string> GetMetadata(const std::string& key) const;

  // Network attachment bookkeeping (wired by the platform layer).
  void set_netns_id(uint64_t id) { netns_id_ = id; }
  uint64_t netns_id() const { return netns_id_; }
  void set_tap_name(std::string name) { tap_name_ = std::move(name); }
  const std::string& tap_name() const { return tap_name_; }

 private:
  friend class Hypervisor;

  void set_state(VmState s) { state_ = s; }

  uint64_t id_;
  std::string name_;
  std::unique_ptr<fwmem::AddressSpace> space_;
  bool restored_from_snapshot_;
  uint64_t generation_ = 0;
  VmState state_ = VmState::kConfigured;
  std::map<std::string, std::string> mmds_;
  uint64_t netns_id_ = 0;
  std::string tap_name_;
};

}  // namespace fwvmm

#endif  // FIREWORKS_SRC_VMM_MICROVM_H_
