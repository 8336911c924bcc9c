// Hypervisor: the Firecracker-like VMM this reproduction runs on.
//
// Mechanisms provided (policies live in the platform layer):
//   * microVM creation: REST API handling, VMM process spawn, KVM setup,
//     virtio device configuration;
//   * guest OS boot: kernel + init costs, dirtying the kernel/OS segments of
//     the guest-physical address space;
//   * pause / resume;
//   * snapshot creation: pause, serialize vmstate, write the guest memory
//     file into the SnapshotStore (§3.3);
//   * snapshot restore: spawn a fresh VMM, map the memory file MAP_PRIVATE
//     (pages fault in lazily, CoW on write), restore vmstate (§3.4);
//   * fault servicing: converts FaultCounts from the memory model into
//     simulated time, distinguishing page-cache-warm images from cold ones;
//   * REAP-style working-set prefetch (related-work extension, used by the
//     ablation bench).
#ifndef FIREWORKS_SRC_VMM_HYPERVISOR_H_
#define FIREWORKS_SRC_VMM_HYPERVISOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/base/units.h"
#include "src/mem/address_space.h"
#include "src/mem/host_memory.h"
#include "src/obs/observability.h"
#include "src/simcore/simulation.h"
#include "src/storage/snapshot_store.h"
#include "src/vmm/microvm.h"

namespace fwfault {
class FaultInjector;
}  // namespace fwfault

namespace fwvmm {

using fwbase::Duration;

// Names of the guest segments the hypervisor itself manages. The language
// runtime layers add their own segments on top.
inline constexpr char kSegGuestKernel[] = "guest_kernel";
inline constexpr char kSegGuestOs[] = "guest_os";

// Salts of the guest kernel's and OS's hot pages. They are the same for every
// clone of an image, so every clone touches the same shared hot set (Fig 4).
inline constexpr uint64_t kGuestKernelTouchSalt = 7;
inline constexpr uint64_t kGuestOsTouchSalt = 8;

// Guest kernel/OS page activity of one running clone: reads `touch_fraction`
// of each segment's shared hot set, then writes `dirty_fraction` of each
// segment picked by the clone's own salts, in that order.
fwmem::FaultCounts GuestOsPageActivity(fwmem::AddressSpace& space, fwmem::SegmentId kernel,
                                       fwmem::SegmentId os, double touch_fraction,
                                       double dirty_fraction, uint64_t kernel_dirty_salt,
                                       uint64_t os_dirty_salt);

class Hypervisor {
 public:
  struct Config {
    Config() {}

    // REST API request handling (one per control-plane call).
    Duration api_request_cost = Duration::Micros(120);
    // Spawning the VMM process (+ jailer) and setting up KVM.
    Duration process_spawn_cost = Duration::Millis(55);
    Duration kvm_setup_cost = Duration::Millis(18);
    Duration device_setup_cost = Duration::Millis(8);
    // Guest kernel decompress + boot and userspace init (full rootfs with
    // the serverless agent, as in the paper's Firecracker baseline).
    Duration guest_kernel_boot_cost = Duration::Millis(1500);
    Duration guest_init_cost = Duration::Millis(380);
    // Memory the guest dirties during kernel boot / early userspace.
    uint64_t kernel_boot_bytes = 64 * fwbase::kMiB;
    uint64_t os_services_bytes = 44 * fwbase::kMiB;

    Duration pause_cost = Duration::Millis(6);
    // Resuming a paused (warm) VM: API connection, vCPU restart, network
    // refresh and request plumbing — the paper's warm-start path.
    Duration resume_cost = Duration::Millis(60);
    // Serializing device/vCPU state at snapshot time; parsing it at restore.
    Duration snapshot_vmstate_cost = Duration::Millis(14);
    Duration restore_vmstate_cost = Duration::Millis(4);
    // Spinning up the VMM for a snapshot restore: a trimmed path (config is
    // read from the snapshot, memory is mmap'ed) — far lighter than a cold
    // process spawn + KVM + device setup.
    Duration restore_process_cost = Duration::Millis(9);

    // Per-page fault service costs.
    // Minor faults amortised by Linux fault-around + file readahead.
    Duration minor_fault_cost = Duration::Nanos(180);
    Duration major_fault_cost = Duration::Micros(24);  // 4 KiB random disk read.
    Duration cow_fault_cost = Duration::Nanos(1800);   // Copy + PTE update.
    Duration zero_fault_cost = Duration::Nanos(500);

    // Guest-side MMDS HTTP read.
    Duration mmds_read_cost = Duration::Micros(180);

    // Delivering the vmgenid generation-change notification to a resumed
    // guest (ACPI interrupt + guest driver acknowledging the new counter).
    // The guest-side reseed work itself is charged by the runtime model.
    Duration vmgenid_notify_cost = Duration::Micros(40);
  };

  Hypervisor(fwsim::Simulation& sim, fwmem::HostMemory& host_memory,
             fwstore::SnapshotStore& snapshot_store);
  Hypervisor(fwsim::Simulation& sim, fwmem::HostMemory& host_memory,
             fwstore::SnapshotStore& snapshot_store, const Config& config);

  // Optional: spans for VM lifecycle operations plus "hv.*" / "mem.fault.*"
  // metrics. The Observability must outlive the hypervisor.
  void set_observability(fwobs::Observability* obs);

  // Optional: VMM crash faults during snapshot restore and resume. A crashed
  // VM transitions to kDead and still owns its frames until Destroy().
  void set_fault_injector(fwfault::FaultInjector* injector) { injector_ = injector; }

  // --- Lifecycle -----------------------------------------------------------

  // Creates a fresh (cold) microVM: API + process + KVM + devices. The guest
  // is not booted yet. The returned pointer stays valid until Destroy().
  fwsim::Co<MicroVm*> CreateMicroVm(const std::string& name, const MicroVmConfig& config);

  // Boots the guest kernel and early userspace; dirties the kernel/OS
  // segments. Requires kConfigured.
  fwsim::Co<Status> BootGuestOs(MicroVm& vm);

  fwsim::Co<Status> Pause(MicroVm& vm);
  fwsim::Co<Status> Resume(MicroVm& vm);

  // Pauses the VM, serializes vmstate, snapshots guest memory into the store
  // under `snapshot_name`, and leaves the VM paused.
  fwsim::Co<fwbase::Result<std::shared_ptr<fwmem::SnapshotImage>>> CreateSnapshot(
      MicroVm& vm, const std::string& snapshot_name);

  // Restores a new microVM from a stored snapshot: fresh VMM process, memory
  // file mapped MAP_PRIVATE (lazy faults + CoW), vmstate restored. The guest
  // continues from exactly the snapshot point.
  fwsim::Co<fwbase::Result<MicroVm*>> RestoreMicroVm(const std::string& snapshot_name,
                                                     const std::string& vm_name);

  // Tears the VM down and releases all its frames.
  Status Destroy(MicroVm& vm);

  // --- Memory-access services ---------------------------------------------

  // Time to service the given faults against `vm`'s backing image (if any).
  Duration FaultServiceTime(const MicroVm& vm, const fwmem::FaultCounts& faults) const;
  // Convenience: charge the fault time on the simulation clock.
  fwsim::Co<void> ServiceFaults(const MicroVm& vm, const fwmem::FaultCounts& faults);

  // REAP-style prefetch: bulk sequential read of the image's recorded working
  // set, after which its pages are cache-warm.
  fwsim::Co<void> PrefetchWorkingSet(fwmem::SnapshotImage& image, uint64_t working_set_bytes);

  // Guest-side MMDS read (charges the in-guest HTTP cost).
  fwsim::Co<fwbase::Result<std::string>> GuestReadMmds(MicroVm& vm, const std::string& key);

  // --- Uniqueness restoration (DESIGN.md §15) ------------------------------

  // Delivers the vmgenid generation-change notification to `vm` (charges
  // vmgenid_notify_cost). The platform follows up by having the guest
  // process reseed/rebase against vm.generation().
  fwsim::Co<void> NotifyGenerationChange(MicroVm& vm);

  // Fresh host entropy for a guest reseed (the virtio-rng device): an
  // independent deterministic stream forked from the simulation RNG at
  // construction, so drawing it never perturbs other consumers.
  uint64_t DrawGuestEntropy() { return guest_entropy_rng_.NextU64(); }

  // The generation most recently assigned (0 before any VM exists).
  uint64_t current_generation() const { return next_generation_ - 1; }

  const Config& config() const { return config_; }
  fwsim::Simulation& sim() { return sim_; }
  fwmem::HostMemory& host_memory() { return host_memory_; }
  fwstore::SnapshotStore& snapshot_store() { return snapshot_store_; }

  uint64_t vms_created() const { return vms_created_; }
  uint64_t vms_restored() const { return vms_restored_; }
  uint64_t snapshots_taken() const { return snapshots_taken_; }
  size_t live_vm_count() const { return vms_.size(); }

 private:
  fwsim::Simulation& sim_;
  fwmem::HostMemory& host_memory_;
  fwstore::SnapshotStore& snapshot_store_;
  Config config_;
  std::map<uint64_t, std::unique_ptr<MicroVm>> vms_;
  uint64_t next_vm_id_ = 1;
  // vmgenid counter: every create *and* restore consumes one, so no two VMs
  // this hypervisor ever produced share a generation.
  uint64_t next_generation_ = 1;
  fwbase::Rng guest_entropy_rng_;
  uint64_t vms_created_ = 0;
  uint64_t vms_restored_ = 0;
  uint64_t snapshots_taken_ = 0;
  fwobs::Tracer* tracer_ = nullptr;
  // Fault counters are bumped from the const FaultServiceTime() choke point;
  // the instruments themselves are mutable observation state.
  fwobs::Counter* fault_major_counter_ = nullptr;
  fwobs::Counter* fault_minor_counter_ = nullptr;
  fwobs::Counter* fault_zero_counter_ = nullptr;
  fwobs::Counter* fault_cow_counter_ = nullptr;
  fwobs::Counter* fault_fresh_counter_ = nullptr;
  fwobs::Counter* vm_create_counter_ = nullptr;
  fwobs::Counter* vm_restore_counter_ = nullptr;
  fwobs::Counter* snapshot_counter_ = nullptr;
  fwfault::FaultInjector* injector_ = nullptr;
};

}  // namespace fwvmm

#endif  // FIREWORKS_SRC_VMM_HYPERVISOR_H_
