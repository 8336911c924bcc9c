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

// The fractions every platform passes to GuestOsPageActivity. Resume: the
// kernel/OS pages a freshly restored guest immediately re-reads (shared) and
// re-writes (private: page tables, timers), on the invocation critical path.
// Steady: the residency a long-running instance converges to (guest page
// cache, slab, per-VM kernel bookkeeping), charged off the latency path when
// an instance is kept for the consolidation experiments (§5.4).
inline constexpr double kGuestOsResumeTouchFraction = 0.04;
inline constexpr double kGuestOsResumeDirtyFraction = 0.02;
inline constexpr double kGuestOsSteadyTouchFraction = 0.80;
inline constexpr double kGuestOsSteadyDirtyFraction = 0.62;

class Hypervisor {
 public:
  // Memory the guest dirties during kernel boot / early userspace.
  static constexpr uint64_t kKernelBootBytes = 64 * fwbase::kMiB;
  static constexpr uint64_t kOsServicesBytes = 44 * fwbase::kMiB;

  // `obs` receives spans for VM lifecycle operations plus "hv.*" and
  // "mem.fault.*" metrics. `injector` may crash the VMM during snapshot
  // restore and resume; a crashed VM transitions to kDead and still owns its
  // frames until Destroy(). Both must outlive the hypervisor.
  Hypervisor(fwsim::Simulation& sim, fwmem::HostMemory& host_memory,
             fwstore::SnapshotStore& snapshot_store, fwobs::Observability& obs,
             fwfault::FaultInjector& injector);

  // --- Lifecycle -----------------------------------------------------------

  // Creates a fresh (cold) microVM: API + process + KVM + devices. The guest
  // is not booted yet. The returned pointer stays valid until Destroy().
  fwsim::Co<MicroVm*> CreateMicroVm(const std::string& name);

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

  // Time to service the given faults against `vm`'s backing image (if any),
  // priced by fwmem::FaultServiceTime; records the per-kind fault counters.
  Duration FaultServiceTime(const MicroVm& vm, const fwmem::FaultCounts& faults) const;
  // Convenience: charge the fault time on the simulation clock. The time is
  // computed at the call, so await the result in the calling expression.
  fwsim::DelayAwaiter ServiceFaults(const MicroVm& vm, const fwmem::FaultCounts& faults);

  // REAP-style prefetch: bulk sequential read of the image's recorded working
  // set, after which its pages are cache-warm.
  fwsim::Co<void> PrefetchWorkingSet(fwmem::SnapshotImage& image, uint64_t working_set_bytes);

  // Guest-side MMDS read (charges the in-guest HTTP cost).
  fwsim::Co<fwbase::Result<std::string>> GuestReadMmds(MicroVm& vm, const std::string& key);

  // --- Uniqueness restoration (DESIGN.md §15) ------------------------------

  // Delivers the vmgenid generation-change notification to `vm` (ACPI
  // interrupt + guest driver acknowledging the new counter). The platform
  // follows up by having the guest process reseed/rebase against
  // vm.generation().
  fwsim::DelayAwaiter NotifyGenerationChange(MicroVm& vm);

  // Fresh host entropy for a guest reseed (the virtio-rng device): an
  // independent deterministic stream forked from the simulation RNG at
  // construction, so drawing it never perturbs other consumers.
  uint64_t DrawGuestEntropy() { return guest_entropy_rng_.NextU64(); }

  // The generation most recently assigned (0 before any VM exists).
  uint64_t current_generation() const { return next_generation_ - 1; }

  fwsim::Simulation& sim() { return sim_; }
  fwmem::HostMemory& host_memory() { return host_memory_; }
  fwstore::SnapshotStore& snapshot_store() { return snapshot_store_; }

  size_t live_vm_count() const { return vms_.size(); }

 private:
  fwsim::Simulation& sim_;
  fwmem::HostMemory& host_memory_;
  fwstore::SnapshotStore& snapshot_store_;
  std::map<uint64_t, std::unique_ptr<MicroVm>> vms_;
  uint64_t next_vm_id_ = 1;
  // vmgenid counter: every create *and* restore consumes one, so no two VMs
  // this hypervisor ever produced share a generation.
  uint64_t next_generation_ = 1;
  fwbase::Rng guest_entropy_rng_;
  fwobs::Tracer& tracer_;
  // Fault counters are bumped from the const FaultServiceTime() choke point;
  // the instruments themselves are mutable observation state.
  fwobs::Counter& fault_major_counter_;
  fwobs::Counter& fault_minor_counter_;
  fwobs::Counter& fault_zero_counter_;
  fwobs::Counter& fault_cow_counter_;
  fwobs::Counter& fault_fresh_counter_;
  fwobs::Counter& vm_create_counter_;
  fwobs::Counter& vm_restore_counter_;
  fwobs::Counter& snapshot_counter_;
  fwfault::FaultInjector& injector_;
};

}  // namespace fwvmm

#endif  // FIREWORKS_SRC_VMM_HYPERVISOR_H_
