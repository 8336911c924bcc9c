#include "src/vmm/hypervisor.h"

#include <utility>

#include "src/base/check.h"
#include "src/base/logging.h"
#include "src/fault/fault.h"
#include "src/storage/block_device.h"

namespace fwvmm {

using fwbase::Result;

namespace {

// REST API request handling (one per control-plane call).
constexpr Duration kApiRequestCost = Duration::Micros(120);
// Spawning the VMM process (+ jailer) and setting up KVM and the devices.
constexpr Duration kProcessSpawnCost = Duration::Millis(55);
constexpr Duration kKvmSetupCost = Duration::Millis(18);
constexpr Duration kDeviceSetupCost = Duration::Millis(8);
// Guest kernel decompress + boot and userspace init (full rootfs with the
// serverless agent, as in the paper's Firecracker baseline).
constexpr Duration kGuestKernelBootCost = Duration::Millis(1500);
constexpr Duration kGuestInitCost = Duration::Millis(380);
constexpr Duration kPauseCost = Duration::Millis(6);
// Resuming a paused (warm) VM: API connection, vCPU restart, network refresh
// and request plumbing — the paper's warm-start path.
constexpr Duration kResumeCost = Duration::Millis(60);
// Serializing device/vCPU state at snapshot time; parsing it at restore.
constexpr Duration kSnapshotVmstateCost = Duration::Millis(14);
constexpr Duration kRestoreVmstateCost = Duration::Millis(4);
// Spinning up the VMM for a snapshot restore: a trimmed path (config is read
// from the snapshot, memory is mmap'ed) — far lighter than a cold process
// spawn + KVM + device setup.
constexpr Duration kRestoreProcessCost = Duration::Millis(9);
// Guest-side MMDS HTTP read.
constexpr Duration kMmdsReadCost = Duration::Micros(180);
// Delivering the vmgenid generation-change notification to a resumed guest.
// The guest-side reseed work itself is charged by the runtime model.
constexpr Duration kVmgenidNotifyCost = Duration::Micros(40);

}  // namespace

fwmem::FaultCounts GuestOsPageActivity(fwmem::AddressSpace& space, fwmem::SegmentId kernel,
                                       fwmem::SegmentId os, double touch_fraction,
                                       double dirty_fraction, uint64_t kernel_dirty_salt,
                                       uint64_t os_dirty_salt) {
  fwmem::FaultCounts faults = space.TouchRandomFraction(kernel, touch_fraction,
                                                        kGuestKernelTouchSalt);
  faults += space.TouchRandomFraction(os, touch_fraction, kGuestOsTouchSalt);
  faults += space.DirtyRandomFraction(kernel, dirty_fraction, kernel_dirty_salt);
  faults += space.DirtyRandomFraction(os, dirty_fraction, os_dirty_salt);
  return faults;
}

const char* VmStateName(VmState state) {
  switch (state) {
    case VmState::kConfigured:
      return "configured";
    case VmState::kBooting:
      return "booting";
    case VmState::kRunning:
      return "running";
    case VmState::kPaused:
      return "paused";
    case VmState::kDead:
      return "dead";
  }
  return "?";
}

MicroVm::MicroVm(uint64_t id, std::string name, std::unique_ptr<fwmem::AddressSpace> space,
                 bool restored_from_snapshot)
    : id_(id),
      name_(std::move(name)),
      space_(std::move(space)),
      restored_from_snapshot_(restored_from_snapshot) {}

void MicroVm::SetMetadata(const std::string& key, std::string value) {
  mmds_[key] = std::move(value);
}

Result<std::string> MicroVm::GetMetadata(const std::string& key) const {
  auto it = mmds_.find(key);
  if (it == mmds_.end()) {
    return Status::NotFound("no MMDS key " + key);
  }
  return it->second;
}

Hypervisor::Hypervisor(fwsim::Simulation& sim, fwmem::HostMemory& host_memory,
                       fwstore::SnapshotStore& snapshot_store, fwobs::Observability& obs,
                       fwfault::FaultInjector& injector)
    : sim_(sim),
      host_memory_(host_memory),
      snapshot_store_(snapshot_store),
      // The virtio-rng entropy pool: forked once at construction so hosts on
      // a shared simulation get distinct-but-deterministic entropy streams.
      guest_entropy_rng_(sim.rng().Fork()),
      tracer_(obs.tracer()),
      fault_major_counter_(obs.metrics().GetCounter("mem.fault.major.count")),
      fault_minor_counter_(obs.metrics().GetCounter("mem.fault.minor.count")),
      fault_zero_counter_(obs.metrics().GetCounter("mem.fault.zero.count")),
      fault_cow_counter_(obs.metrics().GetCounter("mem.fault.cow.count")),
      fault_fresh_counter_(obs.metrics().GetCounter("mem.fault.fresh.count")),
      vm_create_counter_(obs.metrics().GetCounter("hv.vm.create.count")),
      vm_restore_counter_(obs.metrics().GetCounter("hv.vm.restore.count")),
      snapshot_counter_(obs.metrics().GetCounter("hv.snapshot.create.count")),
      injector_(injector) {}

fwsim::Co<MicroVm*> Hypervisor::CreateMicroVm(const std::string& name) {
  fwobs::ScopedSpan span(&tracer_, "hv.create_vm", "vmm");
  span.SetAttribute("vm", name);
  co_await fwsim::Delay(sim_,
                        kApiRequestCost + kProcessSpawnCost + kKvmSetupCost + kDeviceSetupCost);
  auto space = std::make_unique<fwmem::AddressSpace>(host_memory_);
  space->AddSegment(kSegGuestKernel, kKernelBootBytes);
  space->AddSegment(kSegGuestOs, kOsServicesBytes);
  const uint64_t id = next_vm_id_++;
  auto vm = std::make_unique<MicroVm>(id, name, std::move(space),
                                      /*restored_from_snapshot=*/false);
  vm->generation_ = next_generation_++;
  MicroVm* raw = vm.get();
  vms_.emplace(id, std::move(vm));
  vm_create_counter_.Increment();
  FW_LOG(kDebug) << "created microVM " << name << " (id " << id << ")";
  co_return raw;
}

fwsim::Co<Status> Hypervisor::BootGuestOs(MicroVm& vm) {
  if (vm.state() != VmState::kConfigured) {
    co_return Status::FailedPrecondition("guest boot requires a configured VM");
  }
  vm.set_state(VmState::kBooting);
  fwobs::ScopedSpan span(&tracer_, "hv.boot_guest", "vmm");
  auto& space = vm.address_space();
  // The kernel decompresses itself and early userspace populates its pages:
  // all private, fresh writes.
  fwmem::FaultCounts faults = space.DirtyBytes(space.SegmentByName(kSegGuestKernel),
                                               kKernelBootBytes);
  co_await fwsim::Delay(sim_, kGuestKernelBootCost);
  faults += space.DirtyBytes(space.SegmentByName(kSegGuestOs), kOsServicesBytes);
  co_await fwsim::Delay(sim_, kGuestInitCost);
  co_await ServiceFaults(vm, faults);
  vm.set_state(VmState::kRunning);
  co_return Status::Ok();
}

fwsim::Co<Status> Hypervisor::Pause(MicroVm& vm) {
  if (vm.state() != VmState::kRunning) {
    co_return Status::FailedPrecondition("pause requires a running VM");
  }
  co_await fwsim::Delay(sim_, kApiRequestCost + kPauseCost);
  vm.set_state(VmState::kPaused);
  co_return Status::Ok();
}

fwsim::Co<Status> Hypervisor::Resume(MicroVm& vm) {
  if (vm.state() != VmState::kPaused) {
    co_return Status::FailedPrecondition("resume requires a paused VM");
  }
  co_await fwsim::Delay(sim_, kApiRequestCost + kResumeCost);
  if (injector_.Trip(fwfault::FaultKind::kVmCrashOnResume)) {
    vm.set_state(VmState::kDead);
    co_return Status::Unavailable("VMM process crashed resuming " + vm.name());
  }
  vm.set_state(VmState::kRunning);
  co_return Status::Ok();
}

fwsim::Co<Result<std::shared_ptr<fwmem::SnapshotImage>>> Hypervisor::CreateSnapshot(
    MicroVm& vm, const std::string& snapshot_name) {
  if (vm.state() != VmState::kRunning && vm.state() != VmState::kPaused) {
    co_return Status::FailedPrecondition("snapshot requires a running or paused VM");
  }
  if (vm.state() == VmState::kRunning) {
    Status paused = co_await Pause(vm);
    if (!paused.ok()) {
      co_return paused;
    }
  }
  fwobs::ScopedSpan span(&tracer_, "hv.create_snapshot", "vmm");
  co_await fwsim::Delay(sim_, kApiRequestCost + kSnapshotVmstateCost);
  std::shared_ptr<fwmem::SnapshotImage> image = vm.address_space().TakeSnapshot(snapshot_name);
  Status saved = co_await snapshot_store_.Save(image);
  if (!saved.ok()) {
    co_return saved;
  }
  snapshot_counter_.Increment();
  span.SetAttribute("bytes", image->file_bytes());
  FW_LOG(kDebug) << "snapshot " << snapshot_name << ": "
                 << fwbase::BytesToString(image->file_bytes());
  co_return image;
}

fwsim::Co<Result<MicroVm*>> Hypervisor::RestoreMicroVm(const std::string& snapshot_name,
                                                       const std::string& vm_name) {
  auto image = snapshot_store_.Get(snapshot_name);
  if (!image.ok()) {
    co_return image.status();
  }
  fwobs::ScopedSpan span(&tracer_, "hv.restore_vm", "vmm");
  span.SetAttribute("snapshot", snapshot_name);
  // Trimmed VMM bring-up, then map the memory file and parse vmstate. No
  // guest boot: execution continues from the snapshot point.
  co_await fwsim::Delay(sim_, kApiRequestCost + kRestoreProcessCost + kRestoreVmstateCost);
  if (injector_.Trip(fwfault::FaultKind::kVmCrashOnResume)) {
    // The fresh VMM died before the VM was registered: nothing to clean up.
    co_return Status::Unavailable("VMM process crashed restoring " + snapshot_name);
  }
  auto space = std::make_unique<fwmem::AddressSpace>(host_memory_, *image);
  const uint64_t id = next_vm_id_++;
  auto vm = std::make_unique<MicroVm>(id, vm_name, std::move(space),
                                      /*restored_from_snapshot=*/true);
  // Every restore gets a fresh generation: the restored guest's identity is a
  // byte copy of the snapshot's, and the generation gap is how it finds out.
  vm->generation_ = next_generation_++;
  vm->set_state(VmState::kRunning);
  MicroVm* raw = vm.get();
  vms_.emplace(id, std::move(vm));
  vm_restore_counter_.Increment();
  co_return raw;
}

Status Hypervisor::Destroy(MicroVm& vm) {
  auto it = vms_.find(vm.id());
  if (it == vms_.end()) {
    return Status::NotFound("no such VM");
  }
  vm.address_space().Unmap();
  vm.set_state(VmState::kDead);
  vms_.erase(it);
  return Status::Ok();
}

Duration Hypervisor::FaultServiceTime(const MicroVm& vm,
                                      const fwmem::FaultCounts& faults) const {
  // Every fault charge in the simulator flows through here exactly once, so
  // this is the single place the per-kind fault counters are recorded.
  fault_major_counter_.Increment(faults.major_faults);
  fault_minor_counter_.Increment(faults.minor_shared);
  fault_zero_counter_.Increment(faults.zero_fills);
  fault_cow_counter_.Increment(faults.cow_copies);
  fault_fresh_counter_.Increment(faults.fresh_writes);
  return fwmem::FaultServiceTime(vm.address_space(), faults);
}

fwsim::DelayAwaiter Hypervisor::ServiceFaults(const MicroVm& vm,
                                              const fwmem::FaultCounts& faults) {
  return fwsim::Delay(sim_, FaultServiceTime(vm, faults));
}

fwsim::Co<void> Hypervisor::PrefetchWorkingSet(fwmem::SnapshotImage& image,
                                               uint64_t working_set_bytes) {
  // REAP-style: one bulk sequential read instead of per-page random reads.
  co_await fwsim::Delay(sim_,
                        fwbase::TransferTime(working_set_bytes, fwstore::kSequentialBytesPerSec));
  image.set_cache_warm(true);
}

fwsim::Co<Result<std::string>> Hypervisor::GuestReadMmds(MicroVm& vm, const std::string& key) {
  co_await fwsim::Delay(sim_, kMmdsReadCost);
  co_return vm.GetMetadata(key);
}

fwsim::DelayAwaiter Hypervisor::NotifyGenerationChange(MicroVm& vm) {
  (void)vm;
  return fwsim::Delay(sim_, kVmgenidNotifyCost);
}

}  // namespace fwvmm
