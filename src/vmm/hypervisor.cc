#include "src/vmm/hypervisor.h"

#include <utility>

#include "src/base/check.h"
#include "src/base/logging.h"
#include "src/fault/fault.h"

namespace fwvmm {

using fwbase::Result;

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

MicroVm::MicroVm(uint64_t id, std::string name, const MicroVmConfig& config,
                 std::unique_ptr<fwmem::AddressSpace> space, bool restored_from_snapshot)
    : id_(id),
      name_(std::move(name)),
      config_(config),
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
                       fwstore::SnapshotStore& snapshot_store)
    : Hypervisor(sim, host_memory, snapshot_store, Config()) {}

Hypervisor::Hypervisor(fwsim::Simulation& sim, fwmem::HostMemory& host_memory,
                       fwstore::SnapshotStore& snapshot_store, const Config& config)
    : sim_(sim),
      host_memory_(host_memory),
      snapshot_store_(snapshot_store),
      config_(config),
      // The virtio-rng entropy pool: forked once at construction so hosts on
      // a shared simulation get distinct-but-deterministic entropy streams.
      guest_entropy_rng_(sim.rng().Fork()) {}

void Hypervisor::set_observability(fwobs::Observability* obs) {
  tracer_ = &obs->tracer();
  auto& metrics = obs->metrics();
  fault_major_counter_ = &metrics.GetCounter("mem.fault.major.count");
  fault_minor_counter_ = &metrics.GetCounter("mem.fault.minor.count");
  fault_zero_counter_ = &metrics.GetCounter("mem.fault.zero.count");
  fault_cow_counter_ = &metrics.GetCounter("mem.fault.cow.count");
  fault_fresh_counter_ = &metrics.GetCounter("mem.fault.fresh.count");
  vm_create_counter_ = &metrics.GetCounter("hv.vm.create.count");
  vm_restore_counter_ = &metrics.GetCounter("hv.vm.restore.count");
  snapshot_counter_ = &metrics.GetCounter("hv.snapshot.create.count");
}

fwsim::Co<MicroVm*> Hypervisor::CreateMicroVm(const std::string& name,
                                              const MicroVmConfig& config) {
  fwobs::ScopedSpan span(tracer_, "hv.create_vm", "vmm");
  span.SetAttribute("vm", name);
  co_await fwsim::Delay(sim_, config_.api_request_cost + config_.process_spawn_cost +
                                  config_.kvm_setup_cost + config_.device_setup_cost);
  auto space = std::make_unique<fwmem::AddressSpace>(host_memory_);
  space->AddSegment(kSegGuestKernel, config_.kernel_boot_bytes);
  space->AddSegment(kSegGuestOs, config_.os_services_bytes);
  const uint64_t id = next_vm_id_++;
  auto vm = std::make_unique<MicroVm>(id, name, config, std::move(space),
                                      /*restored_from_snapshot=*/false);
  vm->generation_ = next_generation_++;
  MicroVm* raw = vm.get();
  vms_.emplace(id, std::move(vm));
  ++vms_created_;
  if (vm_create_counter_ != nullptr) {
    vm_create_counter_->Increment();
  }
  FW_LOG(kDebug) << "created microVM " << name << " (id " << id << ")";
  co_return raw;
}

fwsim::Co<Status> Hypervisor::BootGuestOs(MicroVm& vm) {
  if (vm.state() != VmState::kConfigured) {
    co_return Status::FailedPrecondition("guest boot requires a configured VM");
  }
  vm.set_state(VmState::kBooting);
  fwobs::ScopedSpan span(tracer_, "hv.boot_guest", "vmm");
  auto& space = vm.address_space();
  // The kernel decompresses itself and early userspace populates its pages:
  // all private, fresh writes.
  fwmem::FaultCounts faults = space.DirtyBytes(space.SegmentByName(kSegGuestKernel),
                                               config_.kernel_boot_bytes);
  co_await fwsim::Delay(sim_, config_.guest_kernel_boot_cost);
  faults += space.DirtyBytes(space.SegmentByName(kSegGuestOs), config_.os_services_bytes);
  co_await fwsim::Delay(sim_, config_.guest_init_cost);
  co_await ServiceFaults(vm, faults);
  vm.set_state(VmState::kRunning);
  co_return Status::Ok();
}

fwsim::Co<Status> Hypervisor::Pause(MicroVm& vm) {
  if (vm.state() != VmState::kRunning) {
    co_return Status::FailedPrecondition("pause requires a running VM");
  }
  co_await fwsim::Delay(sim_, config_.api_request_cost + config_.pause_cost);
  vm.set_state(VmState::kPaused);
  co_return Status::Ok();
}

fwsim::Co<Status> Hypervisor::Resume(MicroVm& vm) {
  if (vm.state() != VmState::kPaused) {
    co_return Status::FailedPrecondition("resume requires a paused VM");
  }
  co_await fwsim::Delay(sim_, config_.api_request_cost + config_.resume_cost);
  if (injector_ != nullptr && injector_->Trip(fwfault::FaultKind::kVmCrashOnResume)) {
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
  fwobs::ScopedSpan span(tracer_, "hv.create_snapshot", "vmm");
  co_await fwsim::Delay(sim_, config_.api_request_cost + config_.snapshot_vmstate_cost);
  std::shared_ptr<fwmem::SnapshotImage> image = vm.address_space().TakeSnapshot(snapshot_name);
  Status saved = co_await snapshot_store_.Save(image);
  if (!saved.ok()) {
    co_return saved;
  }
  ++snapshots_taken_;
  if (snapshot_counter_ != nullptr) {
    snapshot_counter_->Increment();
  }
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
  fwobs::ScopedSpan span(tracer_, "hv.restore_vm", "vmm");
  span.SetAttribute("snapshot", snapshot_name);
  // Trimmed VMM bring-up, then map the memory file and parse vmstate. No
  // guest boot: execution continues from the snapshot point.
  co_await fwsim::Delay(sim_, config_.api_request_cost + config_.restore_process_cost +
                                  config_.restore_vmstate_cost);
  if (injector_ != nullptr && injector_->Trip(fwfault::FaultKind::kVmCrashOnResume)) {
    // The fresh VMM died before the VM was registered: nothing to clean up.
    co_return Status::Unavailable("VMM process crashed restoring " + snapshot_name);
  }
  auto space = std::make_unique<fwmem::AddressSpace>(host_memory_, *image);
  const uint64_t id = next_vm_id_++;
  auto vm = std::make_unique<MicroVm>(id, vm_name, MicroVmConfig(), std::move(space),
                                      /*restored_from_snapshot=*/true);
  // Every restore gets a fresh generation: the restored guest's identity is a
  // byte copy of the snapshot's, and the generation gap is how it finds out.
  vm->generation_ = next_generation_++;
  vm->set_state(VmState::kRunning);
  MicroVm* raw = vm.get();
  vms_.emplace(id, std::move(vm));
  ++vms_restored_;
  if (vm_restore_counter_ != nullptr) {
    vm_restore_counter_->Increment();
  }
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
  // Major faults hit the disk only when the image's file pages are cold; a
  // warm page cache serves them like minor faults.
  const bool warm = vm.address_space().image_backed() && vm.address_space().image()->cache_warm();
  const Duration major_cost = warm ? config_.minor_fault_cost : config_.major_fault_cost;
  // Every fault charge in the simulator flows through here exactly once, so
  // this is the single place the per-kind fault counters are recorded.
  if (fault_major_counter_ != nullptr) {
    fault_major_counter_->Increment(faults.major_faults);
    fault_minor_counter_->Increment(faults.minor_shared);
    fault_zero_counter_->Increment(faults.zero_fills);
    fault_cow_counter_->Increment(faults.cow_copies);
    fault_fresh_counter_->Increment(faults.fresh_writes);
  }
  return major_cost * static_cast<int64_t>(faults.major_faults) +
         config_.minor_fault_cost * static_cast<int64_t>(faults.minor_shared) +
         config_.zero_fault_cost * static_cast<int64_t>(faults.zero_fills) +
         config_.cow_fault_cost * static_cast<int64_t>(faults.cow_copies) +
         config_.cow_fault_cost * static_cast<int64_t>(faults.fresh_writes);
}

fwsim::Co<void> Hypervisor::ServiceFaults(const MicroVm& vm, const fwmem::FaultCounts& faults) {
  co_await fwsim::Delay(sim_, FaultServiceTime(vm, faults));
}

fwsim::Co<void> Hypervisor::PrefetchWorkingSet(fwmem::SnapshotImage& image,
                                               uint64_t working_set_bytes) {
  // REAP-style: one bulk sequential read instead of per-page random reads.
  co_await fwsim::Delay(sim_, Duration::SecondsF(static_cast<double>(working_set_bytes) /
                                                 2.0e9 /* sequential NVMe read */));
  image.set_cache_warm(true);
}

fwsim::Co<Result<std::string>> Hypervisor::GuestReadMmds(MicroVm& vm, const std::string& key) {
  co_await fwsim::Delay(sim_, config_.mmds_read_cost);
  co_return vm.GetMetadata(key);
}

fwsim::Co<void> Hypervisor::NotifyGenerationChange(MicroVm& vm) {
  (void)vm;
  co_await fwsim::Delay(sim_, config_.vmgenid_notify_cost);
}

}  // namespace fwvmm
