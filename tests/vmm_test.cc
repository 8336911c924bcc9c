// Unit tests for the hypervisor: microVM lifecycle, snapshot create/restore,
// MMDS, fault-time accounting, and page-cache warmth semantics.
#include <gtest/gtest.h>

#include <memory>

#include "src/fault/fault.h"
#include "src/mem/host_memory.h"
#include "src/storage/block_device.h"
#include "src/storage/snapshot_store.h"
#include "src/vmm/hypervisor.h"
#include "src/vmm/microvm.h"
#include "tests/test_util.h"

namespace fwvmm {
namespace {

using fwbase::Duration;
using fwbase::Status;
using fwbase::kMiB;
using fwbase::kPageSize;
using fwsim::Co;
using fwsim::Simulation;
using fwtest::RunSync;
using fwtest::RunSyncVoid;
using namespace fwbase::literals;

class HypervisorTest : public ::testing::Test {
 protected:
  Duration Elapsed(fwbase::SimTime t0) const { return sim_.Now() - t0; }

  MicroVm* CreateBooted(const std::string& name) { return CreateBooted(hv_, name); }
  MicroVm* CreateBooted(Hypervisor& hv, const std::string& name) {
    MicroVm* vm = RunSync(sim_, hv.CreateMicroVm(name));
    FW_CHECK(RunSync(sim_, hv.BootGuestOs(*vm)).ok());
    return vm;
  }

  uint64_t Count(const std::string& counter) const {
    return inst_.obs.metrics().CounterValue(counter);
  }

  Simulation sim_;
  fwtest::Instruments inst_{sim_};
  fwmem::HostMemory host_{128_GiB, inst_.obs};
  fwstore::BlockDevice dev_{sim_, fwstore::BlockDevice::Config{}, inst_.injector};
  fwstore::SnapshotStore store_{sim_, dev_, 64_GiB, inst_.obs, inst_.injector};
  Hypervisor hv_{sim_, host_, store_, inst_.obs, inst_.injector};
};

TEST_F(HypervisorTest, CreateMicroVmTakesSetupTime) {
  const auto t0 = sim_.Now();
  MicroVm* vm = RunSync(sim_, hv_.CreateMicroVm("vm0"));
  ASSERT_NE(vm, nullptr);
  EXPECT_EQ(vm->state(), VmState::kConfigured);
  // api + process + kvm + devices ≈ 81 ms with default config.
  EXPECT_GT(Elapsed(t0).millis(), 60.0);
  EXPECT_LT(Elapsed(t0).millis(), 120.0);
  EXPECT_EQ(Count("hv.vm.create.count"), 1u);
  EXPECT_EQ(hv_.live_vm_count(), 1u);
}

TEST_F(HypervisorTest, BootGuestOsDirtiesKernelPages) {
  MicroVm* vm = RunSync(sim_, hv_.CreateMicroVm("vm0"));
  EXPECT_EQ(host_.used_bytes(), 0u);
  const auto t0 = sim_.Now();
  EXPECT_TRUE(RunSync(sim_, hv_.BootGuestOs(*vm)).ok());
  EXPECT_EQ(vm->state(), VmState::kRunning);
  // Kernel boot ~620ms + init ~170ms + fault service.
  EXPECT_GT(Elapsed(t0).millis(), 700.0);
  // 46 + 30 MiB dirtied.
  EXPECT_EQ(host_.used_bytes(),
            Hypervisor::kKernelBootBytes + Hypervisor::kOsServicesBytes);
}

TEST_F(HypervisorTest, BootRequiresConfiguredState) {
  MicroVm* vm = CreateBooted("vm0");
  const auto status = RunSync(sim_, hv_.BootGuestOs(*vm));
  EXPECT_EQ(status.code(), fwbase::StatusCode::kFailedPrecondition);
}

TEST_F(HypervisorTest, PauseResumeRoundTrip) {
  MicroVm* vm = CreateBooted("vm0");
  EXPECT_TRUE(RunSync(sim_, hv_.Pause(*vm)).ok());
  EXPECT_EQ(vm->state(), VmState::kPaused);
  EXPECT_FALSE(RunSync(sim_, hv_.Pause(*vm)).ok());
  EXPECT_TRUE(RunSync(sim_, hv_.Resume(*vm)).ok());
  EXPECT_EQ(vm->state(), VmState::kRunning);
  EXPECT_FALSE(RunSync(sim_, hv_.Resume(*vm)).ok());
}

TEST_F(HypervisorTest, SnapshotStoresImageAndLeavesVmPaused) {
  MicroVm* vm = CreateBooted("vm0");
  auto image = RunSync(sim_, hv_.CreateSnapshot(*vm, "snap0"));
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(vm->state(), VmState::kPaused);
  EXPECT_TRUE(store_.Contains("snap0"));
  EXPECT_EQ((*image)->file_bytes(),
            Hypervisor::kKernelBootBytes + Hypervisor::kOsServicesBytes);
  EXPECT_TRUE((*image)->cache_warm());
  EXPECT_EQ(Count("hv.snapshot.create.count"), 1u);
}

TEST_F(HypervisorTest, SnapshotOfConfiguredVmFails) {
  MicroVm* vm = RunSync(sim_, hv_.CreateMicroVm("vm0"));
  auto image = RunSync(sim_, hv_.CreateSnapshot(*vm, "snap0"));
  EXPECT_FALSE(image.ok());
}

TEST_F(HypervisorTest, RestoreIsMuchFasterThanColdBoot) {
  MicroVm* vm = CreateBooted("vm0");
  ASSERT_TRUE(RunSync(sim_, hv_.CreateSnapshot(*vm, "snap0")).ok());

  const auto t0 = sim_.Now();
  auto restored = RunSync(sim_, hv_.RestoreMicroVm("snap0", "clone1"));
  ASSERT_TRUE(restored.ok());
  const Duration restore_time = Elapsed(t0);
  EXPECT_EQ((*restored)->state(), VmState::kRunning);
  EXPECT_TRUE((*restored)->restored_from_snapshot());
  // Restore (~86 ms of VMM setup) must be far below cold boot (~870 ms).
  EXPECT_LT(restore_time.millis(), 150.0);
  EXPECT_EQ(Count("hv.vm.restore.count"), 1u);
}

TEST_F(HypervisorTest, RestoredVmSharesPagesWithSiblings) {
  MicroVm* vm = CreateBooted("vm0");
  ASSERT_TRUE(RunSync(sim_, hv_.CreateSnapshot(*vm, "snap0")).ok());
  EXPECT_TRUE(hv_.Destroy(*vm).ok());
  EXPECT_EQ(host_.used_bytes(), 0u);

  MicroVm* c1 = *RunSync(sim_, hv_.RestoreMicroVm("snap0", "c1"));
  MicroVm* c2 = *RunSync(sim_, hv_.RestoreMicroVm("snap0", "c2"));
  auto& s1 = c1->address_space();
  auto& s2 = c2->address_space();
  const uint64_t kernel_bytes = Hypervisor::kKernelBootBytes;
  s1.TouchBytes(s1.SegmentByName(kSegGuestKernel), kernel_bytes);
  s2.TouchBytes(s2.SegmentByName(kSegGuestKernel), kernel_bytes);
  // Both mapped all kernel pages; the host holds one copy.
  EXPECT_EQ(host_.used_bytes(), kernel_bytes);
  EXPECT_DOUBLE_EQ(s1.pss_bytes(), kernel_bytes / 2.0);
}

TEST_F(HypervisorTest, RestoreOfMissingSnapshotFails) {
  auto restored = RunSync(sim_, hv_.RestoreMicroVm("nope", "c1"));
  EXPECT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), fwbase::StatusCode::kNotFound);
}

TEST_F(HypervisorTest, DestroyReleasesFramesAndForgetsVm) {
  MicroVm* vm = CreateBooted("vm0");
  EXPECT_GT(host_.used_bytes(), 0u);
  EXPECT_TRUE(hv_.Destroy(*vm).ok());
  EXPECT_EQ(host_.used_bytes(), 0u);
  EXPECT_EQ(hv_.live_vm_count(), 0u);
}

TEST_F(HypervisorTest, MmdsHostWriteGuestRead) {
  MicroVm* vm = CreateBooted("vm0");
  vm->SetMetadata("fcID", "42");
  const auto t0 = sim_.Now();
  auto value = RunSync(sim_, hv_.GuestReadMmds(*vm, "fcID"));
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, "42");
  EXPECT_GT(Elapsed(t0).micros(), 100.0);  // In-guest HTTP round trip.
  EXPECT_FALSE(RunSync(sim_, hv_.GuestReadMmds(*vm, "none")).ok());
}

TEST_F(HypervisorTest, WarmImageFaultsAreCheap) {
  MicroVm* vm = CreateBooted("vm0");
  auto image = RunSync(sim_, hv_.CreateSnapshot(*vm, "snap0"));
  ASSERT_TRUE(image.ok());
  MicroVm* clone = *RunSync(sim_, hv_.RestoreMicroVm("snap0", "c1"));

  fwmem::FaultCounts faults;
  faults.major_faults = 1000;
  const Duration warm = hv_.FaultServiceTime(*clone, faults);
  (*image)->set_cache_warm(false);
  const Duration cold = hv_.FaultServiceTime(*clone, faults);
  EXPECT_GT(cold / warm, 10.0);  // Disk-bound vs page-cache-bound.
}

TEST_F(HypervisorTest, PrefetchWarmsImage) {
  MicroVm* vm = CreateBooted("vm0");
  auto image = RunSync(sim_, hv_.CreateSnapshot(*vm, "snap0"));
  (*image)->set_cache_warm(false);
  RunSyncVoid(sim_, hv_.PrefetchWorkingSet(**image, 64 * kMiB));
  EXPECT_TRUE((*image)->cache_warm());
}

TEST_F(HypervisorTest, FaultServiceTimeComposition) {
  MicroVm* vm = CreateBooted("vm0");
  fwmem::FaultCounts faults;
  faults.minor_shared = 10;
  faults.cow_copies = 5;
  faults.zero_fills = 2;
  const Duration t = hv_.FaultServiceTime(*vm, faults);
  const Duration expect = fwmem::kMinorFaultCost * 10 + fwmem::kCowFaultCost * 5 +
                          fwmem::kZeroFaultCost * 2;
  EXPECT_EQ(t.nanos(), expect.nanos());
}

TEST_F(HypervisorTest, ManyClonesFromOneSnapshot) {
  MicroVm* vm = CreateBooted("vm0");
  ASSERT_TRUE(RunSync(sim_, hv_.CreateSnapshot(*vm, "snap0")).ok());
  ASSERT_TRUE(hv_.Destroy(*vm).ok());
  for (int i = 0; i < 20; ++i) {
    auto clone = RunSync(sim_, hv_.RestoreMicroVm("snap0", "c" + std::to_string(i)));
    ASSERT_TRUE(clone.ok());
    auto& space = (*clone)->address_space();
    space.TouchBytes(space.SegmentByName(kSegGuestKernel), Hypervisor::kKernelBootBytes);
  }
  EXPECT_EQ(hv_.live_vm_count(), 20u);
  // All twenty share one copy of the kernel pages.
  EXPECT_EQ(host_.used_bytes(), Hypervisor::kKernelBootBytes);
}

TEST_F(HypervisorTest, VmStateNames) {
  EXPECT_STREQ(VmStateName(VmState::kRunning), "running");
  EXPECT_STREQ(VmStateName(VmState::kDead), "dead");
}

// ---------------------------------------------------------------------------
// Fault-twin tests: the same lifecycle paths on a hypervisor whose injector
// has a plan.
// ---------------------------------------------------------------------------

TEST_F(HypervisorTest, ResumeCrashFaultKillsVmWithTypedError) {
  fwfault::FaultPlan plan;
  plan.Set(fwfault::FaultKind::kVmCrashOnResume, 1.0, /*max_trips=*/1);
  fwfault::FaultInjector injector(sim_, plan, 5);
  Hypervisor hv(sim_, host_, store_, inst_.obs, injector);

  MicroVm* vm = CreateBooted(hv, "vm0");
  ASSERT_TRUE(RunSync(sim_, hv.Pause(*vm)).ok());
  Status resumed = RunSync(sim_, hv.Resume(*vm));
  EXPECT_EQ(resumed.code(), fwbase::StatusCode::kUnavailable);
  EXPECT_EQ(vm->state(), VmState::kDead);
  // A dead VM can still be destroyed cleanly — no leaked frames.
  EXPECT_TRUE(hv.Destroy(*vm).ok());
  EXPECT_EQ(host_.used_bytes(), 0u);

  // The trip budget is spent: the next pause/resume cycle succeeds.
  MicroVm* vm2 = CreateBooted(hv, "vm1");
  ASSERT_TRUE(RunSync(sim_, hv.Pause(*vm2)).ok());
  EXPECT_TRUE(RunSync(sim_, hv.Resume(*vm2)).ok());
  EXPECT_EQ(injector.trips(fwfault::FaultKind::kVmCrashOnResume), 1u);
}

TEST_F(HypervisorTest, RestoreCrashFaultRegistersNothing) {
  MicroVm* vm = CreateBooted("vm0");
  ASSERT_TRUE(RunSync(sim_, hv_.CreateSnapshot(*vm, "snap0")).ok());
  FW_CHECK(hv_.Destroy(*vm).ok());

  fwfault::FaultPlan plan;
  plan.Set(fwfault::FaultKind::kVmCrashOnResume, 1.0, /*max_trips=*/1);
  fwfault::FaultInjector injector(sim_, plan, 5);
  Hypervisor hv(sim_, host_, store_, inst_.obs, injector);

  auto crashed = RunSync(sim_, hv.RestoreMicroVm("snap0", "clone0"));
  EXPECT_FALSE(crashed.ok());
  EXPECT_EQ(crashed.status().code(), fwbase::StatusCode::kUnavailable);
  EXPECT_EQ(hv.live_vm_count(), 0u);
  EXPECT_EQ(host_.used_bytes(), 0u);

  // Budget spent: the retry restores normally from the same snapshot.
  auto restored = RunSync(sim_, hv.RestoreMicroVm("snap0", "clone1"));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->state(), VmState::kRunning);
}

TEST_F(HypervisorTest, EmptyPlanInjectorIsInert) {
  // Happy-path twin of PauseResumeRoundTrip: an empty plan draws nothing, so
  // a twin whose empty-plan injector has another seed resumes in exactly the
  // same time, and neither injector ever trips.
  MicroVm* baseline = CreateBooted("vm0");
  ASSERT_TRUE(RunSync(sim_, hv_.Pause(*baseline)).ok());
  const auto t0 = sim_.Now();
  ASSERT_TRUE(RunSync(sim_, hv_.Resume(*baseline)).ok());
  const Duration baseline_resume = Elapsed(t0);

  fwfault::FaultInjector injector(sim_, fwfault::FaultPlan(), 5);
  Hypervisor hv(sim_, host_, store_, inst_.obs, injector);
  MicroVm* twin = CreateBooted(hv, "vm1");
  ASSERT_TRUE(RunSync(sim_, hv.Pause(*twin)).ok());
  const auto t1 = sim_.Now();
  ASSERT_TRUE(RunSync(sim_, hv.Resume(*twin)).ok());
  EXPECT_EQ(Elapsed(t1).nanos(), baseline_resume.nanos());
  EXPECT_EQ(inst_.injector.total_trips() + injector.total_trips(), 0u);
  EXPECT_GT(inst_.injector.opportunities(fwfault::FaultKind::kVmCrashOnResume), 0u);
  EXPECT_GT(injector.opportunities(fwfault::FaultKind::kVmCrashOnResume), 0u);
}

}  // namespace
}  // namespace fwvmm
