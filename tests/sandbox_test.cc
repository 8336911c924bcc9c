// Unit tests for the container substrate: lifecycle, runtime classes,
// checkpoint/restore, base-image sharing, fault costing.
#include <gtest/gtest.h>

#include <memory>

#include "src/fault/fault.h"
#include "src/mem/host_memory.h"
#include "src/sandbox/container.h"
#include "src/storage/block_device.h"
#include "src/storage/snapshot_store.h"
#include "tests/test_util.h"

namespace fwbox {
namespace {

using fwbase::kMiB;
using fwbase::kPageSize;
using fwsim::Simulation;
using fwtest::RunSync;
using namespace fwbase::literals;

class ContainerEngineTest : public fwtest::SimTest {
 protected:
  // Builds a runtime rootfs base image with 20 MiB of binary text.
  std::shared_ptr<fwmem::SnapshotImage> MakeBaseImage() {
    fwmem::AddressSpace space(host_);
    auto seg = space.AddSegment("runtime_text", 20_MiB);
    space.Dirty(seg, 0, fwbase::PagesFor(20_MiB));
    auto image = space.TakeSnapshot("node-rootfs");
    image->set_cache_warm(true);
    return image;
  }

  fwtest::Instruments inst_{sim_};
  fwmem::HostMemory host_{64_GiB, inst_.obs};
  fwstore::BlockDevice dev_{sim_, fwstore::BlockDevice::Config{}, inst_.injector};
  fwstore::SnapshotStore store_{sim_, dev_, 32_GiB, inst_.obs, inst_.injector};
  ContainerEngine engine_{sim_, host_, store_, inst_.injector};
};

TEST_F(ContainerEngineTest, RuncCreateIsFasterThanGvisor) {
  const auto t0 = sim_.Now();
  Container* runc = RunSync(
      sim_, engine_.CreateContainer("c1", ContainerConfig(ContainerRuntime::kRunc), nullptr));
  const auto runc_time = sim_.Now() - t0;
  ASSERT_NE(runc, nullptr);
  EXPECT_EQ(runc->state(), ContainerState::kRunning);

  const auto t1 = sim_.Now();
  RunSync(sim_,
          engine_.CreateContainer("c2", ContainerConfig(ContainerRuntime::kGvisor), nullptr));
  const auto gvisor_time = sim_.Now() - t1;
  EXPECT_GT(gvisor_time, runc_time);  // Sentry + Gofer spawn dominates.
  EXPECT_EQ(engine_.containers_created(), 2u);
}

TEST_F(ContainerEngineTest, PauseUnpauseLifecycle) {
  Container* c = RunSync(
      sim_, engine_.CreateContainer("c", ContainerConfig(ContainerRuntime::kRunc), nullptr));
  EXPECT_TRUE(RunSync(sim_, engine_.Pause(*c)).ok());
  EXPECT_EQ(c->state(), ContainerState::kPaused);
  EXPECT_FALSE(RunSync(sim_, engine_.Pause(*c)).ok());
  EXPECT_TRUE(RunSync(sim_, engine_.Unpause(*c)).ok());
  EXPECT_EQ(c->state(), ContainerState::kRunning);
}

TEST_F(ContainerEngineTest, BaseImageSharesTextAcrossContainers) {
  auto image = MakeBaseImage();
  // The builder space is gone; only the image remains.
  EXPECT_EQ(host_.used_frames(), 0u);
  Container* c1 = RunSync(
      sim_, engine_.CreateContainer("c1", ContainerConfig(ContainerRuntime::kRunc), image));
  Container* c2 = RunSync(
      sim_, engine_.CreateContainer("c2", ContainerConfig(ContainerRuntime::kRunc), image));
  auto& s1 = c1->address_space();
  auto& s2 = c2->address_space();
  s1.TouchBytes(s1.SegmentByName("runtime_text"), 20_MiB);
  s2.TouchBytes(s2.SegmentByName("runtime_text"), 20_MiB);
  EXPECT_EQ(host_.used_bytes(), 20_MiB);  // One shared copy.
  EXPECT_DOUBLE_EQ(s1.pss_bytes(), 10.0 * kMiB);
}

TEST_F(ContainerEngineTest, CheckpointRequiresGvisor) {
  Container* runc = RunSync(
      sim_, engine_.CreateContainer("c", ContainerConfig(ContainerRuntime::kRunc), nullptr));
  auto result = RunSync(sim_, engine_.Checkpoint(*runc, "cp"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), fwbase::StatusCode::kFailedPrecondition);
}

TEST_F(ContainerEngineTest, GvisorCheckpointRestoreRoundTrip) {
  Container* c = RunSync(
      sim_, engine_.CreateContainer("c", ContainerConfig(ContainerRuntime::kGvisor), nullptr));
  auto seg = c->address_space().AddSegment("heap", 8_MiB);
  c->address_space().DirtyBytes(seg, 8_MiB);

  auto image = RunSync(sim_, engine_.Checkpoint(*c, "cp"));
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(c->state(), ContainerState::kPaused);
  EXPECT_EQ(engine_.checkpoints_taken(), 1u);

  auto restored = RunSync(sim_, engine_.RestoreCheckpoint(
                                    "cp", "c2", ContainerConfig(ContainerRuntime::kGvisor)));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->state(), ContainerState::kRunning);
  auto& space = (*restored)->address_space();
  const auto faults = space.TouchBytes(space.SegmentByName("heap"), 8_MiB);
  EXPECT_EQ(faults.major_faults + faults.minor_shared, fwbase::PagesFor(8_MiB));
}

TEST_F(ContainerEngineTest, RestoreMissingCheckpointFails) {
  auto restored = RunSync(sim_, engine_.RestoreCheckpoint(
                                    "nope", "c", ContainerConfig(ContainerRuntime::kGvisor)));
  EXPECT_FALSE(restored.ok());
}

TEST_F(ContainerEngineTest, DestroyReleasesMemory) {
  Container* c = RunSync(
      sim_, engine_.CreateContainer("c", ContainerConfig(ContainerRuntime::kRunc), nullptr));
  auto seg = c->address_space().AddSegment("heap", 4_MiB);
  c->address_space().DirtyBytes(seg, 4_MiB);
  EXPECT_GT(host_.used_bytes(), 0u);
  EXPECT_TRUE(engine_.Destroy(*c).ok());
  EXPECT_EQ(host_.used_bytes(), 0u);
  EXPECT_EQ(engine_.live_container_count(), 0u);
}

TEST_F(ContainerEngineTest, FsKindMapping) {
  EXPECT_EQ(ContainerEngine::FsKindFor(ContainerRuntime::kRunc), fwstore::FsKind::kOverlayFs);
  EXPECT_EQ(ContainerEngine::FsKindFor(ContainerRuntime::kGvisor), fwstore::FsKind::kGofer);
}

TEST_F(ContainerEngineTest, GvisorComputePenalty) {
  EXPECT_DOUBLE_EQ(engine_.ComputeScale(ContainerRuntime::kRunc), 1.0);
  EXPECT_GT(engine_.ComputeScale(ContainerRuntime::kGvisor), 1.0);
}

TEST_F(ContainerEngineTest, RuntimeNames) {
  EXPECT_STREQ(ContainerRuntimeName(ContainerRuntime::kRunc), "runc");
  EXPECT_STREQ(ContainerRuntimeName(ContainerRuntime::kGvisor), "gvisor");
}

// ---------------------------------------------------------------------------
// Fault-twin tests: the same lifecycle paths on an engine whose injector has
// a plan.
// ---------------------------------------------------------------------------

TEST_F(ContainerEngineTest, UnpauseCrashFaultKillsContainerWithTypedError) {
  fwfault::FaultPlan plan;
  plan.Set(fwfault::FaultKind::kSandboxCrash, 1.0, /*max_trips=*/1);
  fwfault::FaultInjector injector(sim_, plan, 3);
  ContainerEngine engine(sim_, host_, store_, injector);

  Container* c = RunSync(
      sim_, engine.CreateContainer("c", ContainerConfig(ContainerRuntime::kRunc), nullptr));
  ASSERT_TRUE(RunSync(sim_, engine.Pause(*c)).ok());
  Status resumed = RunSync(sim_, engine.Unpause(*c));
  EXPECT_EQ(resumed.code(), fwbase::StatusCode::kUnavailable);
  EXPECT_EQ(c->state(), ContainerState::kDead);
  // Destroying the dead container releases everything.
  EXPECT_TRUE(engine.Destroy(*c).ok());
  EXPECT_EQ(host_.used_bytes(), 0u);

  // Budget spent: the next cycle works.
  Container* c2 = RunSync(
      sim_, engine.CreateContainer("c2", ContainerConfig(ContainerRuntime::kRunc), nullptr));
  ASSERT_TRUE(RunSync(sim_, engine.Pause(*c2)).ok());
  EXPECT_TRUE(RunSync(sim_, engine.Unpause(*c2)).ok());
}

TEST_F(ContainerEngineTest, RestoreCrashFaultRegistersNothing) {
  Container* c = RunSync(
      sim_, engine_.CreateContainer("c", ContainerConfig(ContainerRuntime::kGvisor), nullptr));
  ASSERT_TRUE(RunSync(sim_, engine_.Checkpoint(*c, "cp")).ok());
  ASSERT_TRUE(engine_.Destroy(*c).ok());

  fwfault::FaultPlan plan;
  plan.Set(fwfault::FaultKind::kSandboxCrash, 1.0, /*max_trips=*/1);
  fwfault::FaultInjector injector(sim_, plan, 3);
  ContainerEngine engine(sim_, host_, store_, injector);

  auto crashed = RunSync(sim_, engine.RestoreCheckpoint(
                                   "cp", "c2", ContainerConfig(ContainerRuntime::kGvisor)));
  EXPECT_FALSE(crashed.ok());
  EXPECT_EQ(crashed.status().code(), fwbase::StatusCode::kUnavailable);
  EXPECT_EQ(engine.live_container_count(), 0u);
  EXPECT_EQ(host_.used_bytes(), 0u);

  // Budget spent: the retry restores normally.
  auto restored = RunSync(sim_, engine.RestoreCheckpoint(
                                    "cp", "c3", ContainerConfig(ContainerRuntime::kGvisor)));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->state(), ContainerState::kRunning);
}

TEST_F(ContainerEngineTest, EmptyPlanInjectorIsInert) {
  // Happy-path twin of PauseUnpauseLifecycle: an empty plan draws nothing, so
  // a twin whose empty-plan injector has another seed unpauses in exactly the
  // same time, and neither injector ever trips.
  Container* baseline = RunSync(
      sim_, engine_.CreateContainer("c", ContainerConfig(ContainerRuntime::kRunc), nullptr));
  ASSERT_TRUE(RunSync(sim_, engine_.Pause(*baseline)).ok());
  auto t0 = sim_.Now();
  ASSERT_TRUE(RunSync(sim_, engine_.Unpause(*baseline)).ok());
  const auto baseline_unpause = sim_.Now() - t0;

  fwfault::FaultInjector injector(sim_, fwfault::FaultPlan(), 3);
  ContainerEngine engine(sim_, host_, store_, injector);
  Container* twin = RunSync(
      sim_, engine.CreateContainer("c2", ContainerConfig(ContainerRuntime::kRunc), nullptr));
  ASSERT_TRUE(RunSync(sim_, engine.Pause(*twin)).ok());
  t0 = sim_.Now();
  ASSERT_TRUE(RunSync(sim_, engine.Unpause(*twin)).ok());
  EXPECT_EQ((sim_.Now() - t0).nanos(), baseline_unpause.nanos());
  EXPECT_EQ(inst_.injector.total_trips() + injector.total_trips(), 0u);
  EXPECT_GT(inst_.injector.opportunities(fwfault::FaultKind::kSandboxCrash), 0u);
  EXPECT_GT(injector.opportunities(fwfault::FaultKind::kSandboxCrash), 0u);
}

}  // namespace
}  // namespace fwbox
