// Second-wave unit tests: paths the per-module suites leave uncovered —
// isolate attach, broker edge cases, stats corners, microVM config, annotator
// interaction with the runtime, and platform introspection accessors.
#include <gtest/gtest.h>

#include <memory>

#include "src/base/stats.h"
#include "src/baselines/isolate.h"
#include "src/core/annotator.h"
#include "src/core/fireworks.h"
#include "src/core/platform.h"
#include "src/lang/guest_process.h"
#include "src/mem/host_memory.h"
#include "src/msgbus/broker.h"
#include "src/storage/block_device.h"
#include "src/storage/filesystem.h"
#include "src/vmm/microvm.h"
#include "src/workloads/faasdom.h"
#include "tests/test_util.h"

namespace {

using fwlang::ExecEnv;
using fwlang::FunctionSource;
using fwlang::GuestProcess;
using fwlang::Language;
using fwsim::Simulation;
using fwtest::RunSync;
using fwtest::RunSyncVoid;
using namespace fwbase::literals;

// ---------------------------------------------------------------------------
// GuestProcess::AttachRuntime (the isolate path).
// ---------------------------------------------------------------------------

class AttachRuntimeTest : public fwtest::SimTest {
 protected:
  fwtest::Instruments inst_{sim_};
  fwmem::HostMemory host_{16_GiB, inst_.obs};
  fwstore::BlockDevice dev_{sim_, fwstore::BlockDevice::Config{}, inst_.injector};
  fwstore::Filesystem fs_{sim_, dev_, fwstore::FsKind::kHostDirect};
};

TEST_F(AttachRuntimeTest, AttachIsCheapAndSharesText) {
  // Build the shared runtime image.
  const auto costs = fwlang::RuntimeCosts::For(Language::kNodeJs);
  std::shared_ptr<fwmem::SnapshotImage> image;
  {
    fwmem::AddressSpace builder(host_);
    auto seg = builder.AddSegment(fwlang::kSegRuntimeText, costs.runtime_text_bytes);
    builder.DirtyBytes(seg, costs.runtime_text_bytes);
    image = builder.TakeSnapshot("rt");
    image->set_cache_warm(true);
  }
  auto charger = [](const fwmem::FaultCounts& f) {
    return fwbase::Duration::Nanos(400) * static_cast<int64_t>(f.Faults());
  };
  fwmem::AddressSpace iso_a(host_, image);
  fwmem::AddressSpace iso_b(host_, image);
  GuestProcess a(sim_, Language::kNodeJs, iso_a, ExecEnv(&fs_, nullptr, nullptr, 400_us),
                 charger);
  GuestProcess b(sim_, Language::kNodeJs, iso_b, ExecEnv(&fs_, nullptr, nullptr, 400_us),
                 charger);
  const auto t0 = sim_.Now();
  RunSyncVoid(sim_, a.AttachRuntime());
  const auto attach_time = sim_.Now() - t0;
  RunSyncVoid(sim_, b.AttachRuntime());
  EXPECT_TRUE(a.runtime_booted());
  // Attach is milliseconds, not a runtime boot (~310 ms).
  EXPECT_LT(attach_time.millis(), 50.0);
  // Both isolates share one copy of the runtime text.
  EXPECT_LE(host_.used_bytes(),
            costs.runtime_text_bytes + 2 * (2 * fwbase::kMiB) + fwbase::kPageSize);
}

TEST_F(AttachRuntimeTest, DoubleAttachAborts) {
  fwmem::AddressSpace space(host_);
  GuestProcess process(sim_, Language::kPython, space,
                       ExecEnv(&fs_, nullptr, nullptr, 400_us),
                       [](const fwmem::FaultCounts&) { return fwbase::Duration::Zero(); });
  RunSyncVoid(sim_, process.AttachRuntime());
  EXPECT_DEATH(RunSyncVoid(sim_, process.AttachRuntime()), "already booted");
}

// ---------------------------------------------------------------------------
// Broker / Record edges.
// ---------------------------------------------------------------------------

TEST(BrokerEdgeTest, RecordSizeBytes) {
  const fwbus::Record record("key", "value-123");
  EXPECT_EQ(record.SizeBytes(), 3u + 9u);
  EXPECT_EQ(record.offset, -1);
}

TEST(BrokerEdgeTest, EndOffsetErrors) {
  Simulation sim;
  fwtest::Instruments inst(sim);
  fwbus::Broker broker(sim, inst.obs, inst.injector);
  EXPECT_FALSE(broker.EndOffset("none", 0).ok());
  ASSERT_TRUE(broker.CreateTopic("t", 2).ok());
  EXPECT_FALSE(broker.EndOffset("t", 5).ok());
  EXPECT_EQ(*broker.EndOffset("t", 1), 0);
}

TEST(BrokerEdgeTest, ConsumeFromDeletedTopicFails) {
  Simulation sim;
  fwtest::Instruments inst(sim);
  fwbus::Broker broker(sim, inst.obs, inst.injector);
  ASSERT_TRUE(broker.CreateTopic("t").ok());
  ASSERT_TRUE(broker.DeleteTopic("t").ok());
  auto record = RunSync(sim, broker.ConsumeLast("t", 0));
  EXPECT_FALSE(record.ok());
}

// ---------------------------------------------------------------------------
// MicroVm basics not covered by hypervisor tests.
// ---------------------------------------------------------------------------

TEST(MicroVmTest, NetworkAttachmentBookkeeping) {
  fwobs::Observability obs(fwtest::StoppedClock());
  fwmem::HostMemory host(1_GiB, obs);
  fwvmm::MicroVm vm(7, "vm", std::make_unique<fwmem::AddressSpace>(host), false);
  EXPECT_EQ(vm.netns_id(), 0u);
  vm.set_netns_id(3);
  vm.set_tap_name("tap0");
  EXPECT_EQ(vm.netns_id(), 3u);
  EXPECT_EQ(vm.tap_name(), "tap0");
  EXPECT_FALSE(vm.restored_from_snapshot());
  EXPECT_EQ(vm.id(), 7u);
}

// ---------------------------------------------------------------------------
// Annotated function executes end-to-end through the runtime.
// ---------------------------------------------------------------------------

TEST(AnnotatedExecutionTest, FireworksJitCompilesEveryUserMethod) {
  Simulation sim;
  fwtest::Instruments inst(sim);
  fwmem::HostMemory host(16_GiB, inst.obs);
  fwstore::BlockDevice dev(sim, fwstore::BlockDevice::Config{}, inst.injector);
  fwstore::Filesystem fs(sim, dev, fwstore::FsKind::kVirtio);
  fwmem::AddressSpace space(host);

  const FunctionSource user =
      fwwork::MakeFaasdom(fwwork::FaasdomBench::kFact, Language::kPython);
  auto annotated = fwcore::Annotate(user);
  ASSERT_TRUE(annotated.ok());

  GuestProcess process(sim, Language::kPython, space,
                       ExecEnv(&fs, nullptr, nullptr, 400_us),
                       [](const fwmem::FaultCounts& f) {
                         return fwbase::Duration::Nanos(400) *
                                static_cast<int64_t>(f.Faults());
                       });
  RunSyncVoid(sim, process.BootRuntime());
  RunSyncVoid(sim, process.LoadApplication(*annotated));
  auto stats = RunSync(sim, process.CallMethod(fwlang::kFireworksJitMethod, "default"));
  // Every user method compiled exactly once.
  for (const auto& name : annotated->UserMethodNames()) {
    EXPECT_EQ(process.TierOf(name), fwlang::ExecTier::kJit) << name;
  }
  EXPECT_EQ(stats.jit_compiles, annotated->UserMethodNames().size());
  // The entry then runs without further compilation.
  auto run = RunSync(sim, process.CallMethod("main", "default"));
  EXPECT_EQ(run.jit_compiles, 0u);
}

// ---------------------------------------------------------------------------
// Stats corners.
// ---------------------------------------------------------------------------

TEST(StatsEdgeTest, SampleStatsSumAndSingletons) {
  fwbase::SampleStats s;
  s.Add(5.0);
  EXPECT_EQ(s.sum(), 5.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.min(), s.max());
}

TEST(StatsEdgeTest, LogHistogramZeroAndHuge) {
  fwbase::LogHistogram h;
  h.Add(0);
  h.Add(UINT64_MAX);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.PercentileUpperBound(40), 0u);
  EXPECT_FALSE(h.ToString().empty());
}

// ---------------------------------------------------------------------------
// Isolate platform reset semantics.
// ---------------------------------------------------------------------------

TEST(IsolateEdgeTest, ForceColdRecreatesIsolate) {
  fwcore::HostEnv env;
  fwbaselines::IsolatePlatform platform(env);
  const FunctionSource fn =
      fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency, Language::kNodeJs);
  ASSERT_TRUE(RunSync(env.sim(), platform.Install(fn)).ok());
  ASSERT_TRUE(RunSync(env.sim(), platform.Invoke(fn.name, "{}", fwcore::InvokeOptions())).ok());
  ASSERT_TRUE(platform.HasIsolate(fn.name));
  fwcore::InvokeOptions cold;
  cold.force_cold = true;
  auto result = RunSync(env.sim(), platform.Invoke(fn.name, "{}", cold));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->cold);
  platform.ReleaseInstances();
  EXPECT_EQ(env.memory().used_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Fireworks platform introspection accessors.
// ---------------------------------------------------------------------------

TEST(FireworksIntrospectionTest, AccessorsAgreeWithInstall) {
  fwcore::HostEnv env;
  fwcore::FireworksPlatform platform(env);
  EXPECT_EQ(platform.AnnotatedSource("nope"), nullptr);
  EXPECT_EQ(platform.InstallInfo("nope"), nullptr);
  EXPECT_EQ(platform.SnapshotImageOf("nope"), nullptr);
  EXPECT_EQ(platform.SnapshotVersion("nope"), 0);

  const FunctionSource fn =
      fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency, Language::kPython);
  auto install = RunSync(env.sim(), platform.Install(fn));
  ASSERT_TRUE(install.ok());
  const fwcore::InstallResult* info = platform.InstallInfo(fn.name);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->snapshot_bytes, install->snapshot_bytes);
  auto image = platform.SnapshotImageOf(fn.name);
  ASSERT_NE(image, nullptr);
  EXPECT_EQ(image->file_bytes(), install->snapshot_bytes);
  EXPECT_EQ(platform.SnapshotVersion(fn.name), 1);
}

}  // namespace
