// Clone-uniqueness detector battery (DESIGN.md §15).
//
// A post-JIT snapshot captures the guest's RNG stream position, monotonic
// clock base and request-id counter byte-for-byte, so every clone resumed
// from it starts with the *same* "random" values — the collision Brooker &
// Graf describe for microVM snapshots. These tests first prove the collision
// exists (red with Config::restore_uniqueness = false), then prove the
// vmgenid-style resume protocol restores uniqueness at every restore site:
// the ordinary snapshot Invoke path, the warm-pool PrepareClone path, and the
// kDataLoss re-install retry path.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "src/cluster/snapshot_distribution.h"
#include "src/core/fireworks.h"
#include "src/core/platform.h"
#include "src/fault/fault.h"
#include "src/lang/function_ir.h"
#include "src/lang/guest_process.h"
#include "src/mem/address_space.h"
#include "tests/test_util.h"

namespace fwcore {
namespace {

using fwbase::Duration;
using fwfault::FaultKind;
using fwlang::FunctionSource;
using fwlang::GuestProcess;
using fwlang::Language;
using fwlang::MethodDef;
using fwlang::Op;
using fwtest::RunSync;
using fwtest::RunSyncVoid;
using namespace fwbase::literals;

FunctionSource UniqFn() {
  std::vector<MethodDef> methods;
  methods.emplace_back("main", std::vector<Op>{Op::Compute(2'000)}, 1_KiB);
  return FunctionSource("uniq", Language::kNodeJs, std::move(methods), "main", 1_MiB);
}

// ---------------------------------------------------------------------------
// Unit level: GuestProcess identity riding an AddressSpace snapshot.
// ---------------------------------------------------------------------------

class CloneIdentityTest : public fwtest::SimTest {
 protected:
  CloneIdentityTest() { env_ = fwlang::ExecEnv(&fs_, nullptr, nullptr, Duration::Micros(400)); }

  GuestProcess::FaultCharger Charger() {
    return [](const fwmem::FaultCounts& f) {
      return Duration::Nanos(1500) * static_cast<int64_t>(f.Faults());
    };
  }

  // Boots + loads UniqFn in a fresh process attached to `space`.
  std::unique_ptr<GuestProcess> BootAndLoad(fwmem::AddressSpace& space) {
    fn_ = UniqFn();
    auto process = std::make_unique<GuestProcess>(sim_, fn_.language, space, env_, Charger());
    RunSyncVoid(sim_, process->BootRuntime());
    RunSyncVoid(sim_, process->LoadApplication(fn_));
    return process;
  }

  FunctionSource fn_;
  fwtest::Instruments inst_{sim_};
  fwmem::HostMemory host_{64_GiB, inst_.obs};
  fwstore::BlockDevice dev_{sim_, fwstore::BlockDevice::Config{}, inst_.injector};
  fwstore::Filesystem fs_{sim_, dev_, fwstore::FsKind::kVirtio};
  fwlang::ExecEnv env_;
};

// The detector: two clones of one snapshot emit bit-identical "random"
// request ids, identical first RNG draws and colliding monotonic timestamps.
TEST_F(CloneIdentityTest, ClonesFromOneSnapshotCollideBitForBit) {
  fwmem::AddressSpace space(host_);
  auto parent = BootAndLoad(space);
  // Advance the identity stream so the snapshot captures a mid-stream state,
  // exactly as a real install's __fireworks_jit execution would.
  (void)parent->GuestRandomU64();
  (void)parent->NextRequestId();
  auto image = space.TakeSnapshot("post-jit");

  fwmem::AddressSpace space_a(host_, image);
  fwmem::AddressSpace space_b(host_, image);
  auto a = parent->CloneFor(space_a, Charger());
  auto b = parent->CloneFor(space_b, Charger());

  EXPECT_EQ(a->NextRequestId(), b->NextRequestId());
  EXPECT_EQ(a->GuestRandomU64(), b->GuestRandomU64());
  EXPECT_EQ(a->GuestMonotonicNanos(), b->GuestMonotonicNanos());
}

// The identity record is snapshot state, not a side channel: a clone resumes
// the RNG stream at exactly the position the parent would have continued it.
TEST_F(CloneIdentityTest, CloneContinuesParentStreamPosition) {
  fwmem::AddressSpace space(host_);
  auto parent = BootAndLoad(space);
  (void)parent->GuestRandomU64();
  auto image = space.TakeSnapshot("post-jit");

  fwmem::AddressSpace clone_space(host_, image);
  auto clone = parent->CloneFor(clone_space, Charger());
  EXPECT_EQ(parent->GuestRandomU64(), clone->GuestRandomU64());
}

// Green half: the vmgenid resume protocol makes the clones diverge, and the
// rebased clock tracks the host timeline instead of the captured base.
TEST_F(CloneIdentityTest, ReseedRestoresUniqueness) {
  fwmem::AddressSpace space(host_);
  auto parent = BootAndLoad(space);
  auto image = space.TakeSnapshot("post-jit");

  fwmem::AddressSpace space_a(host_, image);
  fwmem::AddressSpace space_b(host_, image);
  auto a = parent->CloneFor(space_a, Charger());
  auto b = parent->CloneFor(space_b, Charger());
  const int64_t collided = a->GuestMonotonicNanos();

  RunSyncVoid(sim_, a->ReseedFromHostEntropy(1, 0x1111'1111'1111'1111ULL));
  RunSyncVoid(sim_, a->RebaseMonotonicClock(1));
  RunSyncVoid(sim_, b->ReseedFromHostEntropy(1, 0x2222'2222'2222'2222ULL));
  RunSyncVoid(sim_, b->RebaseMonotonicClock(1));

  EXPECT_NE(a->NextRequestId(), b->NextRequestId());
  EXPECT_NE(a->GuestRandomU64(), b->GuestRandomU64());
  EXPECT_EQ(a->observed_generation(), 1u);
  EXPECT_EQ(b->observed_generation(), 1u);
  // The rebased clock reads host time, not the snapshot's captured base.
  EXPECT_EQ(a->GuestMonotonicNanos(), sim_.Now().nanos());
  EXPECT_GT(a->GuestMonotonicNanos(), collided);
}

// The protocol is idempotent per generation: a redelivered notification for
// an already-acknowledged generation neither perturbs the stream nor charges
// time.
TEST_F(CloneIdentityTest, ReseedIdempotentPerGeneration) {
  fwmem::AddressSpace space(host_);
  auto parent = BootAndLoad(space);
  auto image = space.TakeSnapshot("post-jit");
  fwmem::AddressSpace clone_space(host_, image);
  auto clone = parent->CloneFor(clone_space, Charger());

  RunSyncVoid(sim_, clone->ReseedFromHostEntropy(1, 42));
  RunSyncVoid(sim_, clone->RebaseMonotonicClock(1));
  const fwmem::GuestIdentityRecord before = clone->identity();
  const fwbase::SimTime t0 = sim_.Now();
  RunSyncVoid(sim_, clone->ReseedFromHostEntropy(1, 777));
  RunSyncVoid(sim_, clone->RebaseMonotonicClock(1));
  EXPECT_EQ(sim_.Now(), t0);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(clone->identity().rng_state[i], before.rng_state[i]);
  }
  EXPECT_EQ(clone->observed_generation(), 1u);
}

// Post-reseed statistical independence, mirroring RngTest.ForkIndependentStream:
// two reseeded siblings agree on roughly half their bits — no residual
// correlation from the shared snapshot state.
TEST_F(CloneIdentityTest, PostReseedStreamsStatisticallyIndependent) {
  fwmem::AddressSpace space(host_);
  auto parent = BootAndLoad(space);
  auto image = space.TakeSnapshot("post-jit");
  fwmem::AddressSpace space_a(host_, image);
  fwmem::AddressSpace space_b(host_, image);
  auto a = parent->CloneFor(space_a, Charger());
  auto b = parent->CloneFor(space_b, Charger());

  RunSyncVoid(sim_, a->ReseedFromHostEntropy(1, 0xAAAA'BBBB'CCCC'DDDDULL));
  RunSyncVoid(sim_, a->RebaseMonotonicClock(1));
  RunSyncVoid(sim_, b->ReseedFromHostEntropy(1, 0x1234'5678'9ABC'DEF0ULL));
  RunSyncVoid(sim_, b->RebaseMonotonicClock(1));

  constexpr int kDraws = 256;
  int agreeing_bits = 0;
  for (int i = 0; i < kDraws; ++i) {
    const uint64_t xored = a->GuestRandomU64() ^ b->GuestRandomU64();
    agreeing_bits += 64 - __builtin_popcountll(xored);
  }
  const double agree_fraction = static_cast<double>(agreeing_bits) / (kDraws * 64.0);
  EXPECT_GT(agree_fraction, 0.45);
  EXPECT_LT(agree_fraction, 0.55);
}

// ---------------------------------------------------------------------------
// Platform level: the three restore sites, red (fix off) then green (fix on).
// ---------------------------------------------------------------------------

class ClonePlatformTest : public ::testing::Test {
 protected:
  static FireworksPlatform::Config FixOff() {
    FireworksPlatform::Config config;
    config.restore_uniqueness = false;
    return config;
  }

  Result<InvocationResult> Invoke(FireworksPlatform& platform, HostEnv& env) {
    return RunSync(env.sim(), platform.Invoke("uniq", "{}", InvokeOptions()));
  }
};

// Restore site 1 (Invoke): with the fix off, consecutive invocations restore
// byte-identical identity and mint the same request id, the same first RNG
// draw and the same guest timestamp — the bug, demonstrably red.
TEST_F(ClonePlatformTest, InvokeSiteCollidesWithFixOff) {
  HostEnv env;
  FireworksPlatform platform(env, FixOff());
  ASSERT_TRUE(RunSync(env.sim(), platform.Install(UniqFn())).ok());
  auto r1 = Invoke(platform, env);
  auto r2 = Invoke(platform, env);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->exec_stats.request_id, r2->exec_stats.request_id);
  EXPECT_EQ(r1->exec_stats.first_random, r2->exec_stats.first_random);
  EXPECT_EQ(r1->exec_stats.guest_monotonic_ns, r2->exec_stats.guest_monotonic_ns);
}

// Green: the default configuration reseeds on every restore, so the same two
// invocations mint distinct ids, distinct draws, and advancing timestamps.
TEST_F(ClonePlatformTest, InvokeSiteUniqueWithFixOn) {
  HostEnv env;
  FireworksPlatform platform(env);
  ASSERT_TRUE(RunSync(env.sim(), platform.Install(UniqFn())).ok());
  auto r1 = Invoke(platform, env);
  auto r2 = Invoke(platform, env);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_NE(r1->exec_stats.request_id, r2->exec_stats.request_id);
  EXPECT_NE(r1->exec_stats.first_random, r2->exec_stats.first_random);
  EXPECT_LT(r1->exec_stats.guest_monotonic_ns, r2->exec_stats.guest_monotonic_ns);
  EXPECT_EQ(env.metrics().GetCounter("fw.uniqueness.reseed.count").value(), 2u);
}

// Restore site 2 (warm pool): parked clones are byte copies of the snapshot
// too. Red with the fix off, green with it on.
TEST_F(ClonePlatformTest, WarmPoolSiteCollidesWithFixOff) {
  HostEnv env;
  FireworksPlatform platform(env, FixOff());
  ASSERT_TRUE(RunSync(env.sim(), platform.Install(UniqFn())).ok());
  ASSERT_TRUE(RunSync(env.sim(), platform.PrepareClone("uniq")).ok());
  ASSERT_TRUE(RunSync(env.sim(), platform.PrepareClone("uniq")).ok());
  auto r1 = RunSync(env.sim(), platform.Invoke("uniq", "{}", InvokeOptions()));
  auto r2 = RunSync(env.sim(), platform.Invoke("uniq", "{}", InvokeOptions()));
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->exec_stats.request_id, r2->exec_stats.request_id);
  EXPECT_EQ(r1->exec_stats.first_random, r2->exec_stats.first_random);
  // Both ran on their parked clone, not on a fresh restore.
  EXPECT_EQ(env.metrics().GetCounter("fw.warmpool.invoked.count").value(), 2u);
}

TEST_F(ClonePlatformTest, WarmPoolSiteUniqueWithFixOn) {
  HostEnv env;
  FireworksPlatform platform(env);
  ASSERT_TRUE(RunSync(env.sim(), platform.Install(UniqFn())).ok());
  ASSERT_TRUE(RunSync(env.sim(), platform.PrepareClone("uniq")).ok());
  ASSERT_TRUE(RunSync(env.sim(), platform.PrepareClone("uniq")).ok());
  auto r1 = RunSync(env.sim(), platform.Invoke("uniq", "{}", InvokeOptions()));
  auto r2 = RunSync(env.sim(), platform.Invoke("uniq", "{}", InvokeOptions()));
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_NE(r1->exec_stats.request_id, r2->exec_stats.request_id);
  EXPECT_NE(r1->exec_stats.first_random, r2->exec_stats.first_random);
  // No clone was parked with a stale generation, so both ran on theirs.
  EXPECT_EQ(env.metrics().GetCounter("fw.uniqueness.stale_clone_discarded.count").value(), 0u);
  EXPECT_EQ(env.metrics().GetCounter("fw.warmpool.invoked.count").value(), 2u);
}

// Restore site 3 (kDataLoss re-install): a corrupted snapshot load forces a
// re-persist and a second restore. That retry restore must reseed too — the
// invocation still completes with a fresh, non-colliding identity.
TEST_F(ClonePlatformTest, DataLossReinstallSiteStillUnique) {
  HostEnv::Config host_config;
  host_config.fault_plan.Set(FaultKind::kSnapshotCorruption, 1.0, /*max_trips=*/1);
  HostEnv env(host_config);
  FireworksPlatform platform(env);
  ASSERT_TRUE(RunSync(env.sim(), platform.Install(UniqFn())).ok());
  auto r1 = Invoke(platform, env);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->attempts, 2);  // Attempt 1 tripped the corruption.
  EXPECT_EQ(env.metrics().GetCounter("fw.snapshot.corruption_repairs.count").value(), 1u);
  EXPECT_NE(r1->exec_stats.request_id, 0u);
  EXPECT_GE(env.metrics().GetCounter("fw.uniqueness.reseed.count").value(), 1u);
  // A follow-up invocation on the repaired snapshot stays distinct.
  auto r2 = Invoke(platform, env);
  ASSERT_TRUE(r2.ok());
  EXPECT_NE(r1->exec_stats.request_id, r2->exec_stats.request_id);
}

// The hypervisor's vmgenid counter is strictly monotonic across every VM
// create and restore, whatever kind of restore it was.
TEST_F(ClonePlatformTest, GenerationMonotonicAcrossRestoreKinds) {
  HostEnv env;
  FireworksPlatform platform(env);
  std::vector<uint64_t> generations;
  generations.push_back(platform.hypervisor().current_generation());  // 0: nothing yet.
  ASSERT_TRUE(RunSync(env.sim(), platform.Install(UniqFn())).ok());
  generations.push_back(platform.hypervisor().current_generation());  // Install VM create.
  ASSERT_TRUE(Invoke(platform, env).ok());
  generations.push_back(platform.hypervisor().current_generation());  // Snapshot restore.
  ASSERT_TRUE(RunSync(env.sim(), platform.PrepareClone("uniq")).ok());
  generations.push_back(platform.hypervisor().current_generation());  // Warm-pool restore.
  ASSERT_TRUE(RunSync(env.sim(), platform.RegenerateSnapshot("uniq")).ok());
  generations.push_back(platform.hypervisor().current_generation());  // Regeneration restore.
  for (size_t i = 1; i < generations.size(); ++i) {
    EXPECT_GT(generations[i], generations[i - 1]) << "step " << i;
  }
}

// ---------------------------------------------------------------------------
// Distribution tier: per-host vmgenid counter on the registry restore path.
// ---------------------------------------------------------------------------

class DistributionGenerationTest : public fwtest::SimTest {
 protected:
  fwcluster::DistributionConfig SmallConfig() {
    fwcluster::DistributionConfig config;
    config.enabled = true;
    config.base_layer_bytes = 8ull << 20;
    config.delta_layer_bytes = 2ull << 20;
    config.chunk_bytes = 1ull << 20;
    return config;
  }

  fwcluster::AppTable apps_;
  const fwcluster::AppId app0_ = apps_.Intern("app-0");
  fwtest::Instruments inst_{sim_};
};

TEST_F(DistributionGenerationTest, GenerationBumpsPerRestoreAndSurvivesRestart) {
  fwcluster::SnapshotDistribution dist(sim_, apps_, 2, SmallConfig(), inst_.obs, inst_.injector);
  dist.Publish(app0_, 0);
  ASSERT_TRUE(RunSync(sim_, dist.EnsureSnapshot(1, app0_)).ok());
  EXPECT_EQ(dist.Generation(1), 0u);

  RunSyncVoid(sim_, dist.WarmRestore(1, app0_));
  EXPECT_EQ(dist.Generation(1), 1u);
  EXPECT_EQ(dist.stats().guest_reseeds, 1u);

  // Already warm: no second restore, no second reseed.
  RunSyncVoid(sim_, dist.WarmRestore(1, app0_));
  EXPECT_EQ(dist.Generation(1), 1u);

  // A restart forces a re-restore; the counter continues, never resets.
  dist.OnHostRestart(1);
  RunSyncVoid(sim_, dist.WarmRestore(1, app0_));
  EXPECT_EQ(dist.Generation(1), 2u);
  EXPECT_EQ(dist.stats().guest_reseeds, 2u);
  // The untouched host never restored anything.
  EXPECT_EQ(dist.Generation(0), 0u);
}

TEST_F(DistributionGenerationTest, UniquenessOffChargesNoReseed) {
  fwcluster::DistributionConfig config = SmallConfig();
  config.restore_uniqueness = false;
  fwcluster::SnapshotDistribution dist(sim_, apps_, 2, config, inst_.obs, inst_.injector);
  dist.Publish(app0_, 0);
  ASSERT_TRUE(RunSync(sim_, dist.EnsureSnapshot(1, app0_)).ok());
  RunSyncVoid(sim_, dist.WarmRestore(1, app0_));
  EXPECT_EQ(dist.Generation(1), 0u);
  EXPECT_EQ(dist.stats().guest_reseeds, 0u);
}

}  // namespace
}  // namespace fwcore
