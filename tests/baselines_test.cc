// Tests for the baseline platforms: Firecracker (plain and +OS-snapshot),
// OpenWhisk, gVisor, and the isolate platform — including the cold/warm
// semantics and the cross-platform orderings the paper's figures rest on.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/baselines/container_platform.h"
#include "src/baselines/firecracker.h"
#include "src/baselines/isolate.h"
#include "src/core/fireworks.h"
#include "src/core/platform.h"
#include "src/workloads/faasdom.h"
#include "tests/test_util.h"

namespace fwbaselines {
namespace {

using fwcore::HostEnv;
using fwcore::InvokeOptions;
using fwlang::FunctionSource;
using fwtest::DescribeInvocation;
using fwlang::Language;
using fwtest::RunSync;
using fwwork::FaasdomBench;
using namespace fwbase::literals;

FunctionSource FactFn(Language language = Language::kNodeJs) {
  return fwwork::MakeFaasdom(FaasdomBench::kFact, language);
}

// ---------------------------------------------------------------------------
// Firecracker.
// ---------------------------------------------------------------------------

class FirecrackerTest : public ::testing::Test {
 protected:
  HostEnv env_;
  FirecrackerPlatform platform_{env_};
};

TEST_F(FirecrackerTest, ColdStartBootsEverything) {
  const FunctionSource fn = FactFn();
  ASSERT_TRUE(RunSync(env_.sim(), platform_.Install(fn)).ok());
  auto result = RunSync(env_.sim(), platform_.Invoke(fn.name, "{}", InvokeOptions()));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->cold);
  // VM create + OS boot + runtime + app load: seconds.
  EXPECT_GT(result->startup.seconds(), 1.0);
}

TEST_F(FirecrackerTest, WarmStartAfterKeepAlive) {
  const FunctionSource fn = FactFn();
  ASSERT_TRUE(RunSync(env_.sim(), platform_.Install(fn)).ok());
  auto cold = RunSync(env_.sim(), platform_.Invoke(fn.name, "{}", InvokeOptions()));
  ASSERT_TRUE(cold.ok());
  EXPECT_TRUE(platform_.HasWarmSandbox(fn.name));
  auto warm = RunSync(env_.sim(), platform_.Invoke(fn.name, "{}", InvokeOptions()));
  ASSERT_TRUE(warm.ok());
  EXPECT_FALSE(warm->cold);
  EXPECT_LT(warm->startup.millis(), 100.0);
  EXPECT_LT(warm->startup, cold->startup / 20);
}

TEST_F(FirecrackerTest, PrewarmMatchesPaperMethodology) {
  const FunctionSource fn = FactFn();
  ASSERT_TRUE(RunSync(env_.sim(), platform_.Install(fn)).ok());
  ASSERT_TRUE(RunSync(env_.sim(), platform_.Prewarm(fn.name)).ok());
  EXPECT_TRUE(platform_.HasWarmSandbox(fn.name));
  auto warm = RunSync(env_.sim(), platform_.Invoke(fn.name, "{}", InvokeOptions()));
  ASSERT_TRUE(warm.ok());
  EXPECT_FALSE(warm->cold);
  // Prewarmed sandbox never executed: the first warm run still JITs.
  EXPECT_GE(warm->exec_stats.jit_compiles, 1u);
}

TEST_F(FirecrackerTest, ForceColdIgnoresWarmSandbox) {
  const FunctionSource fn = FactFn();
  ASSERT_TRUE(RunSync(env_.sim(), platform_.Install(fn)).ok());
  ASSERT_TRUE(RunSync(env_.sim(), platform_.Prewarm(fn.name)).ok());
  InvokeOptions options;
  options.force_cold = true;
  auto result = RunSync(env_.sim(), platform_.Invoke(fn.name, "{}", options));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->cold);
}

TEST_F(FirecrackerTest, NoChainSupport) {
  EXPECT_FALSE(platform_.SupportsChains());
  auto results =
      RunSync(env_.sim(), platform_.InvokeChain({"a", "b"}, "{}", InvokeOptions()));
  EXPECT_EQ(results.status().code(), fwbase::StatusCode::kFailedPrecondition);
}

TEST_F(FirecrackerTest, ReleaseFreesAllMemory) {
  const FunctionSource fn = FactFn();
  ASSERT_TRUE(RunSync(env_.sim(), platform_.Install(fn)).ok());
  InvokeOptions keep;
  keep.keep_instance = true;
  keep.force_cold = true;
  ASSERT_TRUE(RunSync(env_.sim(), platform_.Invoke(fn.name, "{}", keep)).ok());
  ASSERT_TRUE(RunSync(env_.sim(), platform_.Invoke(fn.name, "{}", keep)).ok());
  EXPECT_GT(platform_.MeasurePssBytes(), 0.0);
  platform_.ReleaseInstances();
  EXPECT_EQ(env_.memory().used_bytes(), 0u);
}

TEST_F(FirecrackerTest, OsSnapshotModeRestoresFasterThanColdBoot) {
  FirecrackerPlatform::Config config;
  config.mode = FirecrackerMode::kOsSnapshot;
  FirecrackerPlatform os_snap(env_, config);
  const FunctionSource fn = FactFn();
  ASSERT_TRUE(RunSync(env_.sim(), os_snap.Install(fn)).ok());
  EXPECT_TRUE(env_.snapshot_store().Contains("fcos-" + fn.name));

  auto snap_result = RunSync(env_.sim(), os_snap.Invoke(fn.name, "{}", InvokeOptions()));
  ASSERT_TRUE(snap_result.ok());

  auto cold_result = RunSync(
      env_.sim(), platform_.Install(fn)).ok()
      ? RunSync(env_.sim(), platform_.Invoke(fn.name, "{}", InvokeOptions()))
      : fwcore::Result<fwcore::InvocationResult>(fwbase::Status::Internal("install failed"));
  ASSERT_TRUE(cold_result.ok());
  // OS snapshot removes VM+OS boot but still pays runtime + app load.
  EXPECT_LT(snap_result->startup, cold_result->startup);
  EXPECT_GT(snap_result->startup.millis(), 300.0);  // Runtime boot remains.
}

// ---------------------------------------------------------------------------
// Container platforms (OpenWhisk / gVisor).
// ---------------------------------------------------------------------------

class ContainerPlatformsTest : public ::testing::Test {
 protected:
  HostEnv env_;
  OpenWhiskPlatform openwhisk_{env_};
  GvisorPlatform gvisor_{env_};
};

TEST_F(ContainerPlatformsTest, OpenWhiskColdIncludesControllerOverhead) {
  const FunctionSource fn = FactFn();
  ASSERT_TRUE(RunSync(env_.sim(), openwhisk_.Install(fn)).ok());
  auto result = RunSync(env_.sim(), openwhisk_.Invoke(fn.name, "{}", InvokeOptions()));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->cold);
  // Controller (auth + message queue) + container + runtime + app.
  EXPECT_GT(result->startup.millis(), 700.0);
}

TEST_F(ContainerPlatformsTest, OpenWhiskWarmIsFast) {
  const FunctionSource fn = FactFn();
  ASSERT_TRUE(RunSync(env_.sim(), openwhisk_.Install(fn)).ok());
  ASSERT_TRUE(RunSync(env_.sim(), openwhisk_.Prewarm(fn.name)).ok());
  auto warm = RunSync(env_.sim(), openwhisk_.Invoke(fn.name, "{}", InvokeOptions()));
  ASSERT_TRUE(warm.ok());
  EXPECT_FALSE(warm->cold);
  EXPECT_LT(warm->startup.millis(), 80.0);
}

TEST_F(ContainerPlatformsTest, OpenWhiskSupportsChainsGvisorDoesNot) {
  EXPECT_TRUE(openwhisk_.SupportsChains());
  EXPECT_FALSE(gvisor_.SupportsChains());
}

TEST_F(ContainerPlatformsTest, GvisorColdSlowerThanOpenWhiskSandboxPart) {
  // gVisor pays Sentry+Gofer spawn; OpenWhisk pays the controller. Compare
  // sandbox-only start-up by subtracting controller costs: gVisor's sandbox
  // creation must be slower than runc's.
  const FunctionSource fn = FactFn();
  ASSERT_TRUE(RunSync(env_.sim(), openwhisk_.Install(fn)).ok());
  ASSERT_TRUE(RunSync(env_.sim(), gvisor_.Install(fn)).ok());
  auto ow = RunSync(env_.sim(), openwhisk_.Invoke(fn.name, "{}", InvokeOptions()));
  auto gv = RunSync(env_.sim(), gvisor_.Invoke(fn.name, "{}", InvokeOptions()));
  ASSERT_TRUE(ow.ok());
  ASSERT_TRUE(gv.ok());
  const auto ow_sandbox = ow->startup - fwbase::Duration::Millis(420);
  EXPECT_GT(gv->startup, ow_sandbox);
}

TEST_F(ContainerPlatformsTest, GvisorDiskIoSlowerThanOpenWhisk) {
  const FunctionSource fn = fwwork::MakeFaasdom(FaasdomBench::kDiskIo, Language::kNodeJs);
  ASSERT_TRUE(RunSync(env_.sim(), openwhisk_.Install(fn)).ok());
  ASSERT_TRUE(RunSync(env_.sim(), gvisor_.Install(fn)).ok());
  ASSERT_TRUE(RunSync(env_.sim(), openwhisk_.Prewarm(fn.name)).ok());
  ASSERT_TRUE(RunSync(env_.sim(), gvisor_.Prewarm(fn.name)).ok());
  auto ow = RunSync(env_.sim(), openwhisk_.Invoke(fn.name, "{}", InvokeOptions()));
  auto gv = RunSync(env_.sim(), gvisor_.Invoke(fn.name, "{}", InvokeOptions()));
  ASSERT_TRUE(ow.ok());
  ASSERT_TRUE(gv.ok());
  // Sentry+Gofer interception vs OverlayFS (§5.2.1(2)).
  EXPECT_GT(gv->exec / ow->exec, 2.0);
}

TEST_F(ContainerPlatformsTest, ContainersShareRuntimeText) {
  const FunctionSource fn = FactFn();
  ASSERT_TRUE(RunSync(env_.sim(), openwhisk_.Install(fn)).ok());
  InvokeOptions keep;
  keep.keep_instance = true;
  keep.force_cold = true;
  ASSERT_TRUE(RunSync(env_.sim(), openwhisk_.Invoke(fn.name, "{}", keep)).ok());
  const double pss_one = openwhisk_.MeasurePssBytes();
  ASSERT_TRUE(RunSync(env_.sim(), openwhisk_.Invoke(fn.name, "{}", keep)).ok());
  const double pss_two = openwhisk_.MeasurePssBytes();
  // Runtime text shared via the rootfs image: less than 2× memory.
  EXPECT_LT(pss_two, 1.95 * pss_one);
  EXPECT_GT(pss_two, 1.2 * pss_one);  // But most memory is private.
}

// ---------------------------------------------------------------------------
// Warm-pool keep-alive expiry (§2.2: sandboxes are terminated after a period
// without requests).
// ---------------------------------------------------------------------------

class KeepAliveTest : public ::testing::Test {
 protected:
  static ContainerPlatform::Params ParamsWithKeepAlive(fwbase::Duration window) {
    ContainerPlatform::Params params = OpenWhiskPlatform::MakeParams();
    params.keep_alive = window;
    return params;
  }

  HostEnv env_;
};

TEST_F(KeepAliveTest, WarmContainerExpiresAfterWindow) {
  ContainerPlatform platform(env_, ParamsWithKeepAlive(10_s));
  const FunctionSource fn = FactFn();
  ASSERT_TRUE(RunSync(env_.sim(), platform.Install(fn)).ok());
  ASSERT_TRUE(RunSync(env_.sim(), platform.Prewarm(fn.name)).ok());
  EXPECT_TRUE(platform.HasWarmSandbox(fn.name));
  const uint64_t held = env_.memory().used_bytes();
  EXPECT_GT(held, 0u);
  // No requests for the whole window: the sandbox is terminated.
  env_.sim().RunFor(11_s);
  EXPECT_FALSE(platform.HasWarmSandbox(fn.name));
  EXPECT_EQ(env_.memory().used_bytes(), 0u);
}

TEST_F(KeepAliveTest, UseWithinWindowReArmsIt) {
  ContainerPlatform platform(env_, ParamsWithKeepAlive(10_s));
  const FunctionSource fn = FactFn();
  ASSERT_TRUE(RunSync(env_.sim(), platform.Install(fn)).ok());
  ASSERT_TRUE(RunSync(env_.sim(), platform.Prewarm(fn.name)).ok());
  env_.sim().RunFor(8_s);
  // A request 8 s in reuses the warm sandbox and restarts the window.
  auto warm = RunSync(env_.sim(), platform.Invoke(fn.name, "{}", InvokeOptions()));
  ASSERT_TRUE(warm.ok());
  EXPECT_FALSE(warm->cold);
  env_.sim().RunFor(8_s);  // Old window would have fired by now.
  EXPECT_TRUE(platform.HasWarmSandbox(fn.name));
  env_.sim().RunFor(4_s);  // New window fires.
  EXPECT_FALSE(platform.HasWarmSandbox(fn.name));
}

TEST_F(KeepAliveTest, ExpiryMakesNextRequestCold) {
  ContainerPlatform platform(env_, ParamsWithKeepAlive(5_s));
  const FunctionSource fn = FactFn();
  ASSERT_TRUE(RunSync(env_.sim(), platform.Install(fn)).ok());
  ASSERT_TRUE(RunSync(env_.sim(), platform.Prewarm(fn.name)).ok());
  env_.sim().RunFor(6_s);
  auto result = RunSync(env_.sim(), platform.Invoke(fn.name, "{}", InvokeOptions()));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->cold);  // §2.2's unpopular-function penalty.
}

TEST_F(KeepAliveTest, PlatformDestructionDisarmsPendingExpiry) {
  {
    ContainerPlatform platform(env_, ParamsWithKeepAlive(10_s));
    const FunctionSource fn = FactFn();
    ASSERT_TRUE(RunSync(env_.sim(), platform.Install(fn)).ok());
    ASSERT_TRUE(RunSync(env_.sim(), platform.Prewarm(fn.name)).ok());
  }  // Platform destroyed with the expiry event still queued.
  env_.sim().RunFor(20_s);  // Firing the stale event must be harmless.
  EXPECT_EQ(env_.memory().used_bytes(), 0u);
}

TEST_F(KeepAliveTest, DefaultNeverExpires) {
  OpenWhiskPlatform platform(env_);
  const FunctionSource fn = FactFn();
  ASSERT_TRUE(RunSync(env_.sim(), platform.Install(fn)).ok());
  ASSERT_TRUE(RunSync(env_.sim(), platform.Prewarm(fn.name)).ok());
  env_.sim().RunFor(fwbase::Duration::Seconds(3600));
  EXPECT_TRUE(platform.HasWarmSandbox(fn.name));
}

// ---------------------------------------------------------------------------
// gVisor with checkpoint/restore starts (Catalyzer-style, Table 1).
// ---------------------------------------------------------------------------

class GvisorSnapshotTest : public ::testing::Test {
 protected:
  HostEnv env_;
  GvisorSnapshotPlatform platform_{env_};
};

TEST_F(GvisorSnapshotTest, InstallCreatesCheckpoint) {
  const FunctionSource fn = FactFn();
  auto install = RunSync(env_.sim(), platform_.Install(fn));
  ASSERT_TRUE(install.ok());
  EXPECT_TRUE(env_.snapshot_store().Contains("gvisor-snapshot-" + fn.name));
  // Install paid the full prepare (boot + load + checkpoint): seconds.
  EXPECT_GT(install->total.seconds(), 0.5);
}

TEST_F(GvisorSnapshotTest, StartsRestoreInsteadOfBooting) {
  const FunctionSource fn = FactFn();
  ASSERT_TRUE(RunSync(env_.sim(), platform_.Install(fn)).ok());
  GvisorPlatform plain(env_);
  ASSERT_TRUE(RunSync(env_.sim(), plain.Install(fn)).ok());

  InvokeOptions cold;
  cold.force_cold = true;
  auto restored = RunSync(env_.sim(), platform_.Invoke(fn.name, "{}", cold));
  auto booted = RunSync(env_.sim(), plain.Invoke(fn.name, "{}", cold));
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE(booted.ok());
  // Restoring skips the runtime boot + app load (~450 ms for Node.js)...
  EXPECT_LT(restored->startup + fwbase::Duration::Millis(300), booted->startup);
  // ...but still pays the full Sentry/Gofer spawn, so Fireworks stays far
  // ahead (Table 1: gVisor "Medium (snapshot)" vs Fireworks "Extreme").
  EXPECT_GT(restored->startup.millis(), 400.0);
  // The checkpointed app state carries over: no JIT compiles beyond what the
  // prepared container already did... the prepared container never executed,
  // so the first run still tiers up.
  EXPECT_GE(restored->exec_stats.jit_compiles, 1u);
}

TEST_F(GvisorSnapshotTest, CheckpointCloneSharesPagesAcrossStarts) {
  const FunctionSource fn = FactFn();
  ASSERT_TRUE(RunSync(env_.sim(), platform_.Install(fn)).ok());
  InvokeOptions keep;
  keep.keep_instance = true;
  keep.force_cold = true;
  ASSERT_TRUE(RunSync(env_.sim(), platform_.Invoke(fn.name, "{}", keep)).ok());
  const double pss_one = platform_.MeasurePssBytes();
  ASSERT_TRUE(RunSync(env_.sim(), platform_.Invoke(fn.name, "{}", keep)).ok());
  const double pss_two = platform_.MeasurePssBytes();
  // Checkpoint pages (runtime + app) shared CoW: well under 2x.
  EXPECT_LT(pss_two, 1.7 * pss_one);
}

// ---------------------------------------------------------------------------
// Isolate platform.
// ---------------------------------------------------------------------------

class IsolateTest : public ::testing::Test {
 protected:
  HostEnv env_;
  IsolatePlatform platform_{env_};
};

TEST_F(IsolateTest, FirstInvocationCreatesIsolate) {
  const FunctionSource fn = FactFn();
  ASSERT_TRUE(RunSync(env_.sim(), platform_.Install(fn)).ok());
  EXPECT_FALSE(platform_.HasIsolate(fn.name));
  auto cold = RunSync(env_.sim(), platform_.Invoke(fn.name, "{}", InvokeOptions()));
  ASSERT_TRUE(cold.ok());
  EXPECT_TRUE(cold->cold);
  // Isolate creation + script load, no runtime boot: tens of ms at most.
  EXPECT_LT(cold->startup.millis(), 250.0);
  EXPECT_TRUE(platform_.HasIsolate(fn.name));
  auto warm = RunSync(env_.sim(), platform_.Invoke(fn.name, "{}", InvokeOptions()));
  ASSERT_TRUE(warm.ok());
  EXPECT_FALSE(warm->cold);
  EXPECT_LT(warm->startup, cold->startup);
}

// ---------------------------------------------------------------------------
// Pinned timings: one cold and one warm invocation per baseline platform.
// ---------------------------------------------------------------------------

template <typename Platform>
std::unique_ptr<fwcore::ServerlessPlatform> Make(HostEnv& env) {
  return std::make_unique<Platform>(env);
}

std::unique_ptr<fwcore::ServerlessPlatform> MakeFirecrackerOsSnapshot(HostEnv& env) {
  FirecrackerPlatform::Config config;
  config.mode = FirecrackerMode::kOsSnapshot;
  return std::make_unique<FirecrackerPlatform>(env, config);
}

struct PinnedPlatform {
  const char* name;
  std::unique_ptr<fwcore::ServerlessPlatform> (*make)(HostEnv&);
  const char* cold;
  const char* warm;
};

// Pins every window of one cold and one warm invocation per baseline
// platform, and every child span of its root, so that a refactor of the
// invoke path cannot move an event.
TEST(BaselinePinnedTimingTest, ColdThenWarmInvocationIsUnchanged) {
  const PinnedPlatform kPlatforms[] = {
      {"openwhisk", Make<OpenWhiskPlatform>,
       "cold=1 attempts=1 startup=971179560 exec=120447533 others=120464 total=1091747557 |"
       " invoke.startup=971179560 invoke.params=60001 invoke.exec=120447533 invoke.response=60463",
       "cold=0 attempts=1 startup=58000000 exec=91639063 others=120464 total=149759527 |"
       " invoke.startup=58000000 invoke.params=60001 invoke.exec=91639063 invoke.response=60463"},
      {"gvisor", Make<GvisorPlatform>,
       "cold=1 attempts=1 startup=1103479560 exec=137053038 others=120464 total=1240653062 |"
       " invoke.startup=1103479560 invoke.params=60001 invoke.exec=137053038 invoke.response=60463",
       "cold=0 attempts=1 startup=52300000 exec=104286963 others=120464 total=156707427 |"
       " invoke.startup=52300000 invoke.params=60001 invoke.exec=104286963 invoke.response=60463"},
      {"gvisor-snapshot", Make<GvisorSnapshotPlatform>,
       "cold=1 attempts=1 startup=633300000 exec=140324538 others=120464 total=773745002 |"
       " invoke.startup=633300000 invoke.params=60001 invoke.exec=140324538 invoke.response=60463",
       "cold=0 attempts=1 startup=52300000 exec=104286963 others=120464 total=156707427 |"
       " invoke.startup=52300000 invoke.params=60001 invoke.exec=104286963 invoke.response=60463"},
      {"firecracker", Make<FirecrackerPlatform>,
       "cold=1 attempts=1 startup=2488734200 exec=120447533 others=120464 total=2609302197 |"
       " invoke.startup=2488734200 invoke.params=60001 invoke.exec=120447533 invoke.response=60463",
       "cold=0 attempts=1 startup=60370000 exec=91639063 others=120464 total=152129527 |"
       " invoke.startup=60370000 invoke.params=60001 invoke.exec=91639063 invoke.response=60463"},
      {"firecracker-os-snapshot", MakeFirecrackerOsSnapshot,
       "cold=1 attempts=1 startup=478098100 exec=120447533 others=120464 total=598666097 |"
       " invoke.startup=478098100 invoke.params=60001 invoke.exec=120447533 invoke.response=60463",
       "cold=0 attempts=1 startup=60370000 exec=91639063 others=120464 total=152129527 |"
       " invoke.startup=60370000 invoke.params=60001 invoke.exec=91639063 invoke.response=60463"},
      {"isolate", Make<IsolatePlatform>,
       "cold=1 attempts=1 startup=145063700 exec=117425933 others=120464 total=262610097 |"
       " invoke.startup=145063700 invoke.params=60001 invoke.exec=117425933 invoke.response=60463",
       "cold=0 attempts=1 startup=120000 exec=83351063 others=120464 total=83591527 |"
       " invoke.startup=120000 invoke.params=60001 invoke.exec=83351063 invoke.response=60463"},
  };
  for (const PinnedPlatform& p : kPlatforms) {
    SCOPED_TRACE(p.name);
    HostEnv env;
    env.tracer().Enable();
    std::unique_ptr<fwcore::ServerlessPlatform> platform = p.make(env);
    const FunctionSource fn = FactFn();
    ASSERT_TRUE(RunSync(env.sim(), platform->Install(fn)).ok());
    auto cold = RunSync(env.sim(), platform->Invoke(fn.name, "{}", InvokeOptions()));
    ASSERT_TRUE(cold.ok());
    auto warm = RunSync(env.sim(), platform->Invoke(fn.name, "{}", InvokeOptions()));
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(DescribeInvocation(env, *cold), p.cold);
    EXPECT_EQ(DescribeInvocation(env, *warm), p.warm);
  }
}

// The rest of the keep-alive lifecycle of each sandbox-manager baseline,
// pinned the same way: install, the §5.1 prewarm, kept instances and their
// PSS, and the crash fallbacks under a fault plan that always fires.
struct PinnedLifecycle {
  const char* name;
  std::unique_ptr<fwcore::ServerlessPlatform> (*make)(HostEnv&);
  const char* crash_plan;   // Crashes every warm resume and every restore.
  int64_t install_ns;
  const char* prewarmed;    // The invocation after Prewarm.
  const char* kept;         // A kept instance...
  const char* kept_steady;  // ...and a second one with steady_state.
  const char* kept_pss;     // MeasurePssBytes with both kept, %.17g.
  const char* crash_cold;   // Under crash_plan: a cold invocation...
  const char* crash_warm;   // ...and the next one, whose resume crashes.
};

const PinnedLifecycle kLifecycles[] = {
    {"openwhisk", Make<OpenWhiskPlatform>, "sandbox_crash=1", 705837003,
     "cold=0 attempts=1 startup=58000000 exec=120447533 others=120464 total=178567997 |"
     " invoke.startup=58000000 invoke.params=60001 invoke.exec=120447533 invoke.response=60463",
     "cold=1 attempts=1 startup=971179560 exec=120447533 others=120464 total=1091747557 |"
     " invoke.startup=971179560 invoke.params=60001 invoke.exec=120447533 invoke.response=60463",
     "cold=1 attempts=1 startup=971179560 exec=120447533 others=120464 total=1091747557 |"
     " invoke.startup=971179560 invoke.params=60001 invoke.exec=120447533 invoke.response=60463",
     "223936512",
     "cold=1 attempts=1 startup=971179560 exec=120447533 others=120464 total=1091747557 |"
     " invoke.startup=971179560 invoke.params=60001 invoke.exec=120447533 invoke.response=60463",
     "cold=1 attempts=2 startup=1029179560 exec=120447533 others=120464 total=1149747557 |"
     " invoke.startup=1029179560 invoke.params=60001 invoke.exec=120447533 invoke.response=60463"},
    {"gvisor", Make<GvisorPlatform>, "sandbox_crash=1", 705837003,
     "cold=0 attempts=1 startup=52300000 exec=137053038 others=120464 total=189473502 |"
     " invoke.startup=52300000 invoke.params=60001 invoke.exec=137053038 invoke.response=60463",
     "cold=1 attempts=1 startup=1103479560 exec=137053038 others=120464 total=1240653062 |"
     " invoke.startup=1103479560 invoke.params=60001 invoke.exec=137053038 invoke.response=60463",
     "cold=1 attempts=1 startup=1103479560 exec=137053038 others=120464 total=1240653062 |"
     " invoke.startup=1103479560 invoke.params=60001 invoke.exec=137053038 invoke.response=60463",
     "223936512",
     "cold=1 attempts=1 startup=1103479560 exec=137053038 others=120464 total=1240653062 |"
     " invoke.startup=1103479560 invoke.params=60001 invoke.exec=137053038 invoke.response=60463",
     "cold=1 attempts=2 startup=1155779560 exec=137053038 others=120464 total=1292953062 |"
     " invoke.startup=1155779560 invoke.params=60001 invoke.exec=137053038 invoke.response=60463"},
    {"gvisor-snapshot", Make<GvisorSnapshotPlatform>, "sandbox_crash=1", 1979766046,
     "cold=0 attempts=1 startup=52300000 exec=140324538 others=120464 total=192745002 |"
     " invoke.startup=52300000 invoke.params=60001 invoke.exec=140324538 invoke.response=60463",
     "cold=1 attempts=1 startup=633300000 exec=140324538 others=120464 total=773745002 |"
     " invoke.startup=633300000 invoke.params=60001 invoke.exec=140324538 invoke.response=60463",
     "cold=1 attempts=1 startup=633300000 exec=140290338 others=120464 total=773710802 |"
     " invoke.startup=633300000 invoke.params=60001 invoke.exec=140290338 invoke.response=60463",
     "157622272",
     "cold=1 attempts=1 startup=1736479560 exec=137053038 others=120464 total=1873653062 |"
     " invoke.startup=1736479560 invoke.params=60001 invoke.exec=137053038 invoke.response=60463",
     "cold=1 attempts=2 startup=1788779560 exec=137053038 others=120464 total=1925953062 |"
     " invoke.startup=1788779560 invoke.params=60001 invoke.exec=137053038 invoke.response=60463"},
    {"firecracker", Make<FirecrackerPlatform>, "vm_crash_on_resume=1", 683837003,
     "cold=0 attempts=1 startup=60370000 exec=120447533 others=120464 total=180937997 |"
     " invoke.startup=60370000 invoke.params=60001 invoke.exec=120447533 invoke.response=60463",
     "cold=1 attempts=1 startup=2488734200 exec=120447533 others=120464 total=2609302197 |"
     " invoke.startup=2488734200 invoke.params=60001 invoke.exec=120447533 invoke.response=60463",
     "cold=1 attempts=1 startup=2488734200 exec=120447533 others=120464 total=2609302197 |"
     " invoke.startup=2488734200 invoke.params=60001 invoke.exec=120447533 invoke.response=60463",
     "494469120",
     "cold=1 attempts=1 startup=2488734200 exec=120447533 others=120464 total=2609302197 |"
     " invoke.startup=2488734200 invoke.params=60001 invoke.exec=120447533 invoke.response=60463",
     "cold=1 attempts=2 startup=2548854200 exec=120447533 others=120464 total=2669422197 |"
     " invoke.startup=2548854200 invoke.params=60001 invoke.exec=120447533 invoke.response=60463"},
    {"firecracker-os-snapshot", MakeFirecrackerOsSnapshot, "vm_crash_on_resume=1", 2920885599,
     "cold=0 attempts=1 startup=60370000 exec=120447533 others=120464 total=180937997 |"
     " invoke.startup=60370000 invoke.params=60001 invoke.exec=120447533 invoke.response=60463",
     "cold=1 attempts=1 startup=478098100 exec=120447533 others=120464 total=598666097 |"
     " invoke.startup=478098100 invoke.params=60001 invoke.exec=120447533 invoke.response=60463",
     "cold=1 attempts=1 startup=478198900 exec=120447533 others=120464 total=598766897 |"
     " invoke.startup=478198900 invoke.params=60001 invoke.exec=120447533 invoke.response=60463",
     "289366016",
     "cold=1 attempts=1 startup=2501854200 exec=120447533 others=120464 total=2622422197 |"
     " invoke.startup=2501854200 invoke.params=60001 invoke.exec=120447533 invoke.response=60463",
     "cold=1 attempts=2 startup=2561974200 exec=120447533 others=120464 total=2682542197 |"
     " invoke.startup=2561974200 invoke.params=60001 invoke.exec=120447533 invoke.response=60463"},
};

// Installs faas-fact on `env` and returns how long the install took.
int64_t InstallFact(HostEnv& env, fwcore::ServerlessPlatform& platform) {
  auto installed = RunSync(env.sim(), platform.Install(FactFn()));
  EXPECT_TRUE(installed.ok());
  return installed.ok() ? installed->total.nanos() : -1;
}

std::string DescribeNext(HostEnv& env, fwcore::ServerlessPlatform& platform,
                         const InvokeOptions& options) {
  auto result = RunSync(env.sim(), platform.Invoke(FactFn().name, "{}", options));
  return result.ok() ? DescribeInvocation(env, *result) : result.status().ToString();
}

TEST(BaselinePinnedTimingTest, InstallIsUnchanged) {
  for (const PinnedLifecycle& p : kLifecycles) {
    SCOPED_TRACE(p.name);
    HostEnv env;
    std::unique_ptr<fwcore::ServerlessPlatform> platform = p.make(env);
    EXPECT_EQ(InstallFact(env, *platform), p.install_ns);
  }
}

TEST(BaselinePinnedTimingTest, PrewarmedInvocationIsUnchanged) {
  for (const PinnedLifecycle& p : kLifecycles) {
    SCOPED_TRACE(p.name);
    HostEnv env;
    env.tracer().Enable();
    std::unique_ptr<fwcore::ServerlessPlatform> platform = p.make(env);
    InstallFact(env, *platform);
    ASSERT_TRUE(RunSync(env.sim(), platform->Prewarm(FactFn().name)).ok());
    EXPECT_EQ(DescribeNext(env, *platform, InvokeOptions()), p.prewarmed);
  }
}

TEST(BaselinePinnedTimingTest, KeptInstancesAreUnchanged) {
  for (const PinnedLifecycle& p : kLifecycles) {
    SCOPED_TRACE(p.name);
    HostEnv env;
    env.tracer().Enable();
    std::unique_ptr<fwcore::ServerlessPlatform> platform = p.make(env);
    InstallFact(env, *platform);
    InvokeOptions keep;
    keep.keep_instance = true;
    EXPECT_EQ(DescribeNext(env, *platform, keep), p.kept);
    keep.steady_state = true;
    EXPECT_EQ(DescribeNext(env, *platform, keep), p.kept_steady);
    EXPECT_EQ(fwbase::StrFormat("%.17g", platform->MeasurePssBytes()), p.kept_pss);
  }
}

// A failed restore degrades to a full launch; a crashed warm resume falls
// back to a cold start.
TEST(BaselinePinnedTimingTest, CrashFallbacksAreUnchanged) {
  for (const PinnedLifecycle& p : kLifecycles) {
    SCOPED_TRACE(p.name);
    HostEnv::Config config;
    config.fault_plan = *fwfault::FaultPlan::Parse(p.crash_plan);
    HostEnv env(config);
    env.tracer().Enable();
    std::unique_ptr<fwcore::ServerlessPlatform> platform = p.make(env);
    InstallFact(env, *platform);
    EXPECT_EQ(DescribeNext(env, *platform, InvokeOptions()), p.crash_cold);
    EXPECT_EQ(DescribeNext(env, *platform, InvokeOptions()), p.crash_warm);
  }
}

// Every fallback is reported on the invocation (DESIGN §8) and counted under
// the platform's name: a cold start whose install-time image fails to
// restore, and a warm start whose resume crashes.
TEST(BaselineRecoveryTest, FallbacksSetTheFlagAndTheirCounters) {
  const std::set<std::string> kRestoresImage = {"gvisor-snapshot", "firecracker-os-snapshot"};
  for (const PinnedLifecycle& p : kLifecycles) {
    SCOPED_TRACE(p.name);
    const bool restores = kRestoresImage.count(p.name) != 0;
    HostEnv::Config config;
    config.fault_plan = *fwfault::FaultPlan::Parse(p.crash_plan);
    HostEnv env(config);
    std::unique_ptr<fwcore::ServerlessPlatform> platform = p.make(env);
    const fwobs::Counter& coldboot_fallbacks =
        env.metrics().GetCounter(platform->name() + ".coldboot_fallback.count");
    const fwobs::Counter& warm_crashes =
        env.metrics().GetCounter(platform->name() + ".warm_crash.count");
    InstallFact(env, *platform);
    auto cold = RunSync(env.sim(), platform->Invoke(FactFn().name, "{}", InvokeOptions()));
    ASSERT_TRUE(cold.ok());
    EXPECT_EQ(cold->cold_boot_fallback, restores);
    EXPECT_EQ(coldboot_fallbacks.value(), restores ? 1u : 0u);
    auto warm = RunSync(env.sim(), platform->Invoke(FactFn().name, "{}", InvokeOptions()));
    ASSERT_TRUE(warm.ok());
    EXPECT_TRUE(warm->cold_boot_fallback);
    EXPECT_EQ(warm_crashes.value(), 1u);
    EXPECT_EQ(coldboot_fallbacks.value(), restores ? 2u : 0u);
  }
}

// ---------------------------------------------------------------------------
// Overlapping invocations of one function.
// ---------------------------------------------------------------------------

using InvokeSlot = std::shared_ptr<std::optional<fwcore::Result<fwcore::InvocationResult>>>;

// Starts an invocation of `fn_name` on the simulation now, without waiting
// for it; the returned slot holds its result once it finishes.
InvokeSlot SpawnInvoke(HostEnv& env, fwcore::ServerlessPlatform& platform,
                       const std::string& fn_name, const InvokeOptions& options) {
  auto slot = std::make_shared<std::optional<fwcore::Result<fwcore::InvocationResult>>>();
  env.sim().Spawn([](fwcore::ServerlessPlatform& p, std::string name, InvokeOptions o,
                     InvokeSlot out) -> fwsim::Co<void> {
    out->emplace(co_await p.Invoke(name, "{}", o));
  }(platform, fn_name, options, slot));
  return slot;
}

// Runs the simulation until every slot holds a result.
void RunUntilDone(HostEnv& env, const std::vector<InvokeSlot>& slots) {
  const auto done = [&slots] {
    for (const InvokeSlot& slot : slots) {
      if (!slot->has_value()) {
        return false;
      }
    }
    return true;
  };
  while (!done() && env.sim().StepOne()) {
  }
  ASSERT_TRUE(done()) << "an invocation did not finish";
}

struct Leftover {
  uint64_t used_bytes;
  size_t live_instances;
};

struct OverlapPlatform {
  const char* name;
  std::unique_ptr<fwcore::ServerlessPlatform> (*make)(HostEnv&);
  size_t (*live)(fwcore::ServerlessPlatform&);  // Live microVMs or containers.
};

size_t LiveVms(fwcore::ServerlessPlatform& p) {
  return static_cast<FirecrackerPlatform&>(p).hypervisor().live_vm_count();
}
size_t LiveContainers(fwcore::ServerlessPlatform& p) {
  return static_cast<ContainerPlatform&>(p).engine().live_container_count();
}

// What `concurrent` invocations of faas-fact started at one instant leave
// on the host after ReleaseInstances().
Leftover AfterOverlappingInvocations(const OverlapPlatform& p, int concurrent) {
  HostEnv env;
  std::unique_ptr<fwcore::ServerlessPlatform> platform = p.make(env);
  const FunctionSource fn = FactFn();
  EXPECT_TRUE(RunSync(env.sim(), platform->Install(fn)).ok());
  std::vector<InvokeSlot> slots;
  for (int i = 0; i < concurrent; ++i) {
    slots.push_back(SpawnInvoke(env, *platform, fn.name, InvokeOptions()));
  }
  RunUntilDone(env, slots);
  for (const InvokeSlot& slot : slots) {
    EXPECT_TRUE(slot->has_value() && (*slot)->ok());
  }
  platform->ReleaseInstances();
  return {env.memory().used_bytes(), p.live(*platform)};
}

// Each overlapping invocation ends by stashing its sandbox as the warm one;
// the stash it displaces must be destroyed, not leaked.
TEST(BaselineOverlapTest, OverlappingInvocationsLeaveWhatOneLeaves) {
  const OverlapPlatform kPlatforms[] = {
      {"firecracker", Make<FirecrackerPlatform>, LiveVms},
      {"openwhisk", Make<OpenWhiskPlatform>, LiveContainers},
      {"gvisor", Make<GvisorPlatform>, LiveContainers},
  };
  for (const OverlapPlatform& p : kPlatforms) {
    SCOPED_TRACE(p.name);
    const Leftover one = AfterOverlappingInvocations(p, 1);
    const Leftover two = AfterOverlappingInvocations(p, 2);
    EXPECT_EQ(two.used_bytes, one.used_bytes);
    EXPECT_EQ(two.live_instances, one.live_instances);
    EXPECT_EQ(one.live_instances, 0u);
  }
}

// Starts a warm and a force_cold invocation of `fn_name` at one instant and
// runs both to completion.
void InvokeWarmBesideForceCold(HostEnv& env, IsolatePlatform& platform,
                               const std::string& fn_name) {
  InvokeOptions cold;
  cold.force_cold = true;
  const std::vector<InvokeSlot> slots = {SpawnInvoke(env, platform, fn_name, InvokeOptions()),
                                         SpawnInvoke(env, platform, fn_name, cold)};
  RunUntilDone(env, slots);
  ASSERT_TRUE(slots[0]->has_value() && (*slots[0])->ok());
  ASSERT_TRUE(slots[1]->has_value() && (*slots[1])->ok());
  EXPECT_FALSE((*slots[0])->value().cold);
  EXPECT_TRUE((*slots[1])->value().cold);
}

// A force_cold start replaces the isolate a warm invocation is still running
// in; the warm one keeps its isolate until it finishes.
TEST(BaselineOverlapTest, ForceColdBesideRunningIsolateInvocation) {
  const auto leftover = [](bool overlap) {
    HostEnv env;
    IsolatePlatform platform(env);
    const FunctionSource fn = FactFn();
    EXPECT_TRUE(RunSync(env.sim(), platform.Install(fn)).ok());
    EXPECT_TRUE(RunSync(env.sim(), platform.Invoke(fn.name, "{}", InvokeOptions())).ok());
    if (overlap) {
      InvokeWarmBesideForceCold(env, platform, fn.name);
    }
    platform.ReleaseInstances();
    EXPECT_FALSE(platform.HasIsolate(fn.name));
    return env.memory().used_bytes();
  };
  EXPECT_EQ(leftover(true), leftover(false));
}

// ---------------------------------------------------------------------------
// The paper's headline orderings, across platforms on one host.
// ---------------------------------------------------------------------------

TEST(CrossPlatformTest, ColdStartupOrdering) {
  // Fig 6: Fireworks ⋘ OpenWhisk < gVisor-ish < Firecracker (cold).
  HostEnv env;
  fwcore::FireworksPlatform fireworks(env);
  FirecrackerPlatform firecracker(env);
  OpenWhiskPlatform openwhisk(env);
  const FunctionSource fn = FactFn();
  ASSERT_TRUE(RunSync(env.sim(), fireworks.Install(fn)).ok());
  ASSERT_TRUE(RunSync(env.sim(), firecracker.Install(fn)).ok());
  ASSERT_TRUE(RunSync(env.sim(), openwhisk.Install(fn)).ok());

  auto fw = RunSync(env.sim(), fireworks.Invoke(fn.name, "{}", InvokeOptions()));
  auto fc = RunSync(env.sim(), firecracker.Invoke(fn.name, "{}", InvokeOptions()));
  auto ow = RunSync(env.sim(), openwhisk.Invoke(fn.name, "{}", InvokeOptions()));
  ASSERT_TRUE(fw.ok());
  ASSERT_TRUE(fc.ok());
  ASSERT_TRUE(ow.ok());
  EXPECT_LT(fw->startup, ow->startup / 10);
  EXPECT_LT(ow->startup, fc->startup);   // Container beats VM cold boot.
  EXPECT_GT(fc->startup / fw->startup, 50.0);  // Paper: up to 133×.
}

TEST(CrossPlatformTest, FireworksBeatsWarmStarts) {
  HostEnv env;
  fwcore::FireworksPlatform fireworks(env);
  FirecrackerPlatform firecracker(env);
  const FunctionSource fn = FactFn();
  ASSERT_TRUE(RunSync(env.sim(), fireworks.Install(fn)).ok());
  ASSERT_TRUE(RunSync(env.sim(), firecracker.Install(fn)).ok());
  ASSERT_TRUE(RunSync(env.sim(), firecracker.Prewarm(fn.name)).ok());

  auto fw = RunSync(env.sim(), fireworks.Invoke(fn.name, "{}", InvokeOptions()));
  auto fc_warm = RunSync(env.sim(), firecracker.Invoke(fn.name, "{}", InvokeOptions()));
  ASSERT_TRUE(fw.ok());
  ASSERT_TRUE(fc_warm.ok());
  EXPECT_FALSE(fc_warm->cold);
  // Paper: comparable to or faster than warm starts (up to 3.8×).
  EXPECT_LT(fw->startup, fc_warm->startup * 1.2);
}

}  // namespace
}  // namespace fwbaselines
