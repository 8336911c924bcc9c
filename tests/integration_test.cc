// Integration tests: whole-platform scenarios that span multiple subsystems —
// the frontend/invoker pool, cloud triggers firing chains, snapshot
// regeneration, snapshot-store pressure, REAP prefetch, and mixed-language
// multi-tenant hosting.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/baselines/container_platform.h"
#include "src/baselines/firecracker.h"
#include "src/core/cloud_trigger.h"
#include "src/core/fireworks.h"
#include "src/core/frontend.h"
#include "src/core/platform.h"
#include "src/workloads/faasdom.h"
#include "src/workloads/serverlessbench.h"
#include "tests/test_util.h"

namespace fwcore {
namespace {

using fwlang::FunctionSource;
using fwlang::Language;
using fwtest::RunSync;
using fwwork::FaasdomBench;
using namespace fwbase::literals;

FunctionSource Fact(Language language = Language::kNodeJs) {
  return fwwork::MakeFaasdom(FaasdomBench::kFact, language);
}

// ---------------------------------------------------------------------------
// Frontend + invoker pool.
// ---------------------------------------------------------------------------

class FrontendTest : public ::testing::Test {
 protected:
  HostEnv env_;
  FireworksPlatform platform_{env_};
};

TEST_F(FrontendTest, SingleRequestRoundTrip) {
  ASSERT_TRUE(RunSync(env_.sim(), platform_.Install(Fact())).ok());
  Frontend frontend(env_, platform_);
  auto future = frontend.Submit("faas-fact-nodejs", "{}", InvokeOptions());
  env_.sim().Run();
  ASSERT_TRUE(future.ready());
  ASSERT_TRUE(future.Get().ok());
  EXPECT_EQ(frontend.submitted(), 1u);
  EXPECT_EQ(frontend.completed(), 1u);
  EXPECT_EQ(frontend.failed(), 0u);
  EXPECT_EQ(frontend.latency_ms().count(), 1);
}

TEST_F(FrontendTest, BurstOfRequestsAllComplete) {
  ASSERT_TRUE(RunSync(env_.sim(), platform_.Install(Fact())).ok());
  Frontend::Config config;
  config.invoker_workers = 8;
  Frontend frontend(env_, platform_, config);
  std::vector<fwsim::Future<Result<InvocationResult>>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(frontend.Submit("faas-fact-nodejs", "{}", InvokeOptions()));
  }
  env_.sim().Run();
  for (auto& future : futures) {
    ASSERT_TRUE(future.ready());
    EXPECT_TRUE(future.Get().ok());
  }
  EXPECT_EQ(frontend.completed(), 64u);
  EXPECT_EQ(frontend.queue_depth(), 0u);
  // With 8 workers, queueing pushes the p99 well above the median.
  EXPECT_GT(frontend.latency_ms().Percentile(99), frontend.latency_ms().Median());
}

TEST_F(FrontendTest, UnknownFunctionFails) {
  Frontend frontend(env_, platform_);
  auto future = frontend.Submit("ghost", "{}", InvokeOptions());
  env_.sim().Run();
  ASSERT_TRUE(future.ready());
  EXPECT_FALSE(future.Get().ok());
  EXPECT_EQ(frontend.failed(), 1u);
}

TEST_F(FrontendTest, MoreWorkersShortenTailLatency) {
  ASSERT_TRUE(RunSync(env_.sim(), platform_.Install(Fact())).ok());
  auto run_with_workers = [&](int workers) {
    Frontend::Config config;
    config.invoker_workers = workers;
    Frontend frontend(env_, platform_, config);
    for (int i = 0; i < 32; ++i) {
      // Fire-and-forget: completion is observed via frontend.completed().
      (void)frontend.Submit("faas-fact-nodejs", "{}", InvokeOptions());
    }
    env_.sim().Run();
    return frontend.latency_ms().Percentile(95);
  };
  const double narrow = run_with_workers(2);
  const double wide = run_with_workers(32);
  EXPECT_GT(narrow, wide * 1.5);
}

// ---------------------------------------------------------------------------
// Cloud trigger end-to-end (the data-analysis pipeline of Fig 8(b)).
// ---------------------------------------------------------------------------

TEST(CloudTriggerIntegrationTest, DbUpdateFiresAnalysisChain) {
  HostEnv env;
  FireworksPlatform platform(env);
  const fwwork::ChainApp app = fwwork::MakeDataAnalysis();
  for (const auto& fn : app.functions) {
    ASSERT_TRUE(RunSync(env.sim(), platform.Install(fn)).ok());
  }
  CloudTrigger trigger(env, platform, app.trigger_db, app.Chain(app.trigger_chain),
                       InvokeOptions());
  trigger.Start(/*max_fires=*/1);
  auto insert = RunSync(env.sim(),
                        platform.InvokeChain(app.Chain("insert"), "{\"wage\":100}",
                                             InvokeOptions()));
  ASSERT_TRUE(insert.ok());
  env.sim().Run();
  EXPECT_TRUE(trigger.Done());
  ASSERT_EQ(trigger.firings().size(), 1u);
  EXPECT_EQ(trigger.firings()[0].size(), 2u);  // analyze → stats.
  EXPECT_TRUE(trigger.errors().empty());
  // The analysis chain read the wages and wrote the statistics.
  EXPECT_EQ(env.db().DocCount("wages"), 1u);
  EXPECT_EQ(env.db().DocCount("wage-stats"), 1u);
}

TEST(CloudTriggerIntegrationTest, IgnoresOtherDatabases) {
  HostEnv env;
  FireworksPlatform platform(env);
  ASSERT_TRUE(RunSync(env.sim(), platform.Install(Fact())).ok());
  CloudTrigger trigger(env, platform, "wages", {"faas-fact-nodejs"}, InvokeOptions());
  trigger.Start(/*max_fires=*/1);
  // Write to an unrelated database: the trigger must not fire.
  ASSERT_TRUE(RunSync(env.sim(), env.db().Put("other", fwstore::Document("k", "v"))).ok());
  env.sim().Run();
  EXPECT_FALSE(trigger.Done());
  EXPECT_TRUE(trigger.firings().empty());
}

// ---------------------------------------------------------------------------
// Snapshot regeneration (§6 ASLR mitigation).
// ---------------------------------------------------------------------------

class RegenerationTest : public ::testing::Test {
 protected:
  HostEnv env_;
  FireworksPlatform platform_{env_};
};

TEST_F(RegenerationTest, RegenerateBumpsVersionAndReplacesStoreEntry) {
  const FunctionSource fn = Fact();
  ASSERT_TRUE(RunSync(env_.sim(), platform_.Install(fn)).ok());
  EXPECT_EQ(platform_.SnapshotVersion(fn.name), 1);
  EXPECT_TRUE(env_.snapshot_store().Contains("fw-" + fn.name));

  ASSERT_TRUE(RunSync(env_.sim(), platform_.RegenerateSnapshot(fn.name)).ok());
  EXPECT_EQ(platform_.SnapshotVersion(fn.name), 2);
  EXPECT_FALSE(env_.snapshot_store().Contains("fw-" + fn.name));
  EXPECT_TRUE(env_.snapshot_store().Contains("fw-" + fn.name + "-v2"));
}

TEST_F(RegenerationTest, InvocationsWorkAcrossRegenerations) {
  const FunctionSource fn = Fact();
  ASSERT_TRUE(RunSync(env_.sim(), platform_.Install(fn)).ok());
  auto before = RunSync(env_.sim(), platform_.Invoke(fn.name, "{}", InvokeOptions()));
  ASSERT_TRUE(before.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(RunSync(env_.sim(), platform_.RegenerateSnapshot(fn.name)).ok());
  }
  EXPECT_EQ(platform_.SnapshotVersion(fn.name), 4);
  auto after = RunSync(env_.sim(), platform_.Invoke(fn.name, "{}", InvokeOptions()));
  ASSERT_TRUE(after.ok());
  // The regenerated image preserves the post-JIT state: still no compiles.
  EXPECT_EQ(after->exec_stats.jit_compiles, 0u);
  // Latency character unchanged (within 50%).
  EXPECT_LT(after->total.millis(), before->total.millis() * 1.5);
}

TEST_F(RegenerationTest, RegeneratedImagePreservesContentSize) {
  const FunctionSource fn = Fact();
  ASSERT_TRUE(RunSync(env_.sim(), platform_.Install(fn)).ok());
  const uint64_t before = platform_.SnapshotImageOf(fn.name)->valid_pages();
  ASSERT_TRUE(RunSync(env_.sim(), platform_.RegenerateSnapshot(fn.name)).ok());
  const uint64_t after = platform_.SnapshotImageOf(fn.name)->valid_pages();
  // Everything the old image held is still there (plus re-randomised dirt).
  EXPECT_GE(after, before);
  EXPECT_LT(after, before + before / 4);
}

TEST_F(RegenerationTest, RunningInstancesSurviveRegeneration) {
  const FunctionSource fn = Fact();
  ASSERT_TRUE(RunSync(env_.sim(), platform_.Install(fn)).ok());
  InvokeOptions keep;
  keep.keep_instance = true;
  ASSERT_TRUE(RunSync(env_.sim(), platform_.Invoke(fn.name, "{}", keep)).ok());
  ASSERT_TRUE(RunSync(env_.sim(), platform_.RegenerateSnapshot(fn.name)).ok());
  // The running instance still references the old image; releasing it must
  // not trip any accounting checks.
  EXPECT_EQ(platform_.live_instance_count(), 1u);
  platform_.ReleaseInstances();
  EXPECT_EQ(env_.memory().used_bytes(), 0u);
}

TEST_F(RegenerationTest, RegenerateUnknownFunctionFails) {
  auto status = RunSync(env_.sim(), platform_.RegenerateSnapshot("ghost"));
  EXPECT_EQ(status.code(), fwbase::StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Snapshot-store pressure with unpinned snapshots.
// ---------------------------------------------------------------------------

TEST(StorePressureTest, EvictedSnapshotFailsCleanlyWithoutFallback) {
  HostEnv::Config host_config;
  host_config.snapshot_store_bytes = 500 * fwbase::kMiB;  // Fits ~2 snapshots.
  HostEnv env(host_config);
  FireworksPlatform::Config config;
  config.pin_snapshots = false;
  config.cold_boot_fallback = false;
  FireworksPlatform platform(env, config);

  std::vector<std::string> names;
  for (int i = 0; i < 3; ++i) {
    FunctionSource fn = Fact();
    fn.name = "fn-" + std::to_string(i);
    ASSERT_TRUE(RunSync(env.sim(), platform.Install(fn)).ok()) << i;
    names.push_back(fn.name);
  }
  EXPECT_GT(env.metrics().CounterValue("store.snapshot.evict.count"), 0u);
  // The oldest snapshot was evicted: with the cold-boot fallback disabled,
  // invoking it fails with NOT_FOUND rather than crashing (and without
  // burning retries — eviction is not transient). The freshest still works.
  auto evicted = RunSync(env.sim(), platform.Invoke(names[0], "{}", InvokeOptions()));
  EXPECT_FALSE(evicted.ok());
  EXPECT_EQ(evicted.status().code(), fwbase::StatusCode::kNotFound);
  EXPECT_EQ(env.memory().used_bytes(), 0u);
  auto fresh = RunSync(env.sim(), platform.Invoke(names[2], "{}", InvokeOptions()));
  EXPECT_TRUE(fresh.ok());
}

TEST(StorePressureTest, EvictedSnapshotDegradesToColdBoot) {
  HostEnv::Config host_config;
  host_config.snapshot_store_bytes = 500 * fwbase::kMiB;  // Fits ~2 snapshots.
  HostEnv env(host_config);
  FireworksPlatform::Config config;
  config.pin_snapshots = false;  // cold_boot_fallback stays on (default).
  FireworksPlatform platform(env, config);

  std::vector<std::string> names;
  for (int i = 0; i < 3; ++i) {
    FunctionSource fn = Fact();
    fn.name = "fn-" + std::to_string(i);
    ASSERT_TRUE(RunSync(env.sim(), platform.Install(fn)).ok()) << i;
    names.push_back(fn.name);
  }
  EXPECT_GT(env.metrics().CounterValue("store.snapshot.evict.count"), 0u);
  // With the default config the platform degrades the evicted function to a
  // full cold boot instead of failing the invocation.
  auto evicted = RunSync(env.sim(), platform.Invoke(names[0], "{}", InvokeOptions()));
  ASSERT_TRUE(evicted.ok());
  EXPECT_TRUE(evicted->cold);
  EXPECT_TRUE(evicted->cold_boot_fallback);
  EXPECT_EQ(evicted->startup + evicted->exec + evicted->others, evicted->total);
  EXPECT_EQ(env.memory().used_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// REAP-style prefetch path.
// ---------------------------------------------------------------------------

TEST(PrefetchIntegrationTest, ColdImagePrefetchBeatsLazyFaults) {
  const FunctionSource fn = Fact();
  auto run = [&fn](bool prefetch) {
    HostEnv env;
    FireworksPlatform::Config config;
    config.prefetch_on_restore = prefetch;
    FireworksPlatform platform(env, config);
    FW_CHECK(RunSync(env.sim(), platform.Install(fn)).ok());
    platform.SnapshotImageOf(fn.name)->set_cache_warm(false);
    auto result = RunSync(env.sim(), platform.Invoke(fn.name, "{}", InvokeOptions()));
    FW_CHECK(result.ok());
    return *result;
  };
  const InvocationResult lazy = run(false);
  const InvocationResult prefetched = run(true);
  EXPECT_LT(prefetched.total, lazy.total);
  // Prefetch trades start-up time (bulk read) for execution time (no major
  // faults mid-run).
  EXPECT_GT(prefetched.startup, lazy.startup);
  EXPECT_LT(prefetched.exec, lazy.exec);
}

// ---------------------------------------------------------------------------
// Mixed multi-tenant hosting.
// ---------------------------------------------------------------------------

TEST(MultiTenantTest, MixedLanguagesAndPlatformsShareOneHost) {
  HostEnv env;
  FireworksPlatform fireworks(env);
  fwbaselines::OpenWhiskPlatform openwhisk(env);

  // Eight functions across languages on Fireworks, four on OpenWhisk.
  std::vector<std::string> fw_names;
  for (const auto bench : fwwork::AllFaasdomBenches()) {
    for (const auto language : {Language::kNodeJs, Language::kPython}) {
      FunctionSource fn = fwwork::MakeFaasdom(bench, language);
      ASSERT_TRUE(RunSync(env.sim(), fireworks.Install(fn)).ok());
      fw_names.push_back(fn.name);
    }
  }
  std::vector<std::string> ow_names;
  for (const auto bench : {FaasdomBench::kFact, FaasdomBench::kNetLatency}) {
    FunctionSource fn = fwwork::MakeFaasdom(bench, Language::kNodeJs);
    fn.name += "-ow";
    ASSERT_TRUE(RunSync(env.sim(), openwhisk.Install(fn)).ok());
    ow_names.push_back(fn.name);
  }
  // Interleave invocations.
  for (int round = 0; round < 2; ++round) {
    for (const auto& name : fw_names) {
      ASSERT_TRUE(RunSync(env.sim(), fireworks.Invoke(name, "{}", InvokeOptions())).ok());
    }
    for (const auto& name : ow_names) {
      ASSERT_TRUE(RunSync(env.sim(), openwhisk.Invoke(name, "{}", InvokeOptions())).ok());
    }
  }
  // Teardown leaves the host clean except OpenWhisk's warm pool.
  fireworks.ReleaseInstances();
  openwhisk.ReleaseInstances();
  EXPECT_EQ(env.memory().used_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Concurrency: simultaneous invocations must not fight over warm sandboxes
// (regression test for a claim-after-suspend race found via the throughput
// bench: two concurrent requests both saw the warm container and the second
// dereferenced a moved-from sandbox).
// ---------------------------------------------------------------------------

TEST(ConcurrentInvocationTest, WarmSandboxClaimedAtomically) {
  HostEnv env;
  fwbaselines::OpenWhiskPlatform platform(env);
  const FunctionSource fn = Fact();
  ASSERT_TRUE(RunSync(env.sim(), platform.Install(fn)).ok());
  ASSERT_TRUE(RunSync(env.sim(), platform.Prewarm(fn.name)).ok());
  // Fire 12 invocations into the simulation at once; exactly one can claim
  // the warm container, the rest must cold-start — nobody may crash or fail.
  int completed = 0;
  int cold = 0;
  for (int i = 0; i < 12; ++i) {
    env.sim().Spawn([](HostEnv& e, fwbaselines::OpenWhiskPlatform& p,
                       const std::string& name, int& done, int& cold_count) -> fwsim::Co<void> {
      auto result = co_await p.Invoke(name, "{}", InvokeOptions());
      FW_CHECK(result.ok());
      ++done;
      if (result->cold) {
        ++cold_count;
      }
    }(env, platform, fn.name, completed, cold));
  }
  env.sim().Run();
  EXPECT_EQ(completed, 12);
  EXPECT_GE(cold, 11);  // At most one warm hit.
}

TEST(ConcurrentInvocationTest, FireworksHandlesParallelBurst) {
  HostEnv env;
  FireworksPlatform platform(env);
  const FunctionSource fn = Fact();
  ASSERT_TRUE(RunSync(env.sim(), platform.Install(fn)).ok());
  int completed = 0;
  for (int i = 0; i < 32; ++i) {
    env.sim().Spawn([](FireworksPlatform& p, const std::string& name,
                       int& done) -> fwsim::Co<void> {
      auto result = co_await p.Invoke(name, "{}", InvokeOptions());
      FW_CHECK(result.ok());
      ++done;
    }(platform, fn.name, completed));
  }
  env.sim().Run();
  EXPECT_EQ(completed, 32);
  EXPECT_EQ(env.memory().used_bytes(), 0u);  // All torn down.
}

// ---------------------------------------------------------------------------
// Determinism: identical seeds → identical measurements.
// ---------------------------------------------------------------------------

TEST(DeterminismTest, SameSeedSameLatencies) {
  auto run_once = [] {
    HostEnv env;
    FireworksPlatform platform(env);
    FW_CHECK(RunSync(env.sim(), platform.Install(Fact())).ok());
    auto result = RunSync(env.sim(), platform.Invoke("faas-fact-nodejs", "{}",
                                                     InvokeOptions()));
    FW_CHECK(result.ok());
    return result->total.nanos();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace fwcore
