// Seed-sweep chaos harness: runs small end-to-end workloads against every
// platform under a deterministic fault plan, across hundreds of fault seeds,
// and checks the recovery invariants after each run:
//
//   1. Every accepted invocation terminates with a result or a typed error
//      (a hang would trip RunSync's deadlock FW_CHECK).
//   2. Nothing leaks: no live VMs and no resident host memory after teardown.
//   3. Retries are bounded by the configured budget.
//   4. The same seed reproduces the bit-identical outcome fingerprint.
//   5. An empty (zero-fault) plan trips nothing and matches the default
//      configuration exactly, spans included.
//
// The sweep width defaults to 200 seeds and can be widened with
// FW_CHAOS_SEEDS=<n>. When an invariant fails, the failing seed is re-run
// with tracing enabled and its Chrome trace is written to
// FW_CHAOS_ARTIFACT_DIR (default /tmp) for offline triage.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "src/baselines/container_platform.h"
#include "src/baselines/firecracker.h"
#include "src/core/fireworks.h"
#include "src/cluster/cluster.h"
#include "src/cluster/host.h"
#include "src/core/platform.h"
#include "src/fault/fault.h"
#include "src/obs/export.h"
#include "src/workloads/faasdom.h"
#include "tests/test_util.h"

namespace fwcore {
namespace {

using fwbase::Duration;
using fwbase::StatusCode;
using fwfault::FaultKind;
using fwfault::FaultPlan;
using fwlang::FunctionSource;
using fwtest::RunSync;

int SweepSeeds() {
  if (const char* env = std::getenv("FW_CHAOS_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) {
      return n;
    }
  }
  return 200;
}

std::string ArtifactDir() {
  if (const char* env = std::getenv("FW_CHAOS_ARTIFACT_DIR")) {
    return env;
  }
  return "/tmp";
}

// A plan that exercises every injection point with probabilities high enough
// to trip recovery paths regularly within a handful of invocations.
FaultPlan ChaosPlan() {
  FaultPlan plan;
  plan.Set(FaultKind::kVmCrashOnResume, 0.10);
  plan.Set(FaultKind::kVmCrashDuringExec, 0.05);
  plan.Set(FaultKind::kSnapshotCorruption, 0.08);
  plan.Set(FaultKind::kDiskReadError, 0.05);
  plan.Set(FaultKind::kDiskWriteError, 0.02);
  plan.Set(FaultKind::kBrokerDropMessage, 0.05);
  plan.Set(FaultKind::kBrokerDuplicateMessage, 0.05);
  plan.Set(FaultKind::kBrokerDelayMessage, 0.10);
  plan.Set(FaultKind::kNetLinkLoss, 0.05);
  plan.Set(FaultKind::kNetNatExhausted, 0.02);
  plan.Set(FaultKind::kSandboxCrash, 0.10);
  return plan;
}

// Failures a fault may legitimately surface to the caller. Anything else
// (kInternal, kInvalidArgument, ...) means a recovery path corrupted state.
bool IsTypedFaultError(StatusCode code) {
  static const std::set<StatusCode> kTyped = {
      StatusCode::kUnavailable,     StatusCode::kDeadlineExceeded,
      StatusCode::kDataLoss,        StatusCode::kNotFound,
      StatusCode::kResourceExhausted};
  return kTyped.count(code) != 0;
}

void AppendResult(std::string* fp, const char* tag,
                  const Result<InvocationResult>& r, int max_attempts) {
  *fp += tag;
  *fp += ':';
  if (r.ok()) {
    *fp += "ok," + std::to_string(r->total.nanos()) + "," +
           std::to_string(r->startup.nanos()) + "," + std::to_string(r->exec.nanos()) +
           "," + std::to_string(r->others.nanos()) + "," +
           std::to_string(r->attempts) + "," + (r->cold ? "c" : "w") +
           (r->cold_boot_fallback ? "f" : "-");
    // Invariant: the breakdown always sums exactly, on recovery paths too.
    EXPECT_EQ(r->startup + r->exec + r->others, r->total);
    EXPECT_LE(r->attempts, max_attempts);
    EXPECT_GE(r->attempts, 1);
  } else {
    *fp += "err,";
    *fp += fwbase::StatusCodeName(r.status().code());
    EXPECT_TRUE(IsTypedFaultError(r.status().code()))
        << "untyped failure: " << r.status().ToString();
  }
  *fp += ';';
}

HostEnv::Config ChaosHostConfig(uint64_t seed, const FaultPlan& plan) {
  HostEnv::Config config;
  config.seed = seed;
  config.fault_plan = plan;
  config.fault_seed = seed * 0x9E3779B97F4A7C15ull + 1;  // Derived, per-seed.
  return config;
}

// --- Fireworks scenario ----------------------------------------------------
// Install one function, invoke it repeatedly (one kept instance in the
// middle, and a clone parked before the second and the fifth invocation, so
// faults land on warm-pool attempts too), release, and verify nothing
// leaked. Returns the outcome fingerprint; fills `trace_json` when tracing is
// requested.
std::string RunFireworksScenario(uint64_t seed, const FaultPlan& plan,
                                 std::string* trace_json = nullptr,
                                 uint64_t* corruption_repairs = nullptr) {
  HostEnv env(ChaosHostConfig(seed, plan));
  if (trace_json != nullptr) {
    env.tracer().Enable();
  }
  FireworksPlatform::Config pc;
  pc.retry_backoff = Duration::Millis(5);
  FireworksPlatform platform(env, pc);

  std::string fp;
  const FunctionSource fn = fwwork::MakeFaasdom(fwwork::FaasdomBench::kFact,
                                                fwlang::Language::kNodeJs);
  auto installed = RunSync(env.sim(), platform.Install(fn));
  if (!installed.ok()) {
    // A disk-write fault during install is a legitimate typed failure.
    EXPECT_TRUE(IsTypedFaultError(installed.status().code()))
        << installed.status().ToString();
    fp += "install:err,";
    fp += fwbase::StatusCodeName(installed.status().code());
    fp += ';';
  } else {
    fp += "install:ok;";
    for (int i = 0; i < 6; ++i) {
      if (i == 1 || i == 4) {
        // A fault during the clone start is a legitimate typed failure. The
        // token stays free of 'f', the fallback mark.
        auto prepared = RunSync(env.sim(), platform.PrepareClone(fn.name));
        if (prepared.ok()) {
          fp += "prepare:ok;";
        } else {
          EXPECT_TRUE(IsTypedFaultError(prepared.status().code()))
              << prepared.status().ToString();
          fp += "prepare:err,";
          fp += fwbase::StatusCodeName(prepared.status().code());
          fp += ';';
        }
      }
      InvokeOptions options;
      options.keep_instance = (i == 2);  // Exercise kept-instance teardown.
      auto r = RunSync(env.sim(), platform.Invoke(fn.name, "{\"n\":10}", options));
      AppendResult(&fp, "invoke", r, FireworksPlatform::kMaxInvokeAttempts);
    }
  }
  platform.ReleaseInstances();
  EXPECT_EQ(platform.live_instance_count(), 0u) << "leaked instances";
  EXPECT_EQ(platform.TotalPooledClones(), 0u) << "leaked parked clones";
  EXPECT_EQ(platform.hypervisor().live_vm_count(), 0u) << "leaked VMs";
  EXPECT_EQ(env.memory().used_bytes(), 0u) << "leaked host pages";
  fp += "trips=" + std::to_string(env.fault_injector().total_trips());
  if (corruption_repairs != nullptr) {
    *corruption_repairs =
        env.metrics().GetCounter("fw.snapshot.corruption_repairs.count").value();
  }
  if (trace_json != nullptr) {
    *trace_json = fwobs::ChromeTraceJson(env.tracer(), "fireworks-chaos");
  }
  return fp;
}

// --- Firecracker (+OS snapshot) scenario -----------------------------------
// Exercises the warm resume-crash fallback and the restore-failure cold-boot
// degradation in the sandbox-manager baseline.
std::string RunFirecrackerScenario(uint64_t seed, const FaultPlan& plan) {
  HostEnv env(ChaosHostConfig(seed, plan));
  fwbaselines::FirecrackerPlatform::Config pc;
  pc.mode = fwbaselines::FirecrackerMode::kOsSnapshot;
  fwbaselines::FirecrackerPlatform platform(env, pc);

  std::string fp;
  const FunctionSource fn = fwwork::MakeFaasdom(fwwork::FaasdomBench::kFact,
                                                fwlang::Language::kPython);
  auto installed = RunSync(env.sim(), platform.Install(fn));
  if (!installed.ok()) {
    EXPECT_TRUE(IsTypedFaultError(installed.status().code()))
        << installed.status().ToString();
    fp += "install:err;";
  } else {
    fp += "install:ok;";
    (void)RunSync(env.sim(), platform.Prewarm(fn.name));
    for (int i = 0; i < 4; ++i) {
      auto r = RunSync(env.sim(), platform.Invoke(fn.name, "{}", InvokeOptions()));
      AppendResult(&fp, "invoke", r, /*max_attempts=*/2);
    }
  }
  platform.ReleaseInstances();
  EXPECT_EQ(platform.hypervisor().live_vm_count(), 0u) << "leaked VMs";
  EXPECT_EQ(env.memory().used_bytes(), 0u) << "leaked host pages";
  fp += "trips=" + std::to_string(env.fault_injector().total_trips());
  return fp;
}

// --- gVisor-snapshot scenario ----------------------------------------------
// Exercises the container engine's unpause-crash fallback and checkpoint
// restore degradation.
std::string RunGvisorScenario(uint64_t seed, const FaultPlan& plan) {
  HostEnv env(ChaosHostConfig(seed, plan));
  fwbaselines::GvisorSnapshotPlatform platform(env);

  std::string fp;
  const FunctionSource fn = fwwork::MakeFaasdom(fwwork::FaasdomBench::kFact,
                                                fwlang::Language::kNodeJs);
  auto installed = RunSync(env.sim(), platform.Install(fn));
  if (!installed.ok()) {
    EXPECT_TRUE(IsTypedFaultError(installed.status().code()))
        << installed.status().ToString();
    fp += "install:err;";
  } else {
    fp += "install:ok;";
    for (int i = 0; i < 4; ++i) {
      auto r = RunSync(env.sim(), platform.Invoke(fn.name, "{}", InvokeOptions()));
      AppendResult(&fp, "invoke", r, /*max_attempts=*/2);
    }
  }
  platform.ReleaseInstances();
  EXPECT_EQ(env.memory().used_bytes(), 0u) << "leaked host pages";
  fp += "trips=" + std::to_string(env.fault_injector().total_trips());
  return fp;
}

// Dumps the failing seed and a traced re-run for offline triage, and returns
// the artifact path for the failure message.
std::string DumpFailureArtifacts(uint64_t seed) {
  const std::string dir = ArtifactDir();
  std::string trace;
  (void)RunFireworksScenario(seed, ChaosPlan(), &trace);
  const std::string trace_path = dir + "/chaos_trace_" + std::to_string(seed) + ".json";
  std::ofstream(trace_path) << trace;
  std::ofstream(dir + "/chaos_failing_seed.txt") << seed << "\n";
  return trace_path;
}

TEST(ChaosSweepTest, FireworksSurvivesSeedSweep) {
  const int seeds = SweepSeeds();
  for (int seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    (void)RunFireworksScenario(seed, ChaosPlan());
    if (::testing::Test::HasFailure()) {
      FAIL() << "chaos invariant violated at seed " << seed << "; trace written to "
             << DumpFailureArtifacts(seed);
    }
  }
}

TEST(ChaosSweepTest, CorruptionRepairsActuallyHappen) {
  // ChaosPlan corrupts 8% of snapshot loads; the checksum-repair path
  // (re-persist from the live template VM) must actually run during the
  // sweep, or the corruption probability is silently not being exercised.
  const int seeds = std::max(SweepSeeds() / 4, 25);
  uint64_t total_repairs = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    uint64_t repairs = 0;
    (void)RunFireworksScenario(seed, ChaosPlan(), nullptr, &repairs);
    total_repairs += repairs;
  }
  EXPECT_GT(total_repairs, 0u)
      << "no run repaired a corrupted snapshot: the kSnapshotCorruption "
         "injection point or the repair path is dead";
}

TEST(ChaosSweepTest, BaselinesSurviveSeedSweep) {
  // The baselines share the sweep but at half the width: their fault surface
  // is smaller (no broker/NAT path).
  const int seeds = std::max(SweepSeeds() / 2, 50);
  for (int seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    (void)RunFirecrackerScenario(seed, ChaosPlan());
    (void)RunGvisorScenario(seed, ChaosPlan());
    if (::testing::Test::HasFailure()) {
      std::ofstream(ArtifactDir() + "/chaos_failing_seed.txt") << seed << "\n";
      FAIL() << "baseline chaos invariant violated at seed " << seed;
    }
  }
}

TEST(ChaosSweepTest, SameSeedReproducesBitIdenticalOutcome) {
  for (uint64_t seed : {1u, 7u, 13u, 42u, 99u, 123u, 200u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::string trace_a;
    std::string trace_b;
    const std::string a = RunFireworksScenario(seed, ChaosPlan(), &trace_a);
    const std::string b = RunFireworksScenario(seed, ChaosPlan(), &trace_b);
    EXPECT_EQ(a, b) << "outcome fingerprint diverged across identical runs";
    EXPECT_EQ(trace_a, trace_b) << "trace diverged across identical runs";
    EXPECT_EQ(RunFirecrackerScenario(seed, ChaosPlan()),
              RunFirecrackerScenario(seed, ChaosPlan()));
    EXPECT_EQ(RunGvisorScenario(seed, ChaosPlan()),
              RunGvisorScenario(seed, ChaosPlan()));
  }
}

TEST(ChaosSweepTest, DifferentSeedsDiverge) {
  // Sanity check that the sweep actually varies: across many seeds at these
  // probabilities at least two outcomes must differ.
  std::set<std::string> outcomes;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    outcomes.insert(RunFireworksScenario(seed, ChaosPlan()));
  }
  EXPECT_GT(outcomes.size(), 1u);
}

TEST(ChaosSweepTest, ZeroFaultPlanIsInert) {
  auto none = FaultPlan::Parse("none");
  ASSERT_TRUE(none.ok());
  for (uint64_t seed : {1u, 42u, 77u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    // A parsed empty plan and the default-constructed config must produce the
    // same spans and the same outcomes — the injector never fires, charges no
    // time, and draws no randomness on the happy path.
    std::string trace_parsed;
    std::string trace_default;
    const std::string parsed = RunFireworksScenario(seed, *none, &trace_parsed);
    const std::string defaulted = RunFireworksScenario(seed, FaultPlan(), &trace_default);
    EXPECT_EQ(parsed, defaulted);
    EXPECT_EQ(trace_parsed, trace_default);
    EXPECT_NE(parsed.find("trips=0"), std::string::npos)
        << "zero-fault plan tripped a fault: " << parsed;
    // Every invocation on the zero-fault path succeeds on the first attempt.
    EXPECT_EQ(parsed.find("err"), std::string::npos) << parsed;
    EXPECT_EQ(parsed.find('f'), std::string::npos);
  }
}


// --- Cluster scenario -------------------------------------------------------
// A full-fidelity two-host cluster serving a steady request stream while one
// host is crashed mid-invocation and later restarted. Invariants: every
// accepted request reaches exactly one recorded completion (zombies are
// discarded, retries never duplicate), and after drain + warm-pool drop
// nothing leaks (no live VMs, no network namespaces beyond the install-time
// baseline, no parked clones). Returns the cluster outcome digest.
fwsim::Co<void> DriveClusterStream(fwsim::Simulation& sim, fwcluster::Cluster& cluster,
                                   int count) {
  for (int i = 0; i < count; ++i) {
    co_await fwsim::Delay(sim, Duration::Millis(5));
    (void)cluster.Submit(i % 2 == 0 ? "app-a" : "app-b", "{}");
  }
}

fwsim::Co<void> CrashThenRestart(fwsim::Simulation& sim, fwcluster::Cluster& cluster,
                                 int victim) {
  // Submissions land every 5 ms and a cold invocation takes ~20 ms, so the
  // crash is guaranteed to catch work both queued and in flight.
  co_await fwsim::Delay(sim, Duration::Millis(23));
  cluster.CrashHost(victim);
  co_await fwsim::Delay(sim, Duration::Millis(40));
  cluster.RestartHost(victim);
}

uint64_t RunClusterCrashScenario(uint64_t seed) {
  constexpr int kHosts = 2;
  constexpr int kInvocations = 24;
  fwsim::Simulation sim(seed);
  std::vector<std::unique_ptr<fwcluster::ClusterHost>> hosts;
  for (int i = 0; i < kHosts; ++i) {
    fwcluster::FullHost::Config fc;
    fc.env.seed = seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(i);
    hosts.push_back(std::make_unique<fwcluster::FullHost>(sim, i, fc));
  }
  fwcluster::Cluster::Config cc;
  cc.policy = fwcluster::SchedulerPolicy::kLeastLoaded;
  fwcluster::Cluster cluster(sim, std::move(hosts), cc);

  for (const char* app : {"app-a", "app-b"}) {
    FunctionSource fn =
        fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency, fwlang::Language::kNodeJs);
    fn.name = app;
    FW_CHECK(RunSync(sim, cluster.InstallAll(fn)).ok());
  }
  // Install may retain per-host networking state; leak checks compare against
  // this baseline, not against zero.
  std::vector<size_t> netns_baseline;
  for (int i = 0; i < kHosts; ++i) {
    netns_baseline.push_back(cluster.host(i).LiveNetnsCount());
  }

  sim.Spawn(DriveClusterStream(sim, cluster, kInvocations));
  sim.Spawn(CrashThenRestart(sim, cluster, /*victim=*/0));
  cluster.Drain(kInvocations);
  sim.Run();  // Let zombie invocations and in-flight clone prepares finish.

  const fwcluster::Cluster::Rollup rollup = cluster.ComputeRollup();
  EXPECT_EQ(rollup.completed + rollup.failed, static_cast<uint64_t>(kInvocations));
  EXPECT_EQ(rollup.failed, 0u) << "one crash must stay within the retry budget";
  // Exactly-once: every request has exactly one recorded completion, however
  // many times it was dispatched.
  for (uint64_t id = 1; id <= cluster.submitted(); ++id) {
    EXPECT_EQ(cluster.outcome(id).completions, 1u) << "request " << id;
    EXPECT_LE(cluster.outcome(id).attempts, fwcluster::Cluster::kMaxAttempts);
  }
  // The crash landed mid-stream: it must actually have exercised the zombie
  // or requeue path, otherwise this scenario tests nothing.
  EXPECT_GT(rollup.retries, 0u);

  // Leak checks after the pools are dropped and the queue is quiescent.
  for (int i = 0; i < kHosts; ++i) {
    cluster.host(i).DropWarmPool();
  }
  sim.Run();
  for (int i = 0; i < kHosts; ++i) {
    SCOPED_TRACE("host " + std::to_string(i));
    EXPECT_EQ(cluster.host(i).TotalPooledClones(), 0u);
    EXPECT_EQ(cluster.host(i).LiveVmCount(), 0u);
    EXPECT_EQ(cluster.host(i).LiveNetnsCount(), netns_baseline[i]);
  }
  return cluster.OutcomeDigest();
}

TEST(ChaosSweepTest, ClusterSurvivesHostCrashMidInvocation) {
  // Full-fidelity hosts are ~three orders of magnitude more expensive per
  // invocation than the model hosts, so the sweep is narrower.
  const int seeds = std::max(SweepSeeds() / 10, 10);
  for (int seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    (void)RunClusterCrashScenario(seed);
    if (::testing::Test::HasFailure()) {
      std::ofstream(ArtifactDir() + "/chaos_failing_seed.txt") << seed << "\n";
      FAIL() << "cluster chaos invariant violated at seed " << seed;
    }
  }
}

TEST(ChaosSweepTest, ClusterCrashRecoveryIsBitIdentical) {
  for (uint64_t seed : {1u, 42u, 77u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    EXPECT_EQ(RunClusterCrashScenario(seed), RunClusterCrashScenario(seed));
  }
}


// --- Clone-uniqueness crash scenario ----------------------------------------
// A crash landing between a clone's snapshot restore and its reseed-complete
// acknowledgement must never leak a stale-generation clone into user traffic
// (DESIGN.md §15). The crash at 23 ms catches warm-pool prepares and invoke
// restores mid-protocol: the vmgenid resume takes ~310 µs per restore and the
// stream keeps both hosts restoring continuously, so some protocol run is
// always in flight when the victim dies. Invariants on top of the usual crash
// ones: every recorded completion carries a guest-minted request id, no two
// completions share one (a duplicate would mean a clone served traffic with
// the snapshot's collided identity), and the whole outcome — ids included,
// they are part of OutcomeDigest() — is bit-identical for the same seed.
uint64_t RunCloneUniquenessCrashScenario(uint64_t seed) {
  constexpr int kHosts = 2;
  constexpr int kInvocations = 24;
  fwsim::Simulation sim(seed);
  std::vector<std::unique_ptr<fwcluster::ClusterHost>> hosts;
  for (int i = 0; i < kHosts; ++i) {
    fwcluster::FullHost::Config fc;
    fc.env.seed = seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(i);
    hosts.push_back(std::make_unique<fwcluster::FullHost>(sim, i, fc));
  }
  fwcluster::Cluster::Config cc;
  cc.policy = fwcluster::SchedulerPolicy::kLeastLoaded;
  fwcluster::Cluster cluster(sim, std::move(hosts), cc);

  for (const char* app : {"app-a", "app-b"}) {
    FunctionSource fn =
        fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency, fwlang::Language::kNodeJs);
    fn.name = app;
    FW_CHECK(RunSync(sim, cluster.InstallAll(fn)).ok());
  }

  sim.Spawn(DriveClusterStream(sim, cluster, kInvocations));
  sim.Spawn(CrashThenRestart(sim, cluster, /*victim=*/0));
  cluster.Drain(kInvocations);
  sim.Run();

  const fwcluster::Cluster::Rollup rollup = cluster.ComputeRollup();
  EXPECT_EQ(rollup.completed + rollup.failed, static_cast<uint64_t>(kInvocations));
  EXPECT_EQ(rollup.failed, 0u);
  std::set<uint64_t> seen_ids;
  for (uint64_t id = 1; id <= cluster.submitted(); ++id) {
    const fwcluster::Cluster::Outcome& out = cluster.outcome(id);
    EXPECT_EQ(out.completions, 1u) << "request " << id;
    if (out.status.ok()) {
      EXPECT_NE(out.request_id, 0u)
          << "request " << id << " completed without a guest-minted id";
      EXPECT_TRUE(seen_ids.insert(out.request_id).second)
          << "request " << id << " reused request id " << out.request_id
          << ": a clone served traffic with the snapshot's collided identity";
    }
  }

  for (int i = 0; i < kHosts; ++i) {
    cluster.host(i).DropWarmPool();
  }
  sim.Run();
  for (int i = 0; i < kHosts; ++i) {
    EXPECT_EQ(cluster.host(i).LiveVmCount(), 0u) << "host " << i;
  }
  return cluster.OutcomeDigest();
}

TEST(ChaosSweepTest, NoDuplicateRequestIdsAcrossCrashRecovery) {
  const int seeds = std::max(SweepSeeds() / 10, 10);
  for (int seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    (void)RunCloneUniquenessCrashScenario(seed);
    if (::testing::Test::HasFailure()) {
      std::ofstream(ArtifactDir() + "/chaos_failing_seed.txt") << seed << "\n";
      FAIL() << "clone-uniqueness chaos invariant violated at seed " << seed;
    }
  }
}

TEST(ChaosSweepTest, CloneUniquenessCrashRecoveryIsBitIdentical) {
  for (uint64_t seed : {1u, 42u, 77u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    EXPECT_EQ(RunCloneUniquenessCrashScenario(seed), RunCloneUniquenessCrashScenario(seed));
  }
}


// --- Partition-then-crash scenario ------------------------------------------
// The nastier interleaving: a host is partitioned (responses held, heartbeats
// lost), then crashes *before the partition heals*. Queued work must bounce,
// in-flight work must die as zombies the moment the crash bumps the epoch
// (the partition hold must not outlive the crash), and every request still
// reaches exactly one recorded completion.
fwsim::Co<void> PartitionThenCrash(fwsim::Simulation& sim, fwcluster::Cluster& cluster,
                                   int victim) {
  co_await fwsim::Delay(sim, Duration::Millis(20));
  cluster.PartitionHost(victim, Duration::Millis(60));  // Would heal at 80 ms.
  co_await fwsim::Delay(sim, Duration::Millis(15));
  cluster.CrashHost(victim);                            // ... but dies at 35 ms.
  co_await fwsim::Delay(sim, Duration::Millis(65));
  cluster.RestartHost(victim);
}

uint64_t RunClusterPartitionCrashScenario(uint64_t seed) {
  constexpr int kHosts = 2;
  constexpr int kInvocations = 24;
  fwsim::Simulation sim(seed);
  std::vector<std::unique_ptr<fwcluster::ClusterHost>> hosts;
  for (int i = 0; i < kHosts; ++i) {
    fwcluster::FullHost::Config fc;
    fc.env.seed = seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(i);
    hosts.push_back(std::make_unique<fwcluster::FullHost>(sim, i, fc));
  }
  fwcluster::Cluster::Config cc;
  cc.policy = fwcluster::SchedulerPolicy::kLeastLoaded;
  fwcluster::Cluster cluster(sim, std::move(hosts), cc);

  for (const char* app : {"app-a", "app-b"}) {
    FunctionSource fn =
        fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency, fwlang::Language::kNodeJs);
    fn.name = app;
    FW_CHECK(RunSync(sim, cluster.InstallAll(fn)).ok());
  }
  std::vector<size_t> netns_baseline;
  for (int i = 0; i < kHosts; ++i) {
    netns_baseline.push_back(cluster.host(i).LiveNetnsCount());
  }

  sim.Spawn(DriveClusterStream(sim, cluster, kInvocations));
  sim.Spawn(PartitionThenCrash(sim, cluster, /*victim=*/0));
  cluster.Drain(kInvocations);
  sim.Run();

  const fwcluster::Cluster::Rollup rollup = cluster.ComputeRollup();
  EXPECT_EQ(rollup.completed + rollup.failed, static_cast<uint64_t>(kInvocations));
  EXPECT_EQ(rollup.failed, 0u)
      << "partition+crash of one host must stay within the retry budget";
  for (uint64_t id = 1; id <= cluster.submitted(); ++id) {
    EXPECT_EQ(cluster.outcome(id).completions, 1u) << "request " << id;
    EXPECT_LE(cluster.outcome(id).attempts, fwcluster::Cluster::kMaxAttempts);
  }
  EXPECT_GT(rollup.retries, 0u);

  for (int i = 0; i < kHosts; ++i) {
    cluster.host(i).DropWarmPool();
  }
  sim.Run();
  for (int i = 0; i < kHosts; ++i) {
    SCOPED_TRACE("host " + std::to_string(i));
    EXPECT_EQ(cluster.host(i).TotalPooledClones(), 0u);
    EXPECT_EQ(cluster.host(i).LiveVmCount(), 0u);
    EXPECT_EQ(cluster.host(i).LiveNetnsCount(), netns_baseline[i]);
  }
  return cluster.OutcomeDigest();
}

TEST(ChaosSweepTest, ClusterSurvivesPartitionThenCrashBeforeHeal) {
  const int seeds = std::max(SweepSeeds() / 10, 10);
  for (int seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    (void)RunClusterPartitionCrashScenario(seed);
    if (::testing::Test::HasFailure()) {
      std::ofstream(ArtifactDir() + "/chaos_failing_seed.txt") << seed << "\n";
      FAIL() << "partition+crash chaos invariant violated at seed " << seed;
    }
  }
}

TEST(ChaosSweepTest, PartitionThenCrashIsBitIdentical) {
  for (uint64_t seed : {1u, 42u, 77u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    EXPECT_EQ(RunClusterPartitionCrashScenario(seed), RunClusterPartitionCrashScenario(seed));
  }
}

// --- Suspect-threshold recovery ---------------------------------------------
// A partitioned host goes silent exactly long enough to graze the phi dead
// threshold. Recovering just *under* it exercises the detector's
// false-positive path (suspected, never declared dead, reinstated by the
// first post-heal heartbeat); recovering just *over* it exercises
// dead-then-recovered. Either way every request completes exactly once.
fwsim::Co<void> DriveFastStream(fwsim::Simulation& sim, fwcluster::Cluster& cluster,
                                int count) {
  for (int i = 0; i < count; ++i) {
    co_await fwsim::Delay(sim, Duration::Millis(2));
    (void)cluster.Submit("app-a", "{}");
  }
}

fwsim::Co<void> PartitionNearDeadThreshold(fwsim::Simulation& sim,
                                           fwcluster::Cluster& cluster, int victim,
                                           bool beyond_dead) {
  // Let the interval EWMA settle on the real heartbeat cadence first, then
  // size the partition off the detector's own threshold arithmetic.
  co_await fwsim::Delay(sim, Duration::Millis(100));
  const fwcluster::FailureDetector& fd = cluster.detector();
  const Duration to_dead = fd.TimeToPhi(victim, fwcluster::FailureDetector::kPhiDead);
  // Post-heal heartbeats resume within one interval (10 ms), so a 30 ms
  // margin keeps the under case strictly under the threshold; the over case
  // leaves 50 ms of silence past it for an evaluation to land in.
  const Duration duration = beyond_dead ? to_dead + Duration::Millis(50)
                                        : to_dead - Duration::Millis(30);
  cluster.PartitionHost(victim, duration);
}

fwcluster::Cluster::Rollup RunSuspectThresholdScenario(uint64_t seed, bool beyond_dead,
                                                       uint64_t* digest = nullptr) {
  constexpr int kInvocations = 300;
  fwsim::Simulation sim(seed);
  std::vector<std::unique_ptr<fwcluster::ClusterHost>> hosts;
  for (int i = 0; i < 2; ++i) {
    hosts.push_back(
        std::make_unique<fwcluster::ModelHost>(sim, i, fwcluster::ModelHost::Config()));
  }
  fwcluster::Cluster::Config cc;
  cc.policy = fwcluster::SchedulerPolicy::kLeastLoaded;
  cc.health.heartbeat_interval = Duration::Millis(10);
  fwcluster::Cluster cluster(sim, std::move(hosts), cc);

  FunctionSource fn =
      fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency, fwlang::Language::kNodeJs);
  fn.name = "app-a";
  FW_CHECK(RunSync(sim, cluster.InstallAll(fn)).ok());

  sim.Spawn(DriveFastStream(sim, cluster, kInvocations));
  sim.Spawn(PartitionNearDeadThreshold(sim, cluster, /*victim=*/0, beyond_dead));
  cluster.Drain(kInvocations);
  sim.Run();

  const fwcluster::Cluster::Rollup rollup = cluster.ComputeRollup();
  EXPECT_EQ(rollup.completed, static_cast<uint64_t>(kInvocations));
  EXPECT_EQ(rollup.failed, 0u) << "a partition delays work, it must not fail it";
  for (uint64_t id = 1; id <= cluster.submitted(); ++id) {
    EXPECT_EQ(cluster.outcome(id).completions, 1u) << "request " << id;
  }
  EXPECT_GE(rollup.suspects, 1u) << "the partition never even raised suspicion";
  EXPECT_GE(rollup.reinstated, 1u) << "the healed host was never reinstated";
  if (digest != nullptr) {
    *digest = cluster.OutcomeDigest();
  }
  return rollup;
}

TEST(ChaosSweepTest, HostRecoveringJustUnderDeadThresholdIsReinstatedNotKilled) {
  const int seeds = std::max(SweepSeeds() / 10, 10);
  for (int seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const fwcluster::Cluster::Rollup rollup =
        RunSuspectThresholdScenario(seed, /*beyond_dead=*/false);
    EXPECT_EQ(rollup.detector_deaths, 0u)
        << "phi never crossed the dead threshold, yet the detector killed the host";
    if (::testing::Test::HasFailure()) {
      std::ofstream(ArtifactDir() + "/chaos_failing_seed.txt") << seed << "\n";
      FAIL() << "suspect-threshold (under) invariant violated at seed " << seed;
    }
  }
}

TEST(ChaosSweepTest, HostRecoveringJustOverDeadThresholdIsDeclaredDeadThenHealed) {
  const int seeds = std::max(SweepSeeds() / 10, 10);
  for (int seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const fwcluster::Cluster::Rollup rollup =
        RunSuspectThresholdScenario(seed, /*beyond_dead=*/true);
    EXPECT_GE(rollup.detector_deaths, 1u)
        << "the partition outlived the dead threshold but no death was declared";
    if (::testing::Test::HasFailure()) {
      std::ofstream(ArtifactDir() + "/chaos_failing_seed.txt") << seed << "\n";
      FAIL() << "suspect-threshold (over) invariant violated at seed " << seed;
    }
  }
}

TEST(ChaosSweepTest, SuspectThresholdRecoveryIsBitIdentical) {
  for (uint64_t seed : {1u, 42u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    for (const bool beyond : {false, true}) {
      uint64_t a = 0;
      uint64_t b = 0;
      (void)RunSuspectThresholdScenario(seed, beyond, &a);
      (void)RunSuspectThresholdScenario(seed, beyond, &b);
      EXPECT_EQ(a, b);
    }
  }
}

// --- Registry distribution scenario -----------------------------------------
// A two-host full-fidelity cluster with the snapshot distribution tier
// enabled, under injected registry faults: fetched chunks fail their digest
// check (peer corruption falls back to the registry, registry corruption
// retries with backoff) and registry RPCs drop. Invariants: no request ever
// fails (a host that exhausts every source cold-boots the app and stays
// available), completions stay exactly-once, every host's chunk cache
// respects its byte budget, nothing leaks after drain, and the same seed
// reproduces the bit-identical outcome digest.
uint64_t RunRegistryChaosScenario(uint64_t seed, double fault_probability,
                                  fwcluster::DistributionStats* stats_out = nullptr) {
  constexpr int kHosts = 2;
  constexpr int kInvocations = 24;
  fwsim::Simulation sim(seed);
  std::vector<std::unique_ptr<fwcluster::ClusterHost>> hosts;
  for (int i = 0; i < kHosts; ++i) {
    fwcluster::FullHost::Config fc;
    fc.env.seed = seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(i);
    hosts.push_back(std::make_unique<fwcluster::FullHost>(sim, i, fc));
  }
  fwcluster::Cluster::Config cc;
  cc.policy = fwcluster::SchedulerPolicy::kLeastLoaded;
  cc.distribution.enabled = true;
  cc.distribution.base_layer_bytes = 8ull << 20;
  cc.distribution.delta_layer_bytes = 2ull << 20;
  cc.distribution.chunk_bytes = 1ull << 20;
  cc.distribution.cache_budget_bytes = 16ull << 20;
  cc.distribution.cold_boot_cost = Duration::Millis(50);  // Keep the sweep fast.
  cc.fault_plan.Set(FaultKind::kChunkCorruption, fault_probability);
  cc.fault_plan.Set(FaultKind::kRegistryUnreachable, fault_probability);
  cc.fault_seed = seed * 0x9E3779B97F4A7C15ull + 3;
  fwcluster::Cluster cluster(sim, std::move(hosts), cc);

  for (const char* app : {"app-a", "app-b"}) {
    FunctionSource fn =
        fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency, fwlang::Language::kNodeJs);
    fn.name = app;
    FW_CHECK(RunSync(sim, cluster.InstallAll(fn)).ok());
  }
  std::vector<size_t> netns_baseline;
  for (int i = 0; i < kHosts; ++i) {
    netns_baseline.push_back(cluster.host(i).LiveNetnsCount());
  }

  sim.Spawn(DriveClusterStream(sim, cluster, kInvocations));
  cluster.Drain(kInvocations);
  sim.Run();

  const fwcluster::Cluster::Rollup rollup = cluster.ComputeRollup();
  EXPECT_EQ(rollup.completed, static_cast<uint64_t>(kInvocations));
  EXPECT_EQ(rollup.failed, 0u)
      << "registry faults must degrade (retry, fall back, cold-boot), never fail";
  for (uint64_t id = 1; id <= cluster.submitted(); ++id) {
    EXPECT_EQ(cluster.outcome(id).completions, 1u) << "request " << id;
  }
  // Cache-entry accounting: the byte budget is an invariant, faults included.
  const fwcluster::SnapshotDistribution* dist = cluster.distribution();
  EXPECT_NE(dist, nullptr);
  for (int i = 0; dist != nullptr && i < kHosts; ++i) {
    EXPECT_LE(dist->cache(i).used_bytes(), cc.distribution.cache_budget_bytes)
        << "host " << i;
  }

  for (int i = 0; i < kHosts; ++i) {
    cluster.host(i).DropWarmPool();
  }
  sim.Run();
  for (int i = 0; i < kHosts; ++i) {
    SCOPED_TRACE("host " + std::to_string(i));
    EXPECT_EQ(cluster.host(i).TotalPooledClones(), 0u);
    EXPECT_EQ(cluster.host(i).LiveVmCount(), 0u);
    EXPECT_EQ(cluster.host(i).LiveNetnsCount(), netns_baseline[i]);
  }
  if (stats_out != nullptr) {
    *stats_out = rollup.distribution;
  }
  return cluster.OutcomeDigest();
}

TEST(ChaosSweepTest, RegistrySurvivesFaultSeedSweep) {
  const int seeds = std::max(SweepSeeds() / 10, 10);
  fwcluster::DistributionStats aggregate;
  for (int seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    fwcluster::DistributionStats stats;
    (void)RunRegistryChaosScenario(seed, /*fault_probability=*/0.15, &stats);
    aggregate.retries += stats.retries;
    aggregate.corrupt_chunks += stats.corrupt_chunks;
    aggregate.registry_unreachable += stats.registry_unreachable;
    aggregate.chunks_from_peer += stats.chunks_from_peer;
    aggregate.chunks_from_registry += stats.chunks_from_registry;
    if (::testing::Test::HasFailure()) {
      std::ofstream(ArtifactDir() + "/chaos_failing_seed.txt") << seed << "\n";
      FAIL() << "registry chaos invariant violated at seed " << seed;
    }
  }
  // The plan must actually have exercised the recovery paths across the
  // sweep, or this scenario tests nothing.
  EXPECT_GT(aggregate.corrupt_chunks, 0u);
  EXPECT_GT(aggregate.registry_unreachable, 0u);
  EXPECT_GT(aggregate.retries, 0u);
  // Corrupt peer transfers must have fallen back to the registry.
  EXPECT_GT(aggregate.chunks_from_registry, 0u);
  EXPECT_GT(aggregate.chunks_from_peer, 0u);
}

TEST(ChaosSweepTest, RegistryTotalLossColdBootsAndStaysAvailable) {
  // Every registry RPC drops: manifest fetches exhaust their retries and the
  // cold host boots each app from source instead. Nothing fails.
  for (uint64_t seed : {1u, 42u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    fwcluster::DistributionStats stats;
    (void)RunRegistryChaosScenario(seed, /*fault_probability=*/1.0, &stats);
    EXPECT_GT(stats.cold_boots, 0u);
    EXPECT_EQ(stats.chunks_from_registry, 0u);
  }
}

TEST(ChaosSweepTest, RegistryChaosIsBitIdentical) {
  for (uint64_t seed : {1u, 42u, 77u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    EXPECT_EQ(RunRegistryChaosScenario(seed, 0.15),
              RunRegistryChaosScenario(seed, 0.15));
  }
}


// --- Zone-outage scenario ---------------------------------------------------
// The correlated failure the zone model exists for: every host in one zone
// dies at the same instant at peak load, and the survivors absorb the
// redirected traffic. Invariants beyond the usual crash ones (exactly-once,
// unique guest-minted ids, zero leaks, bit-identity): per-app SLO attainment
// in the outage run stays within 90% of the same seed's no-fault run — losing
// a third of the fleet degrades the tail, it must not collapse any one app.
fwsim::Co<void> DriveZonedStream(fwsim::Simulation& sim, fwcluster::Cluster& cluster,
                                 int count, int num_apps) {
  for (int i = 0; i < count; ++i) {
    co_await fwsim::Delay(sim, Duration::Millis(5));
    (void)cluster.Submit("app-" + std::to_string(i % num_apps), "{}");
  }
}

fwsim::Co<void> KillZoneThenRestore(fwsim::Simulation& sim, fwcluster::Cluster& cluster,
                                    int zone, Duration kill_after, Duration outage) {
  co_await fwsim::Delay(sim, kill_after);
  cluster.KillZone(zone);
  co_await fwsim::Delay(sim, outage);
  cluster.RestoreZone(zone);
}

struct ZoneOutageRun {
  uint64_t digest = 0;
  fwcluster::Cluster::Rollup rollup;
  // Per-app fraction of requests that completed OK within the SLO target.
  std::map<std::string, double> app_attainment;
};

ZoneOutageRun RunZoneOutageScenario(uint64_t seed, bool inject_outage) {
  constexpr int kHosts = 6;
  constexpr int kZones = 3;
  constexpr int kApps = 6;  // Every zone owns traffic, so the kill always bites.
  constexpr int kInvocations = 48;
  fwsim::Simulation sim(seed);
  std::vector<std::unique_ptr<fwcluster::ClusterHost>> hosts;
  for (int i = 0; i < kHosts; ++i) {
    fwcluster::FullHost::Config fc;
    fc.env.seed = seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(i);
    hosts.push_back(std::make_unique<fwcluster::FullHost>(sim, i, fc));
  }
  fwcluster::Cluster::Config cc;
  cc.policy = fwcluster::SchedulerPolicy::kSnapshotLocality;
  cc.num_zones = kZones;
  cc.slo.target = Duration::Millis(300);
  fwcluster::Cluster cluster(sim, std::move(hosts), cc);

  for (int a = 0; a < kApps; ++a) {
    FunctionSource fn =
        fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency, fwlang::Language::kNodeJs);
    fn.name = "app-" + std::to_string(a);
    FW_CHECK(RunSync(sim, cluster.InstallAll(fn)).ok());
  }
  std::vector<size_t> netns_baseline;
  for (int i = 0; i < kHosts; ++i) {
    netns_baseline.push_back(cluster.host(i).LiveNetnsCount());
  }

  sim.Spawn(DriveZonedStream(sim, cluster, kInvocations, kApps));
  if (inject_outage) {
    // Hosts 0 and 3 die together at 60 ms (mid-burst: work queued, in
    // flight, and clone prepares racing), the zone comes back at 160 ms.
    sim.Spawn(KillZoneThenRestore(sim, cluster, /*zone=*/0, Duration::Millis(60),
                                  Duration::Millis(100)));
  }
  cluster.Drain(kInvocations);
  sim.Run();

  ZoneOutageRun result;
  result.rollup = cluster.ComputeRollup();
  EXPECT_EQ(result.rollup.completed + result.rollup.failed,
            static_cast<uint64_t>(kInvocations));
  EXPECT_EQ(result.rollup.failed, 0u)
      << "survivors must absorb a zone outage within the retry budget";
  EXPECT_EQ(result.rollup.zone_outages, inject_outage ? 1u : 0u);
  std::set<uint64_t> seen_ids;
  std::map<std::string, uint64_t> app_total;
  std::map<std::string, uint64_t> app_good;
  for (uint64_t id = 1; id <= cluster.submitted(); ++id) {
    const fwcluster::Cluster::Outcome& out = cluster.outcome(id);
    EXPECT_EQ(out.completions, 1u) << "request " << id;
    EXPECT_LE(out.attempts, fwcluster::Cluster::kMaxAttempts);
    if (out.status.ok()) {
      EXPECT_NE(out.request_id, 0u) << "request " << id;
      EXPECT_TRUE(seen_ids.insert(out.request_id).second)
          << "request " << id << " duplicated request id " << out.request_id
          << " across the zone outage";
    }
    const std::string& app = cluster.app_name(out.app);
    ++app_total[app];
    if (out.status.ok() && out.latency <= cc.slo.target) {
      ++app_good[app];
    }
  }
  for (const auto& [app, total] : app_total) {
    result.app_attainment[app] =
        static_cast<double>(app_good[app]) / static_cast<double>(total);
  }

  for (int i = 0; i < kHosts; ++i) {
    cluster.host(i).DropWarmPool();
  }
  sim.Run();
  for (int i = 0; i < kHosts; ++i) {
    SCOPED_TRACE("host " + std::to_string(i));
    EXPECT_EQ(cluster.host(i).TotalPooledClones(), 0u);
    EXPECT_EQ(cluster.host(i).LiveVmCount(), 0u);
    EXPECT_EQ(cluster.host(i).LiveNetnsCount(), netns_baseline[i]);
  }
  result.digest = cluster.OutcomeDigest();
  return result;
}

TEST(ChaosSweepTest, ZoneOutageSurvivorsKeepPerAppSloSeedSweep) {
  // Six full-fidelity hosts per run and two runs per seed: narrower sweep.
  const int seeds = std::max(SweepSeeds() / 20, 5);
  uint64_t total_retries = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const ZoneOutageRun baseline = RunZoneOutageScenario(seed, /*inject_outage=*/false);
    const ZoneOutageRun outage = RunZoneOutageScenario(seed, /*inject_outage=*/true);
    for (const auto& [app, base_att] : baseline.app_attainment) {
      const auto it = outage.app_attainment.find(app);
      ASSERT_NE(it, outage.app_attainment.end()) << app;
      EXPECT_GE(it->second, 0.9 * base_att)
          << app << ": zone outage collapsed this app's SLO attainment";
    }
    total_retries += outage.rollup.retries;
    if (::testing::Test::HasFailure()) {
      std::ofstream(ArtifactDir() + "/chaos_failing_seed.txt") << seed << "\n";
      FAIL() << "zone-outage invariant violated at seed " << seed;
    }
  }
  // The sweep must actually exercise recovery, not kill an idle zone.
  EXPECT_GT(total_retries, 0u);
}

TEST(ChaosSweepTest, ZoneOutageRecoveryIsBitIdentical) {
  for (uint64_t seed : {1u, 42u, 77u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    EXPECT_EQ(RunZoneOutageScenario(seed, true).digest,
              RunZoneOutageScenario(seed, true).digest);
  }
}


// --- Decommission-during-burst scenario -------------------------------------
// RemoveHost() while the victim holds queued work, in-flight invocations, and
// racing clone prepares. Graceful removal must not fail or duplicate a single
// request, and the removed host must hold *nothing* afterwards — no VMs, no
// parked clones, no netns beyond the install-time baseline — without anyone
// calling DropWarmPool on it (the decommission path owns the teardown).
fwsim::Co<void> RemoveDuringBurst(fwsim::Simulation& sim, fwcluster::Cluster& cluster,
                                  int victim, Duration after) {
  co_await fwsim::Delay(sim, after);
  cluster.RemoveHost(victim);
}

uint64_t RunDecommissionScenario(uint64_t seed) {
  constexpr int kHosts = 3;
  constexpr int kApps = 6;  // Locality gives every host (incl. the victim) traffic.
  constexpr int kInvocations = 36;
  fwsim::Simulation sim(seed);
  std::vector<std::unique_ptr<fwcluster::ClusterHost>> hosts;
  for (int i = 0; i < kHosts; ++i) {
    fwcluster::FullHost::Config fc;
    fc.env.seed = seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(i);
    hosts.push_back(std::make_unique<fwcluster::FullHost>(sim, i, fc));
  }
  fwcluster::Cluster::Config cc;
  cc.policy = fwcluster::SchedulerPolicy::kSnapshotLocality;
  cc.num_zones = 3;
  fwcluster::Cluster cluster(sim, std::move(hosts), cc);

  for (int a = 0; a < kApps; ++a) {
    FunctionSource fn =
        fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency, fwlang::Language::kNodeJs);
    fn.name = "app-" + std::to_string(a);
    FW_CHECK(RunSync(sim, cluster.InstallAll(fn)).ok());
  }
  std::vector<size_t> netns_baseline;
  for (int i = 0; i < kHosts; ++i) {
    netns_baseline.push_back(cluster.host(i).LiveNetnsCount());
  }

  constexpr int kVictim = 1;
  sim.Spawn(DriveZonedStream(sim, cluster, kInvocations, kApps));
  sim.Spawn(RemoveDuringBurst(sim, cluster, kVictim, Duration::Millis(23)));
  cluster.Drain(kInvocations);
  sim.Run();  // DrainAndRemove finishes bleeding + teardown here.

  const fwcluster::Cluster::Rollup rollup = cluster.ComputeRollup();
  EXPECT_EQ(rollup.completed + rollup.failed, static_cast<uint64_t>(kInvocations));
  EXPECT_EQ(rollup.failed, 0u) << "graceful removal must not fail requests";
  EXPECT_EQ(rollup.hosts_removed, 1u);
  for (uint64_t id = 1; id <= cluster.submitted(); ++id) {
    EXPECT_EQ(cluster.outcome(id).completions, 1u) << "request " << id;
  }
  // The victim tore itself down; nobody dropped its pool from the outside.
  EXPECT_EQ(cluster.lifecycle(kVictim), fwcluster::HostLifecycle::kRemoved);
  {
    SCOPED_TRACE("victim");
    EXPECT_EQ(cluster.host(kVictim).TotalPooledClones(), 0u);
    EXPECT_EQ(cluster.host(kVictim).LiveVmCount(), 0u);
    EXPECT_EQ(cluster.host(kVictim).LiveNetnsCount(), netns_baseline[kVictim]);
  }
  // Survivors pass the usual leak check once their pools are dropped.
  for (int i = 0; i < kHosts; ++i) {
    if (i != kVictim) {
      cluster.host(i).DropWarmPool();
    }
  }
  sim.Run();
  for (int i = 0; i < kHosts; ++i) {
    SCOPED_TRACE("host " + std::to_string(i));
    EXPECT_EQ(cluster.host(i).TotalPooledClones(), 0u);
    EXPECT_EQ(cluster.host(i).LiveVmCount(), 0u);
    EXPECT_EQ(cluster.host(i).LiveNetnsCount(), netns_baseline[i]);
  }
  return cluster.OutcomeDigest();
}

TEST(ChaosSweepTest, DecommissionDuringBurstLeaksNothing) {
  const int seeds = std::max(SweepSeeds() / 10, 10);
  for (int seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    (void)RunDecommissionScenario(seed);
    if (::testing::Test::HasFailure()) {
      std::ofstream(ArtifactDir() + "/chaos_failing_seed.txt") << seed << "\n";
      FAIL() << "decommission chaos invariant violated at seed " << seed;
    }
  }
}

TEST(ChaosSweepTest, DecommissionDuringBurstIsBitIdentical) {
  for (uint64_t seed : {1u, 42u, 77u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    EXPECT_EQ(RunDecommissionScenario(seed), RunDecommissionScenario(seed));
  }
}

}  // namespace
}  // namespace fwcore
