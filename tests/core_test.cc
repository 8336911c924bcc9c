// Tests for the Fireworks core: the code annotator transform and the
// platform's install/invoke phases end to end.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/base/strings.h"
#include "src/core/annotator.h"
#include "src/core/fireworks.h"
#include "src/core/platform.h"
#include "src/lang/function_ir.h"
#include "src/workloads/faasdom.h"
#include "tests/test_util.h"

namespace fwcore {
namespace {

using fwlang::FunctionSource;
using fwlang::Language;
using fwlang::MethodDef;
using fwlang::Op;
using fwtest::RunSync;
using fwwork::FaasdomBench;
using namespace fwbase::literals;

FunctionSource SimpleFn(Language language) {
  std::vector<MethodDef> methods;
  methods.emplace_back("helper", std::vector<Op>{Op::Compute(5'000)}, 1_KiB);
  methods.emplace_back("main",
                       std::vector<Op>{Op::Call("helper", 10), Op::NetSend(579)}, 1_KiB);
  return FunctionSource("hello", language, std::move(methods), "main", 1_MiB);
}

// ---------------------------------------------------------------------------
// Annotator.
// ---------------------------------------------------------------------------

TEST(AnnotatorTest, InjectsAllThreeMethods) {
  auto annotated = Annotate(SimpleFn(Language::kPython));
  ASSERT_TRUE(annotated.ok());
  EXPECT_TRUE(annotated->HasMethod(fwlang::kFireworksJitMethod));
  EXPECT_TRUE(annotated->HasMethod(fwlang::kFireworksSnapshotMethod));
  EXPECT_TRUE(annotated->HasMethod(fwlang::kFireworksMainMethod));
  EXPECT_TRUE(annotated->annotated);
  EXPECT_TRUE(IsAnnotated(*annotated));
}

TEST(AnnotatorTest, MarksAllUserMethodsJitAnnotated) {
  auto annotated = Annotate(SimpleFn(Language::kNodeJs));
  ASSERT_TRUE(annotated.ok());
  for (const auto& m : annotated->methods) {
    if (!m.injected) {
      EXPECT_TRUE(m.jit_annotated) << m.name;
    }
  }
}

TEST(AnnotatorTest, JitMethodCallsEveryUserMethodOnce) {
  auto annotated = Annotate(SimpleFn(Language::kNodeJs));
  ASSERT_TRUE(annotated.ok());
  const MethodDef* jit = annotated->FindMethod(fwlang::kFireworksJitMethod);
  ASSERT_NE(jit, nullptr);
  EXPECT_TRUE(jit->injected);
  ASSERT_EQ(jit->ops.size(), 2u);  // helper + main.
  EXPECT_EQ(jit->ops[0].kind, fwlang::OpKind::kCall);
  EXPECT_EQ(jit->ops[0].repeat, 1u);
}

TEST(AnnotatorTest, SnapshotMethodSendsHostRequest) {
  auto annotated = Annotate(SimpleFn(Language::kNodeJs));
  ASSERT_TRUE(annotated.ok());
  const MethodDef* snap = annotated->FindMethod(fwlang::kFireworksSnapshotMethod);
  ASSERT_NE(snap, nullptr);
  ASSERT_EQ(snap->ops.size(), 1u);
  EXPECT_EQ(snap->ops[0].kind, fwlang::OpKind::kNetSend);
  EXPECT_EQ(snap->ops[0].amount, kSnapshotRequestBytes);
}

TEST(AnnotatorTest, DoubleAnnotationRejected) {
  auto annotated = Annotate(SimpleFn(Language::kNodeJs));
  ASSERT_TRUE(annotated.ok());
  auto twice = Annotate(*annotated);
  EXPECT_FALSE(twice.ok());
  EXPECT_EQ(twice.status().code(), fwbase::StatusCode::kInvalidArgument);
}

TEST(AnnotatorTest, MissingEntryRejected) {
  FunctionSource fn = SimpleFn(Language::kNodeJs);
  fn.entry_method = "nope";
  EXPECT_FALSE(Annotate(fn).ok());
}

TEST(AnnotatorTest, UserMethodsPreserved) {
  const FunctionSource fn = SimpleFn(Language::kNodeJs);
  auto annotated = Annotate(fn);
  ASSERT_TRUE(annotated.ok());
  EXPECT_EQ(annotated->UserMethodNames(), fn.UserMethodNames());
  EXPECT_EQ(annotated->entry_method, "main");
}

// ---------------------------------------------------------------------------
// FireworksPlatform.
// ---------------------------------------------------------------------------

class FireworksPlatformTest : public ::testing::Test {
 protected:
  HostEnv env_;
  FireworksPlatform platform_{env_};
};

TEST_F(FireworksPlatformTest, InstallCreatesPinnedSnapshot) {
  auto install = RunSync(env_.sim(), platform_.Install(SimpleFn(Language::kNodeJs)));
  ASSERT_TRUE(install.ok());
  EXPECT_TRUE(env_.snapshot_store().Contains("fw-hello"));
  EXPECT_GT(install->snapshot_bytes, 100 * 1_MiB);  // Kernel+OS+runtime+app.
  EXPECT_GT(install->total.seconds(), 1.0);         // Boot + npm + JIT + write.
  EXPECT_GT(install->jit_time.millis(), 1.0);
  // The snapshot itself (vmstate + memory file write) matches §5.1's
  // 0.36–0.47 s ballpark.
  EXPECT_GT(install->snapshot_time.millis(), 100.0);
  EXPECT_LT(install->snapshot_time.seconds(), 1.0);
  // The install VM is gone.
  EXPECT_EQ(platform_.hypervisor().live_vm_count(), 0u);
}

TEST_F(FireworksPlatformTest, InstallStoresAnnotatedSource) {
  ASSERT_TRUE(RunSync(env_.sim(), platform_.Install(SimpleFn(Language::kNodeJs))).ok());
  const FunctionSource* annotated = platform_.AnnotatedSource("hello");
  ASSERT_NE(annotated, nullptr);
  EXPECT_TRUE(IsAnnotated(*annotated));
}

TEST_F(FireworksPlatformTest, DoubleInstallRejected) {
  ASSERT_TRUE(RunSync(env_.sim(), platform_.Install(SimpleFn(Language::kNodeJs))).ok());
  auto again = RunSync(env_.sim(), platform_.Install(SimpleFn(Language::kNodeJs)));
  EXPECT_EQ(again.status().code(), fwbase::StatusCode::kAlreadyExists);
}

TEST_F(FireworksPlatformTest, InvokeWithoutInstallFails) {
  auto result = RunSync(env_.sim(), platform_.Invoke("ghost", "{}", InvokeOptions()));
  EXPECT_EQ(result.status().code(), fwbase::StatusCode::kNotFound);
}

TEST_F(FireworksPlatformTest, InvokeResumesSnapshotQuickly) {
  ASSERT_TRUE(RunSync(env_.sim(), platform_.Install(SimpleFn(Language::kNodeJs))).ok());
  auto result = RunSync(env_.sim(), platform_.Invoke("hello", "{\"x\":1}", InvokeOptions()));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->cold);  // Fireworks has no cold/warm distinction.
  // Start-up is snapshot restore, not boot: well under a second.
  EXPECT_LT(result->startup.millis(), 200.0);
  EXPECT_GT(result->total.nanos(), 0);
  // Already JITted: no compiles during invocation.
  EXPECT_EQ(result->exec_stats.jit_compiles, 0u);
  // The sandbox is torn down afterwards.
  EXPECT_EQ(platform_.live_instance_count(), 0u);
  EXPECT_EQ(platform_.hypervisor().live_vm_count(), 0u);
}

TEST_F(FireworksPlatformTest, FirstInvocationRecordsWorkingSet) {
  // REAP record phase: the pages the first successful invocation faults in
  // from the image become the snapshot's working set, once.
  ASSERT_TRUE(RunSync(env_.sim(), platform_.Install(SimpleFn(Language::kNodeJs))).ok());
  const std::shared_ptr<fwmem::SnapshotImage> image = platform_.SnapshotImageOf("hello");
  ASSERT_NE(image, nullptr);
  EXPECT_FALSE(image->has_working_set());

  ASSERT_TRUE(RunSync(env_.sim(), platform_.Invoke("hello", "{}", InvokeOptions())).ok());
  ASSERT_TRUE(image->has_working_set());
  const uint64_t recorded = image->working_set_bytes();
  EXPECT_GT(recorded, 0u);
  EXPECT_LT(recorded, image->file_bytes());

  ASSERT_TRUE(RunSync(env_.sim(), platform_.Invoke("hello", "{}", InvokeOptions())).ok());
  EXPECT_EQ(image->working_set_bytes(), recorded);
}

TEST_F(FireworksPlatformTest, KeepInstanceRetainsVm) {
  ASSERT_TRUE(RunSync(env_.sim(), platform_.Install(SimpleFn(Language::kNodeJs))).ok());
  InvokeOptions options;
  options.keep_instance = true;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(RunSync(env_.sim(), platform_.Invoke("hello", "{}", options)).ok());
  }
  EXPECT_EQ(platform_.live_instance_count(), 3u);
  EXPECT_GT(platform_.MeasurePssBytes(), 0.0);
  platform_.ReleaseInstances();
  EXPECT_EQ(platform_.live_instance_count(), 0u);
  EXPECT_EQ(env_.memory().used_bytes(), 0u);
}

TEST_F(FireworksPlatformTest, ConcurrentInstancesSharePages) {
  ASSERT_TRUE(RunSync(env_.sim(), platform_.Install(SimpleFn(Language::kNodeJs))).ok());
  InvokeOptions options;
  options.keep_instance = true;
  ASSERT_TRUE(RunSync(env_.sim(), platform_.Invoke("hello", "{}", options)).ok());
  const double pss_one = platform_.MeasurePssBytes();
  ASSERT_TRUE(RunSync(env_.sim(), platform_.Invoke("hello", "{}", options)).ok());
  const double pss_two = platform_.MeasurePssBytes();
  // Two instances must use much less than twice the memory of one.
  EXPECT_LT(pss_two, 1.8 * pss_one);
}

TEST_F(FireworksPlatformTest, EachInvocationGetsOwnNamespaceAndTopic) {
  ASSERT_TRUE(RunSync(env_.sim(), platform_.Install(SimpleFn(Language::kNodeJs))).ok());
  const uint64_t produced_before = env_.broker().records_produced();
  InvokeOptions options;
  options.keep_instance = true;
  ASSERT_TRUE(RunSync(env_.sim(), platform_.Invoke("hello", "{}", options)).ok());
  ASSERT_TRUE(RunSync(env_.sim(), platform_.Invoke("hello", "{}", options)).ok());
  EXPECT_EQ(env_.broker().records_produced(), produced_before + 2);
  // Two clone namespaces + root.
  EXPECT_EQ(env_.network().namespace_count(), 3u);
  platform_.ReleaseInstances();
  EXPECT_EQ(env_.network().namespace_count(), 1u);
}

TEST_F(FireworksPlatformTest, ChainInvocationSupported) {
  EXPECT_TRUE(platform_.SupportsChains());
  ASSERT_TRUE(RunSync(env_.sim(), platform_.Install(SimpleFn(Language::kNodeJs))).ok());
  FunctionSource second = SimpleFn(Language::kNodeJs);
  second.name = "world";
  ASSERT_TRUE(RunSync(env_.sim(), platform_.Install(second)).ok());
  auto results = RunSync(env_.sim(),
                         platform_.InvokeChain({"hello", "world"}, "{}", InvokeOptions()));
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 2u);
}

TEST_F(FireworksPlatformTest, PythonFunctionJitsAtInstallNotInvoke) {
  auto install = RunSync(env_.sim(), platform_.Install(SimpleFn(Language::kPython)));
  ASSERT_TRUE(install.ok());
  EXPECT_GT(install->jit_time.millis(), 50.0);  // Numba compile at install.
  auto result = RunSync(env_.sim(), platform_.Invoke("hello", "{}", InvokeOptions()));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->exec_stats.jit_compiles, 0u);
}

TEST_F(FireworksPlatformTest, FaasdomFunctionsInstallAndRun) {
  for (const auto bench : fwwork::AllFaasdomBenches()) {
    for (const auto language : {Language::kNodeJs, Language::kPython}) {
      const FunctionSource fn = fwwork::MakeFaasdom(bench, language);
      ASSERT_TRUE(RunSync(env_.sim(), platform_.Install(fn)).ok()) << fn.name;
      auto result = RunSync(env_.sim(), platform_.Invoke(fn.name, "{}", InvokeOptions()));
      ASSERT_TRUE(result.ok()) << fn.name;
      EXPECT_GT(result->total.nanos(), 0) << fn.name;
    }
  }
}

TEST_F(FireworksPlatformTest, DeoptStillCompletesWithVariedSignatures) {
  ASSERT_TRUE(RunSync(env_.sim(), platform_.Install(SimpleFn(Language::kNodeJs))).ok());
  InvokeOptions options;
  options.type_sig = "door-password";  // Differs from the install-time "default".
  auto result = RunSync(env_.sim(), platform_.Invoke("hello", "{}", options));
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->exec_stats.deopts, 1u);
}


// ---------------------------------------------------------------------------
// Pinned timings: every path through FireworksPlatform.
// ---------------------------------------------------------------------------

FunctionSource FactFn() { return fwwork::MakeFaasdom(FaasdomBench::kFact, Language::kNodeJs); }

// The host's live microVMs and network namespaces (the root one included),
// and a digest of every span recorded so far: its name, start, end, parent
// and attributes.
std::string HostState(HostEnv& env, FireworksPlatform& platform) {
  std::string spans;
  for (const fwobs::Span& span : env.tracer().spans()) {
    spans += fwbase::StrFormat("%s %lld %lld %llu", span.name().c_str(),
                               static_cast<long long>(span.start().nanos()),
                               static_cast<long long>(span.end().nanos()),
                               static_cast<unsigned long long>(span.parent_id()));
    for (const auto& [key, value] : span.attributes()) {
      spans += " " + key + "=" + value;
    }
    spans += "\n";
  }
  return fwbase::StrFormat(" | vms=%zu netns=%zu spans=%zu/%016llx",
                           platform.hypervisor().live_vm_count(),
                           env.network().namespace_count(), env.tracer().span_count(),
                           static_cast<unsigned long long>(fwbase::Fnv1a(spans)));
}

// An invocation's fallback flag and DescribeInvocation line, or its status.
std::string Describe(HostEnv& env, FireworksPlatform& platform,
                     const Result<InvocationResult>& r) {
  const std::string line =
      r.ok() ? "fallback=" + std::to_string(r->cold_boot_fallback) + " " +
                   fwtest::DescribeInvocation(env, *r)
             : r.status().ToString();
  return line + HostState(env, platform);
}

// Installs faas-fact; the install's times and the duration of every child of
// its root span, or its status.
std::string InstallFact(HostEnv& env, FireworksPlatform& platform) {
  auto r = RunSync(env.sim(), platform.Install(FactFn()));
  if (!r.ok()) {
    return r.status().ToString() + HostState(env, platform);
  }
  std::string line = fwbase::StrFormat(
      "total=%lld jit=%lld snapshot=%lld bytes=%llu |", static_cast<long long>(r->total.nanos()),
      static_cast<long long>(r->jit_time.nanos()),
      static_cast<long long>(r->snapshot_time.nanos()),
      static_cast<unsigned long long>(r->snapshot_bytes));
  const fwobs::Span* root = nullptr;  // This install's: the last one recorded.
  for (const fwobs::Span& span : env.tracer().spans()) {
    if (span.name() == "fireworks.install") {
      root = &span;
    }
  }
  for (const fwobs::Span* child : env.tracer().ChildrenOf(root->id())) {
    line += " " + child->name() + "=" + std::to_string(child->duration().nanos());
  }
  return line + HostState(env, platform);
}

std::string InvokeFact(HostEnv& env, FireworksPlatform& platform,
                       const InvokeOptions& options = InvokeOptions()) {
  return Describe(env, platform,
                  RunSync(env.sim(), platform.Invoke(FactFn().name, "{}", options)));
}

std::string PrepareFact(HostEnv& env, FireworksPlatform& platform) {
  auto r = RunSync(env.sim(), platform.PrepareClone(FactFn().name));
  return (r.ok() ? "fc_id=" + std::to_string(*r) : r.status().ToString()) +
         HostState(env, platform);
}

// A traced host whose injector runs `plan`, and its platform.
struct PinnedHost {
  explicit PinnedHost(const fwfault::FaultPlan& plan = fwfault::FaultPlan())
      : env(ConfigFor(plan)), platform(env) {
    env.tracer().Enable();
  }
  static HostEnv::Config ConfigFor(const fwfault::FaultPlan& plan) {
    HostEnv::Config config;
    config.fault_plan = plan;
    return config;
  }

  HostEnv env;
  FireworksPlatform platform;
};

// A plan whose `kind` always fires once the host has installed (100 s in).
fwfault::FaultPlan AfterInstall(fwfault::FaultKind kind, uint64_t max_trips) {
  fwfault::FaultPlan plan;
  plan.Set(kind, 1.0, max_trips);
  plan.SetWindow(kind, fwbase::SimTime::Zero() + 100_s, fwbase::SimTime::Max());
  return plan;
}

TEST(FireworksPinnedTimingTest, CleanPathsAreUnchanged) {
  {
    PinnedHost h;
    EXPECT_EQ(InstallFact(h.env, h.platform),
        "total=3748682195 jit=101988529 snapshot=470633818 bytes=247705600 |"
        " install.annotate=0 install.create_vm=81120000 install.boot=1929766400"
        " install.netns=2200000 install.load=1162895304 install.jit=101988529"
        " install.snapshot=470711962 | vms=0 netns=1 spans=11/8a53a9f36debe3e0");
    EXPECT_EQ(InvokeFact(h.env, h.platform),
        "fallback=0 cold=0 attempts=1 startup=17682900 exec=96484123 others=958521"
        " total=115125544 | invoke.frontend=900000 invoke.netns=2200000"
        " invoke.params.produce=400029 invoke.restore=14582900"
        " invoke.params.consume=480029 invoke.exec=96484123 invoke.response=78463 | vms=0"
        " netns=1 spans=24/199e533b35ee084b");
  }
  {
    PinnedHost h;
    InstallFact(h.env, h.platform);
    EXPECT_EQ(PrepareFact(h.env, h.platform),
        "fc_id=1 | vms=1 netns=2 spans=15/19c7e0e9ab76378b");
    EXPECT_EQ(InvokeFact(h.env, h.platform),
        "fallback=0 cold=0 attempts=1 startup=1600058 exec=96484123 others=78463"
        " total=98162644 | invoke.frontend=900000 invoke.params.produce=400029"
        " invoke.params.consume=300029 invoke.exec=96484123 invoke.response=78463 | vms=0"
        " netns=1 spans=23/3a691f783cdcc8d5");
    EXPECT_EQ(PrepareFact(h.env, h.platform),
        "fc_id=2 | vms=1 netns=2 spans=27/a0eb165a12f52221");
    h.platform.ReleaseInstances();
    EXPECT_EQ(HostState(h.env, h.platform), " | vms=0 netns=1 spans=27/a0eb165a12f52221");
  }
  {
    PinnedHost h;
    InstallFact(h.env, h.platform);
    InvokeOptions steady;
    steady.keep_instance = true;
    steady.steady_state = true;
    EXPECT_EQ(InvokeFact(h.env, h.platform, steady),
        "fallback=0 cold=0 attempts=1 startup=17682900 exec=96484123 others=958521"
        " total=115125544 | invoke.frontend=900000 invoke.netns=2200000"
        " invoke.params.produce=400029 invoke.restore=14582900"
        " invoke.params.consume=480029 invoke.exec=96484123 invoke.response=78463 | vms=1"
        " netns=2 spans=24/199e533b35ee084b");
    EXPECT_EQ(fwbase::StrFormat("%.17g", h.platform.MeasurePssBytes()),
        "216555520");
    h.platform.ReleaseInstances();
    EXPECT_EQ(HostState(h.env, h.platform),
        " | vms=0 netns=1 spans=24/199e533b35ee084b");
  }
  {
    PinnedHost h;
    InstallFact(h.env, h.platform);
    const fwbase::SimTime t0 = h.env.sim().Now();
    const Status regenerated =
        RunSync(h.env.sim(), h.platform.RegenerateSnapshot(FactFn().name));
    EXPECT_EQ(regenerated.ToString() + " took=" +
                  std::to_string((h.env.sim().Now() - t0).nanos()) +
                  " version=" + std::to_string(h.platform.SnapshotVersion(FactFn().name)) +
                  HostState(h.env, h.platform),
              "OK took=506277718 version=2 | vms=0 netns=1 spans=13/e40a0572a5216662");
    EXPECT_EQ(InvokeFact(h.env, h.platform),
        "fallback=0 cold=0 attempts=1 startup=17682900 exec=96484123 others=958521"
        " total=115125544 | invoke.frontend=900000 invoke.netns=2200000"
        " invoke.params.produce=400029 invoke.restore=14582900"
        " invoke.params.consume=480029 invoke.exec=96484123 invoke.response=78463 | vms=0"
        " netns=1 spans=26/93d2731d295003fd");
  }
}

// Each fault a FireworksPlatform path recovers from or surfaces, under a plan
// that fires it every time (or for the trips given).
TEST(FireworksPinnedTimingTest, FaultPathsAreUnchanged) {
  using fwfault::FaultKind;
  using fwfault::FaultPlan;
  {
    // Every restore fails its checksum: three attempts, each re-persisting
    // the image, then the cold-boot fallback.
    PinnedHost h(*FaultPlan::Parse("snapshot_corruption=1"));
    InstallFact(h.env, h.platform);
    EXPECT_EQ(InvokeFact(h.env, h.platform),
        "fallback=1 cold=1 attempts=3 startup=4583253915 exec=101084263 others=78463"
        " total=4684416641 | invoke.frontend=900000 invoke.netns=2200000"
        " invoke.params.produce=400029 invoke.restore=0"
        " invoke.snapshot_reinstall=450393818 invoke.retry=13789802 invoke.netns=2200000"
        " invoke.params.produce=400029 invoke.restore=0"
        " invoke.snapshot_reinstall=450393818 invoke.retry=33600868 invoke.netns=2200000"
        " invoke.params.produce=400029 invoke.restore=0"
        " invoke.snapshot_reinstall=450393818 invoke.coldboot.boot=3175981704"
        " invoke.coldboot.exec=101084263 invoke.coldboot.response=78463 | vms=0 netns=1"
        " spans=35/84a3f7c8099417df");
  }
  {
    // Two corrupt restores, then the repaired image restores.
    PinnedHost h(FaultPlan().Set(FaultKind::kSnapshotCorruption, 1.0, 2));
    InstallFact(h.env, h.platform);
    EXPECT_EQ(InvokeFact(h.env, h.platform),
        "fallback=0 cold=0 attempts=3 startup=17708100 exec=96556123 others=954336885"
        " total=1068601108 | invoke.frontend=900000 invoke.netns=2200000"
        " invoke.params.produce=400029 invoke.restore=0"
        " invoke.snapshot_reinstall=450393818 invoke.retry=13789802 invoke.netns=2200000"
        " invoke.params.produce=400029 invoke.restore=0"
        " invoke.snapshot_reinstall=450393818 invoke.retry=33600868 invoke.netns=2200000"
        " invoke.params.produce=400029 invoke.restore=14608100"
        " invoke.params.consume=480029 invoke.exec=96556123 invoke.response=78463 | vms=0"
        " netns=1 spans=36/760784506aaee5d0");
  }
  {
    // NAT exhaustion once, at the install VM's wiring.
    PinnedHost h(FaultPlan().Set(FaultKind::kNetNatExhausted, 1.0, 1));
    EXPECT_EQ(InstallFact(h.env, h.platform),
        "RESOURCE_EXHAUSTED: NAT port allocation failed for 10.200.0.1 | vms=0 netns=1"
        " spans=7/8c4cd75496a1063f");
    EXPECT_EQ(InstallFact(h.env, h.platform),
        "total=3748682195 jit=101988529 snapshot=470633818 bytes=247705600 |"
        " install.annotate=0 install.create_vm=81120000 install.boot=1929766400"
        " install.netns=2200000 install.load=1162895304 install.jit=101988529"
        " install.snapshot=470711962 | vms=0 netns=1 spans=18/f76bb239467823d2");
  }
  {
    // NAT exhaustion once, at a snapshot clone's start...
    PinnedHost h(AfterInstall(FaultKind::kNetNatExhausted, 1));
    InstallFact(h.env, h.platform);
    h.env.sim().RunUntil(fwbase::SimTime::Zero() + 100_s);
    EXPECT_EQ(InvokeFact(h.env, h.platform),
        "fallback=0 cold=0 attempts=2 startup=17682900 exec=96484123 others=16948323"
        " total=131115346 | invoke.frontend=900000 invoke.netns=2200000"
        " invoke.retry=13789802 invoke.netns=2200000 invoke.params.produce=400029"
        " invoke.restore=14582900 invoke.params.consume=480029 invoke.exec=96484123"
        " invoke.response=78463 | vms=0 netns=1 spans=26/c15ebad934ad10bf");
  }
  {
    // ...and at a parked clone's.
    PinnedHost h(AfterInstall(FaultKind::kNetNatExhausted, 1));
    InstallFact(h.env, h.platform);
    h.env.sim().RunUntil(fwbase::SimTime::Zero() + 100_s);
    EXPECT_EQ(PrepareFact(h.env, h.platform),
        "RESOURCE_EXHAUSTED: NAT port allocation failed for 10.200.0.2 | vms=0 netns=1"
        " spans=12/0a5b11c33a64374c");
    EXPECT_EQ(PrepareFact(h.env, h.platform),
        "fc_id=1 | vms=1 netns=2 spans=16/e8293b5978eb2007");
    EXPECT_EQ(InvokeFact(h.env, h.platform),
        "fallback=0 cold=0 attempts=1 startup=1600058 exec=96484123 others=78463"
        " total=98162644 | invoke.frontend=900000 invoke.params.produce=400029"
        " invoke.params.consume=300029 invoke.exec=96484123 invoke.response=78463 | vms=0"
        " netns=1 spans=24/311681ec0de6c97b");
  }
  {
    // The guest crashes in every exec: the snapshot path falls back to a
    // cold boot, and so does an invocation whose attempt 1 ran on a parked
    // clone.
    PinnedHost h(*FaultPlan::Parse("vm_crash_during_exec=1"));
    InstallFact(h.env, h.platform);
    EXPECT_EQ(InvokeFact(h.env, h.platform),
        "fallback=1 cold=1 attempts=3 startup=3277383648 exec=101084263 others=78463"
        " total=3378546374 | invoke.frontend=900000 invoke.netns=2200000"
        " invoke.params.produce=400029 invoke.restore=14582900"
        " invoke.params.consume=480029 invoke.retry=13789802 invoke.netns=2200000"
        " invoke.params.produce=400029 invoke.restore=14680100"
        " invoke.params.consume=480029 invoke.retry=33600868 invoke.netns=2200000"
        " invoke.params.produce=400029 invoke.restore=14608100"
        " invoke.params.consume=480029 invoke.coldboot.boot=3175981704"
        " invoke.coldboot.exec=101084263 invoke.coldboot.response=78463 | vms=0 netns=1"
        " spans=47/d5828d7b8917c3cd");
    EXPECT_EQ(PrepareFact(h.env, h.platform),
        "fc_id=4 | vms=1 netns=2 spans=51/603cc54cfe37125f");
    EXPECT_EQ(InvokeFact(h.env, h.platform),
        "fallback=1 cold=1 attempts=3 startup=3272134685 exec=101084263 others=78463"
        " total=3373297411 | invoke.frontend=900000 invoke.params.produce=400029"
        " invoke.params.consume=300029 invoke.retry=19246929 invoke.netns=2200000"
        " invoke.params.produce=400029 invoke.restore=14647700"
        " invoke.params.consume=480029 invoke.retry=39836078 invoke.netns=2200000"
        " invoke.params.produce=400029 invoke.restore=14662100"
        " invoke.params.consume=480029 invoke.coldboot.boot=3175981704"
        " invoke.coldboot.exec=101084263 invoke.coldboot.response=78463 | vms=0 netns=1"
        " spans=82/7fe0d948a58ddd94");
  }
  {
    // One crash, in a parked clone's exec: attempt 2 restores a fresh clone
    // and serves the request, which is therefore no warm hit.
    PinnedHost h(FaultPlan().Set(FaultKind::kVmCrashDuringExec, 1.0, 1));
    InstallFact(h.env, h.platform);
    EXPECT_EQ(PrepareFact(h.env, h.platform),
        "fc_id=1 | vms=1 netns=2 spans=15/19c7e0e9ab76378b");
    EXPECT_EQ(InvokeFact(h.env, h.platform),
        "fallback=0 cold=0 attempts=2 startup=17780100 exec=96581323 others=15448381"
        " total=129809804 | invoke.frontend=900000 invoke.params.produce=400029"
        " invoke.params.consume=300029 invoke.retry=13789802 invoke.netns=2200000"
        " invoke.params.produce=400029 invoke.restore=14680100"
        " invoke.params.consume=480029 invoke.exec=96581323 invoke.response=78463 | vms=0"
        " netns=1 spans=33/d03b8ca11654a02e");
    EXPECT_EQ(h.env.metrics().GetCounter("fw.warmpool.invoked.count").value(), 0u);
    EXPECT_EQ(h.env.metrics().GetCounter("fw.invoke.retry.count").value(), 1u);
  }
  {
    // Every restore crashes the VMM.
    PinnedHost h(*FaultPlan::Parse("vm_crash_on_resume=1"));
    InstallFact(h.env, h.platform);
    EXPECT_EQ(InvokeFact(h.env, h.platform),
        "fallback=1 cold=1 attempts=3 startup=3271432461 exec=101084263 others=78463"
        " total=3372595187 | invoke.frontend=900000 invoke.netns=2200000"
        " invoke.params.produce=400029 invoke.restore=13120000 invoke.retry=13789802"
        " invoke.netns=2200000 invoke.params.produce=400029 invoke.restore=13120000"
        " invoke.retry=33600868 invoke.netns=2200000 invoke.params.produce=400029"
        " invoke.restore=13120000 invoke.coldboot.boot=3175981704"
        " invoke.coldboot.exec=101084263 invoke.coldboot.response=78463 | vms=0 netns=1"
        " spans=35/1bb5684da557d8d5");
    EXPECT_EQ(PrepareFact(h.env, h.platform),
        "UNAVAILABLE: VMM process crashed restoring fw-faas-fact-nodejs | vms=0 netns=1"
        " spans=37/3a8205a8d455f929");
  }
  {
    // Every args record is dropped: the guest's parameter fetch times out,
    // on a restored and on a parked clone alike.
    PinnedHost h(*FaultPlan::Parse("broker_drop_message=1"));
    InstallFact(h.env, h.platform);
    EXPECT_EQ(InvokeFact(h.env, h.platform),
        "fallback=1 cold=1 attempts=3 startup=4776483561 exec=101084263 others=78463"
        " total=4877646287 | invoke.frontend=900000 invoke.netns=2200000"
        " invoke.params.produce=400029 invoke.restore=14582900"
        " invoke.params.consume=500180000 invoke.retry=13789802 invoke.netns=2200000"
        " invoke.params.produce=400029 invoke.restore=14680100"
        " invoke.params.consume=500180000 invoke.retry=33600868 invoke.netns=2200000"
        " invoke.params.produce=400029 invoke.restore=14608100"
        " invoke.params.consume=500180000 invoke.coldboot.boot=3175981704"
        " invoke.coldboot.exec=101084263 invoke.coldboot.response=78463 | vms=0 netns=1"
        " spans=47/848da4baf4d94d9b");
    EXPECT_EQ(PrepareFact(h.env, h.platform),
        "fc_id=4 | vms=1 netns=2 spans=51/c48ffb86a3ecca99");
    EXPECT_EQ(InvokeFact(h.env, h.platform),
        "fallback=1 cold=1 attempts=3 startup=4771234598 exec=101084263 others=78463"
        " total=4872397324 | invoke.frontend=900000 invoke.params.produce=400029"
        " invoke.params.consume=500000000 invoke.retry=19246929 invoke.netns=2200000"
        " invoke.params.produce=400029 invoke.restore=14647700"
        " invoke.params.consume=500180000 invoke.retry=39836078 invoke.netns=2200000"
        " invoke.params.produce=400029 invoke.restore=14662100"
        " invoke.params.consume=500180000 invoke.coldboot.boot=3175981704"
        " invoke.coldboot.exec=101084263 invoke.coldboot.response=78463 | vms=0 netns=1"
        " spans=82/22418b6d246df0b5");
  }
  {
    // Persisting the post-JIT snapshot fails.
    PinnedHost h(*FaultPlan::Parse("disk_write_error=1"));
    EXPECT_EQ(InstallFact(h.env, h.platform),
        "UNAVAILABLE: snapshot store: write error persisting fw-faas-fact-nodejs | vms=0"
        " netns=1 spans=11/bd7fc1e3b53a22ab");
  }
}

}  // namespace
}  // namespace fwcore
