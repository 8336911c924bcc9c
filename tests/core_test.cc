// Tests for the Fireworks core: the code annotator transform and the
// platform's install/invoke phases end to end.
#include <gtest/gtest.h>

#include <memory>

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

}  // namespace
}  // namespace fwcore
