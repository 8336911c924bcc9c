// Unit tests for the language layer: function IR, runtime cost models, and
// the guest process (tiered JIT, Numba annotation semantics, deopt, snapshot
// clone behaviour, memory layout).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/lang/function_ir.h"
#include "src/lang/guest_process.h"
#include "src/lang/runtime_model.h"
#include "src/mem/host_memory.h"
#include "src/storage/block_device.h"
#include "src/storage/document_db.h"
#include "src/storage/filesystem.h"
#include "tests/test_util.h"

namespace fwlang {
namespace {

using fwbase::Duration;
using fwbase::kKiB;
using fwbase::kMiB;
using fwsim::Simulation;
using fwtest::RunSync;
using fwtest::RunSyncVoid;
using namespace fwbase::literals;

// A compute function: main calls work() `calls` times, each doing `units`.
FunctionSource ComputeFn(Language language, uint64_t calls, uint64_t units) {
  std::vector<MethodDef> methods;
  methods.emplace_back("work", std::vector<Op>{Op::Compute(units)}, 2 * kKiB);
  methods.emplace_back("main",
                       std::vector<Op>{Op::Call("work", calls), Op::AllocHeap(512 * kKiB)},
                       1 * kKiB);
  return FunctionSource("compute-fn", language, std::move(methods), "main", 1 * kMiB);
}

// ---------------------------------------------------------------------------
// Function IR.
// ---------------------------------------------------------------------------

TEST(FunctionIrTest, OpFactories) {
  const Op c = Op::Compute(100);
  EXPECT_EQ(c.kind, OpKind::kCompute);
  EXPECT_EQ(c.amount, 100u);
  const Op d = Op::DiskRead(10 * kKiB, 100);
  EXPECT_EQ(d.repeat, 100u);
  const Op g = Op::DbGet("reminders", "r1");
  EXPECT_EQ(g.target, "reminders/r1");
  const Op call = Op::Call("work", 7);
  EXPECT_EQ(call.kind, OpKind::kCall);
  EXPECT_EQ(call.repeat, 7u);
}

TEST(FunctionIrTest, FindAndTotals) {
  const FunctionSource fn = ComputeFn(Language::kNodeJs, 10, 100);
  EXPECT_TRUE(fn.HasMethod("main"));
  EXPECT_TRUE(fn.HasMethod("work"));
  EXPECT_FALSE(fn.HasMethod("nope"));
  EXPECT_EQ(fn.TotalCodeBytes(), 3 * kKiB);
  EXPECT_EQ(fn.UserMethodNames().size(), 2u);
}

TEST(FunctionIrTest, Names) {
  EXPECT_STREQ(LanguageName(Language::kPython), "python");
  EXPECT_STREQ(OpKindName(OpKind::kDbScan), "db_scan");
}

// ---------------------------------------------------------------------------
// RuntimeCosts.
// ---------------------------------------------------------------------------

TEST(RuntimeCostsTest, NodeVsPythonShapes) {
  const auto node = RuntimeCosts::For(Language::kNodeJs);
  const auto python = RuntimeCosts::For(Language::kPython);
  // Node boots slower but interprets faster.
  EXPECT_GT(node.runtime_boot_cost, python.runtime_boot_cost);
  EXPECT_LT(node.per_unit_interp, python.per_unit_interp);
  // Node tiers automatically; Python only via annotation.
  EXPECT_TRUE(node.auto_jit);
  EXPECT_FALSE(python.auto_jit);
  // Numba compiles are far more expensive but pay off far more.
  EXPECT_GT(python.jit_compile_per_kib, node.jit_compile_per_kib * 5);
  EXPECT_GT(python.jit_speedup, node.jit_speedup);
  // V8 code objects share; Numba duplicates (Fig 12).
  EXPECT_GT(node.jit_code_shareable_fraction, 0.9);
  EXPECT_LT(python.jit_code_shareable_fraction, 0.3);
}

// ---------------------------------------------------------------------------
// GuestProcess fixture.
// ---------------------------------------------------------------------------

class GuestProcessTest : public fwtest::SimTest {
 protected:
  GuestProcessTest() {
    env_ = ExecEnv(&fs_, &db_, nullptr, Duration::Micros(400));
  }

  GuestProcess::FaultCharger Charger() {
    return [](const fwmem::FaultCounts& f) {
      return Duration::Nanos(1500) * static_cast<int64_t>(f.Faults());
    };
  }

  std::unique_ptr<GuestProcess> MakeProcess(Language language, fwmem::AddressSpace& space) {
    return std::make_unique<GuestProcess>(sim_, language, space, env_, Charger());
  }

  // Boots + loads `fn` into a fresh space.
  std::unique_ptr<GuestProcess> BootAndLoad(const FunctionSource& fn,
                                            fwmem::AddressSpace& space) {
    auto process = MakeProcess(fn.language, space);
    RunSyncVoid(sim_, process->BootRuntime());
    RunSyncVoid(sim_, process->LoadApplication(fn));
    return process;
  }

  fwtest::Instruments inst_{sim_};
  fwmem::HostMemory host_{64_GiB, inst_.obs};
  fwstore::BlockDevice dev_{sim_, fwstore::BlockDevice::Config{}, inst_.injector};
  fwstore::Filesystem fs_{sim_, dev_, fwstore::FsKind::kVirtio};
  fwstore::DocumentDb db_{sim_, fs_};
  ExecEnv env_;
};

TEST_F(GuestProcessTest, BootDirtiesRuntimeSegments) {
  fwmem::AddressSpace space(host_);
  auto process = MakeProcess(Language::kNodeJs, space);
  EXPECT_FALSE(process->runtime_booted());
  const auto t0 = sim_.Now();
  RunSyncVoid(sim_, process->BootRuntime());
  EXPECT_TRUE(process->runtime_booted());
  EXPECT_GT((sim_.Now() - t0).millis(), 300.0);
  EXPECT_TRUE(space.HasSegment(kSegRuntimeText));
  EXPECT_TRUE(space.HasSegment(kSegRuntimeHeap));
  const auto node = RuntimeCosts::For(Language::kNodeJs);
  EXPECT_EQ(space.uss_bytes(), node.runtime_text_bytes + node.runtime_boot_heap_bytes);
}

TEST_F(GuestProcessTest, LoadRequiresBoot) {
  fwmem::AddressSpace space(host_);
  auto process = MakeProcess(Language::kNodeJs, space);
  const FunctionSource fn = ComputeFn(Language::kNodeJs, 1, 1);
  EXPECT_DEATH(RunSyncVoid(sim_, process->LoadApplication(fn)), "booted runtime");
}

TEST_F(GuestProcessTest, LoadAllocatesBytecode) {
  fwmem::AddressSpace space(host_);
  const FunctionSource fn = ComputeFn(Language::kNodeJs, 1, 1);
  auto process = BootAndLoad(fn, space);
  EXPECT_TRUE(process->app_loaded());
  EXPECT_TRUE(space.HasSegment(kSegBytecode));
  EXPECT_TRUE(space.HasSegment(kSegAppHeap));
}

TEST_F(GuestProcessTest, InstallPackagesCostScalesWithSize) {
  fwmem::AddressSpace space(host_);
  auto process = MakeProcess(Language::kNodeJs, space);
  FunctionSource fn = ComputeFn(Language::kNodeJs, 1, 1);
  fn.package_bytes = 10 * kMiB;
  const auto t0 = sim_.Now();
  RunSyncVoid(sim_, process->InstallPackages(fn));
  // 10 MiB at 340 ms/MiB ≈ 3.4 s.
  EXPECT_GT((sim_.Now() - t0).seconds(), 3.0);
}

// --- Node.js tiering ------------------------------------------------------

TEST_F(GuestProcessTest, NodeTiersUpAfterThreshold) {
  fwmem::AddressSpace space(host_);
  const FunctionSource fn = ComputeFn(Language::kNodeJs, 100, 10'000);
  auto process = BootAndLoad(fn, space);
  EXPECT_EQ(process->TierOf("work"), ExecTier::kInterpreter);
  ExecStats stats = RunSync(sim_, process->CallMethod("main", "default"));
  // "work" ran 100 times: it must have crossed the threshold and compiled.
  EXPECT_EQ(process->TierOf("work"), ExecTier::kJit);
  EXPECT_GE(stats.jit_compiles, 1u);
  EXPECT_EQ(process->InvocationCount("work"), 100u);
  EXPECT_GT(space.SegmentPages(space.SegmentByName(kSegJitCode)), 0u);
}

TEST_F(GuestProcessTest, NodeJitSpeedsUpSecondInvocation) {
  fwmem::AddressSpace space(host_);
  const FunctionSource fn = ComputeFn(Language::kNodeJs, 100, 10'000);
  auto process = BootAndLoad(fn, space);
  ExecStats cold = RunSync(sim_, process->CallMethod("main", "default"));
  ExecStats warm = RunSync(sim_, process->CallMethod("main", "default"));
  EXPECT_GT(cold.total, warm.total);
  EXPECT_EQ(warm.jit_compiles, 0u);
  // Warm compute is close to 1/speedup of pure-interp time.
  EXPECT_LT(warm.compute_time, cold.compute_time);
}

TEST_F(GuestProcessTest, NodeFewCallsStayInterpreted) {
  fwmem::AddressSpace space(host_);
  const FunctionSource fn = ComputeFn(Language::kNodeJs, 2, 10'000);  // Below threshold.
  auto process = BootAndLoad(fn, space);
  ExecStats stats = RunSync(sim_, process->CallMethod("main", "default"));
  EXPECT_EQ(process->TierOf("work"), ExecTier::kInterpreter);
  EXPECT_EQ(stats.jit_compiles, 0u);
}

// --- Python / Numba semantics ----------------------------------------------

TEST_F(GuestProcessTest, PythonNeverAutoJits) {
  fwmem::AddressSpace space(host_);
  const FunctionSource fn = ComputeFn(Language::kPython, 200, 10'000);
  auto process = BootAndLoad(fn, space);
  RunSync(sim_, process->CallMethod("main", "default"));
  EXPECT_EQ(process->TierOf("work"), ExecTier::kInterpreter);
  EXPECT_EQ(process->jit_code_bytes_used(), 0u);
}

TEST_F(GuestProcessTest, PythonAnnotatedMethodCompilesOnFirstCall) {
  fwmem::AddressSpace space(host_);
  FunctionSource fn = ComputeFn(Language::kPython, 50, 10'000);
  for (auto& m : fn.methods) {
    m.jit_annotated = true;  // @jit(cache=True) on every method.
  }
  auto process = BootAndLoad(fn, space);
  ExecStats stats = RunSync(sim_, process->CallMethod("main", "default"));
  EXPECT_EQ(process->TierOf("work"), ExecTier::kJit);
  EXPECT_GE(stats.jit_compiles, 2u);  // main + work.
  EXPECT_GT(stats.jit_compile_time.millis(), 50.0);  // LLVM is slow.
}

TEST_F(GuestProcessTest, PythonJitGivesLargeSpeedup) {
  fwmem::AddressSpace space_interp(host_);
  const FunctionSource interp_fn = ComputeFn(Language::kPython, 50, 100'000);
  auto interp = BootAndLoad(interp_fn, space_interp);
  ExecStats interp_stats = RunSync(sim_, interp->CallMethod("main", "default"));

  fwmem::AddressSpace space_jit(host_);
  FunctionSource jit_fn = ComputeFn(Language::kPython, 50, 100'000);
  for (auto& m : jit_fn.methods) {
    m.jit_annotated = true;
  }
  auto jit = BootAndLoad(jit_fn, space_jit);
  RunSync(sim_, jit->CallMethod("main", "default"));  // Pays compile.
  ExecStats jit_stats = RunSync(sim_, jit->CallMethod("main", "default"));
  // Default ops are 0.95 JIT-friendly: effective speedup ≈ 1/(0.95/70+0.05).
  EXPECT_GT(interp_stats.compute_time / jit_stats.compute_time, 12.0);
}

// --- De-optimisation --------------------------------------------------------

TEST_F(GuestProcessTest, TypeChangeTriggersDeopt) {
  fwmem::AddressSpace space(host_);
  FunctionSource fn = ComputeFn(Language::kNodeJs, 100, 10'000);
  for (auto& m : fn.methods) {
    m.jit_annotated = true;
  }
  auto process = BootAndLoad(fn, space);
  RunSync(sim_, process->CallMethod("main", "int"));
  EXPECT_EQ(process->TierOf("work"), ExecTier::kJit);
  ExecStats stats = RunSync(sim_, process->CallMethod("main", "string"));
  EXPECT_GE(stats.deopts, 1u);
  // Annotated methods recompile immediately for the new signature.
  EXPECT_EQ(process->TierOf("work"), ExecTier::kJit);
  // Same signature again: no more deopts.
  ExecStats stable = RunSync(sim_, process->CallMethod("main", "string"));
  EXPECT_EQ(stable.deopts, 0u);
}

TEST_F(GuestProcessTest, DeoptStillFasterThanInterpOverall) {
  // §6: evaluations use varied arguments and still always improve.
  fwmem::AddressSpace jit_space(host_);
  FunctionSource fn = ComputeFn(Language::kNodeJs, 100, 10'000);
  for (auto& m : fn.methods) {
    m.jit_annotated = true;
  }
  auto jitted = BootAndLoad(fn, jit_space);
  RunSync(sim_, jitted->CallMethod("main", "sigA"));
  ExecStats deopt_run = RunSync(sim_, jitted->CallMethod("main", "sigB"));

  fwmem::AddressSpace interp_space(host_);
  const FunctionSource plain = ComputeFn(Language::kNodeJs, 2, 500'000);
  auto interp = BootAndLoad(plain, interp_space);
  ExecStats interp_run = RunSync(sim_, interp->CallMethod("main", "sigA"));
  // Same total units (100*10k vs 2*500k): the deopt run must still win.
  EXPECT_LT(deopt_run.compute_time + deopt_run.jit_compile_time, interp_run.compute_time);
}

// --- Interpreter pin ----------------------------------------------------------
//
// Every op kind, with kCalls nested four methods deep (main -> mid -> leaf ->
// tip) and repeated. Each invocation's ExecStats, the clock and the event
// count are pinned to the nanosecond, so any change to the interpreter's
// order of work, its charges or its suspensions shows up here.

FunctionSource EveryOpFn(Language language) {
  std::vector<MethodDef> methods;
  methods.emplace_back("tip", std::vector<Op>{Op::Compute(700, 0.8)}, 1 * kKiB);
  methods.emplace_back(
      "leaf", std::vector<Op>{Op::Compute(2'000), Op::AllocHeap(24 * kKiB), Op::Call("tip", 2)},
      3 * kKiB);
  methods.emplace_back("mid",
                       std::vector<Op>{Op::Compute(5'000, 0.5), Op::Call("leaf", 3),
                                       Op::DiskWrite(8 * kKiB, 2)},
                       2 * kKiB);
  methods.emplace_back(
      "main",
      std::vector<Op>{Op::Compute(10'000), Op::AllocHeap(64 * kKiB), Op::Call("mid", 2),
                      Op::DiskRead(16 * kKiB, 3), Op::NetSend(1'500), Op::DbPut("docs", 2 * kKiB),
                      Op::DbGet("docs", "doc-1"), Op::DbScan("docs"), Op::Call("leaf")},
      4 * kKiB);
  return FunctionSource("every-op", language, std::move(methods), "main");
}

fwsim::Co<void> SendOverLink(Simulation& sim, uint64_t bytes) {
  co_await fwsim::Delay(sim, Duration::Micros(30) + Duration::Nanos(static_cast<int64_t>(bytes)));
}

std::string Pin(const ExecStats& s, const Simulation& sim) {
  return fwbase::StrFormat(
      "total=%lld compute=%lld io=%lld jit=%lld fault=%lld compiles=%llu deopts=%llu "
      "methods=%llu id=%016llx rand=%016llx mono=%lld now=%lld events=%llu",
      static_cast<long long>(s.total.nanos()), static_cast<long long>(s.compute_time.nanos()),
      static_cast<long long>(s.io_time.nanos()),
      static_cast<long long>(s.jit_compile_time.nanos()),
      static_cast<long long>(s.fault_time.nanos()), static_cast<unsigned long long>(s.jit_compiles),
      static_cast<unsigned long long>(s.deopts),
      static_cast<unsigned long long>(s.methods_executed),
      static_cast<unsigned long long>(s.request_id),
      static_cast<unsigned long long>(s.first_random),
      static_cast<long long>(s.guest_monotonic_ns), static_cast<long long>(sim.Now().nanos()),
      static_cast<unsigned long long>(sim.events_processed()));
}

TEST_F(GuestProcessTest, NodeEveryOpPinnedThroughTierUpAndDeopts) {
  env_.net_send = [this](uint64_t bytes) { return SendOverLink(sim_, bytes); };
  fwmem::AddressSpace space(host_);
  const FunctionSource fn = EveryOpFn(Language::kNodeJs);
  auto process = BootAndLoad(fn, space);
  // Three "int" calls tier leaf, tip and then mid up; "str" deopts all three
  // and re-profiles them; "obj" deopts leaf and tip a second time, which
  // leaves them polymorphic.
  const std::vector<std::string> sigs = {"int", "int", "int", "str", "str", "obj", "obj"};
  const std::vector<std::string> want = {
      "total=14368432 compute=611009 io=3253923 jit=10400000 fault=103500 compiles=2 deopts=0 "
      "methods=24 id=b79b81041f9e968e rand=3870568eed7129a2 mono=135512000 now=489832432 "
      "events=97",
      "total=3767340 compute=425134 io=3255206 jit=0 fault=87000 compiles=0 deopts=0 "
      "methods=24 id=cf7de1f7ee4df99c rand=457b6233bbe85a0b mono=149880432 now=493599772 "
      "events=184",
      "total=8938345 compute=387356 io=3256489 jit=5200000 fault=94500 compiles=1 deopts=0 "
      "methods=24 id=ce5652f39d840d82 rand=43e735beae210f3c mono=153647772 now=502538117 "
      "events=273",
      "total=6062956 compute=648184 io=3257772 jit=1560000 fault=87000 compiles=2 deopts=3 "
      "methods=24 id=f2068dbeaba8a4b2 rand=7e227c9805decd45 mono=162586117 now=508601073 "
      "events=367",
      "total=3771189 compute=425134 io=3259055 jit=0 fault=87000 compiles=0 deopts=0 "
      "methods=24 id=443694d727dbe80d rand=69fbeef5d6e2c1b3 mono=168649073 now=512372262 "
      "events=454",
      "total=16169096 compute=506758 io=3260338 jit=11960000 fault=102000 compiles=3 deopts=2 "
      "methods=24 id=54792982997ef8f9 rand=09eef8bb114ef506 mono=172420262 now=528541358 "
      "events=549",
      "total=4341699 compute=213078 io=3261621 jit=780000 fault=87000 compiles=1 deopts=0 "
      "methods=24 id=b2d17e58cd190933 rand=d4eff84a93937563 mono=188589358 now=532883057 "
      "events=638",
  };
  ASSERT_EQ(want.size(), sigs.size());
  for (size_t i = 0; i < sigs.size(); ++i) {
    const ExecStats stats = RunSync(sim_, process->CallMethod("main", sigs[i]));
    EXPECT_EQ(Pin(stats, sim_), want[i]) << "invocation " << i;
  }
  EXPECT_EQ(process->TierOf("leaf"), ExecTier::kJit);
  EXPECT_EQ(process->InvocationCount("main"), 7u);
  EXPECT_EQ(db_.DocCount("docs"), 7u);
}

TEST_F(GuestProcessTest, PythonEveryOpPinnedWithAnnotatedLeaf) {
  fwmem::AddressSpace space(host_);
  FunctionSource fn = EveryOpFn(Language::kPython);
  for (auto& m : fn.methods) {
    m.jit_annotated = m.name == "leaf";
  }
  auto process = BootAndLoad(fn, space);
  const std::vector<std::string> sigs = {"int", "int", "str"};
  const std::vector<std::string> want = {
      "total=174710553 compute=4593130 io=3302423 jit=165000000 fault=1815000 compiles=1 "
      "deopts=0 methods=24 id=b79b81041f9e968e rand=3870568eed7129a2 mono=48507500 "
      "now=327818053 events=95",
      "total=7983836 compute=4593130 io=3303706 jit=0 fault=87000 compiles=0 deopts=0 "
      "methods=24 id=cf7de1f7ee4df99c rand=457b6233bbe85a0b mono=223218053 now=335801889 "
      "events=182",
      "total=33055119 compute=4593130 io=3304989 jit=24750000 fault=87000 compiles=1 deopts=1 "
      "methods=24 id=ce5652f39d840d82 rand=43e735beae210f3c mono=231201889 now=368857008 "
      "events=272",
  };
  ASSERT_EQ(want.size(), sigs.size());
  for (size_t i = 0; i < sigs.size(); ++i) {
    const ExecStats stats = RunSync(sim_, process->CallMethod("main", sigs[i]));
    EXPECT_EQ(Pin(stats, sim_), want[i]) << "invocation " << i;
  }
  EXPECT_EQ(process->TierOf("leaf"), ExecTier::kJit);
  EXPECT_EQ(process->TierOf("mid"), ExecTier::kInterpreter);
}

TEST_F(GuestProcessTest, SelfRecursiveMethodDiesAtDepthLimit) {
  std::vector<MethodDef> methods;
  methods.emplace_back("again", std::vector<Op>{Op::Compute(10), Op::Call("again")});
  const FunctionSource fn("recursive", Language::kNodeJs, std::move(methods), "again");
  fwmem::AddressSpace space(host_);
  auto process = BootAndLoad(fn, space);
  EXPECT_DEATH(RunSync(sim_, process->CallMethod("again", "int")),
               "method call depth exceeded");
}

// --- Snapshot clones --------------------------------------------------------

TEST_F(GuestProcessTest, CloneKeepsJitStateAndSharesCodePages) {
  fwmem::AddressSpace space(host_);
  FunctionSource fn = ComputeFn(Language::kNodeJs, 100, 10'000);
  for (auto& m : fn.methods) {
    m.jit_annotated = true;
  }
  auto process = BootAndLoad(fn, space);
  // The platform's JIT pass would call __fireworks_jit; calling main directly
  // exercises the same compile-then-snapshot flow here.
  RunSync(sim_, process->CallMethod("main", "default"));
  auto image = space.TakeSnapshot("post-jit");
  image->set_cache_warm(true);

  fwmem::AddressSpace clone_space(host_, image);
  auto clone = process->CloneFor(clone_space, Charger());
  EXPECT_TRUE(clone->runtime_booted());
  EXPECT_TRUE(clone->app_loaded());
  EXPECT_EQ(clone->TierOf("work"), ExecTier::kJit);

  ExecStats stats = RunSync(sim_, clone->CallMethod("main", "default"));
  EXPECT_EQ(stats.jit_compiles, 0u);  // Already compiled in the image.
  // Node: nearly all JIT code pages read shared, few CoW copies.
  const auto seg_stats = clone_space.PerSegmentStats();
  for (const auto& s : seg_stats) {
    if (s.name == kSegJitCode) {
      EXPECT_GT(s.resident_shared, 0u);
    }
  }
}

TEST_F(GuestProcessTest, PythonCloneDuplicatesJitCode) {
  fwmem::AddressSpace space(host_);
  FunctionSource fn = ComputeFn(Language::kPython, 10, 10'000);
  for (auto& m : fn.methods) {
    m.jit_annotated = true;
  }
  auto process = BootAndLoad(fn, space);
  RunSync(sim_, process->CallMethod("main", "default"));
  auto image = space.TakeSnapshot("post-jit-py");
  image->set_cache_warm(true);

  fwmem::AddressSpace clone_space(host_, image);
  auto clone = process->CloneFor(clone_space, Charger());
  RunSync(sim_, clone->CallMethod("main", "default"));
  // Numba relocation dirtied most JIT pages: private copies in the clone.
  uint64_t jit_private = 0;
  uint64_t jit_shared = 0;
  for (const auto& s : clone_space.PerSegmentStats()) {
    if (s.name == kSegJitCode) {
      jit_private = s.private_pages;
      jit_shared = s.resident_shared;
    }
  }
  EXPECT_GT(jit_private, jit_shared);
}

TEST_F(GuestProcessTest, ClonesOfNodeShareMoreThanClonesOfPython) {
  auto run_language = [&](Language language, bool annotate) -> double {
    fwmem::AddressSpace space(host_);
    FunctionSource fn = ComputeFn(language, 100, 10'000);
    if (annotate) {
      for (auto& m : fn.methods) {
        m.jit_annotated = true;
      }
    }
    auto process = BootAndLoad(fn, space);
    RunSync(sim_, process->CallMethod("main", "default"));
    auto image = space.TakeSnapshot(std::string("img-") + LanguageName(language));
    image->set_cache_warm(true);

    // PSS only drops below RSS with at least two sharers.
    fwmem::AddressSpace clone_space_a(host_, image);
    fwmem::AddressSpace clone_space_b(host_, image);
    auto clone_a = process->CloneFor(clone_space_a, Charger());
    auto clone_b = process->CloneFor(clone_space_b, Charger());
    clone_b->set_mem_salt(99);
    RunSync(sim_, clone_a->CallMethod("main", "default"));
    RunSync(sim_, clone_b->CallMethod("main", "default"));
    return clone_space_a.pss_bytes() / static_cast<double>(clone_space_a.rss_bytes());
  };
  const double node_pss_ratio = run_language(Language::kNodeJs, true);
  const double python_pss_ratio = run_language(Language::kPython, true);
  // Lower PSS/RSS ⇒ more sharing. Node must share better.
  EXPECT_LT(node_pss_ratio, python_pss_ratio);
}

// --- Parameterized compute-scaling sweep -----------------------------------

class ComputeScaleTest : public ::testing::TestWithParam<double> {};

TEST_P(ComputeScaleTest, ScaleMultipliesComputeTime) {
  Simulation sim;
  fwtest::Instruments inst(sim);
  fwmem::HostMemory host(8_GiB, inst.obs);
  fwstore::BlockDevice dev(sim, fwstore::BlockDevice::Config{}, inst.injector);
  fwstore::Filesystem fs(sim, dev, fwstore::FsKind::kOverlayFs);
  ExecEnv env(&fs, nullptr, nullptr, Duration::Micros(400));
  auto charger = [](const fwmem::FaultCounts& f) {
    return Duration::Nanos(1500) * static_cast<int64_t>(f.Faults());
  };

  fwmem::AddressSpace base_space(host);
  const FunctionSource fn = ComputeFn(Language::kNodeJs, 2, 100'000);
  GuestProcess base(sim, Language::kNodeJs, base_space, env, charger, 1.0);
  RunSyncVoid(sim, base.BootRuntime());
  RunSyncVoid(sim, base.LoadApplication(fn));
  const ExecStats s1 = RunSync(sim, base.CallMethod("main", "d"));

  fwmem::AddressSpace scaled_space(host);
  GuestProcess scaled(sim, Language::kNodeJs, scaled_space, env, charger, GetParam());
  RunSyncVoid(sim, scaled.BootRuntime());
  RunSyncVoid(sim, scaled.LoadApplication(fn));
  const ExecStats s2 = RunSync(sim, scaled.CallMethod("main", "d"));

  EXPECT_NEAR(s2.compute_time / s1.compute_time, GetParam(), 0.01);
}

INSTANTIATE_TEST_SUITE_P(Scales, ComputeScaleTest, ::testing::Values(1.0, 1.18, 1.5, 2.0));

}  // namespace
}  // namespace fwlang
