// Clone-uniqueness bench: what the vmgenid resume protocol costs, and what
// it buys (DESIGN.md §15).
//
// Drives the two warm-restore paths of a full-fidelity FireworksPlatform —
// Invoke on a fresh snapshot restore and Invoke on a clone PrepareClone
// parked — twice: once with Config::restore_uniqueness off (the raw snapshot
// semantics: every clone resumes with the byte-identical RNG stream, request
// id counter and clock base captured at install) and once with it on (every
// restore pays the generation notification, guest RNG reseed and monotonic
// clock rebase before serving traffic).
//
// The bench asserts its own acceptance criteria:
//   - with the fix OFF, request-id collisions are observed (the bug is real
//     and measurable, not hypothetical);
//   - with the fix ON, every invocation mints a distinct request id;
//   - the uniqueness protocol adds at most 5% to the mean warm-restore
//     latency (the ISSUE 9 bound);
//   - same-seed runs are bit-identical.
//
// Flags:
//   --invocations=N  restore+invoke pairs per path per mode  (default 300)
//   --seed=S         simulation seed                         (default 42)
//   --smoke          reduced scale for CI (60 invocations; an explicit
//                    --invocations wins in either order)
//   --report=FILE    write one fwbench/1 report (scripts/bench_trend.py input)
//
// A malformed or out-of-range value exits 2 with a message naming the flag.
#include <cinttypes>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/base/hash.h"
#include "src/base/stats.h"
#include "src/base/strings.h"
#include "src/core/fireworks.h"
#include "src/core/platform.h"
#include "src/simcore/run_sync.h"
#include "src/workloads/faasdom.h"

namespace {

using fwbase::Duration;
using fwbase::SampleStats;
using fwcore::FireworksPlatform;
using fwcore::HostEnv;
using fwcore::InvokeOptions;
using fwsim::RunSync;

struct Options {
  Options() {}
  int invocations = 300;
  uint64_t seed = 42;
  std::string report_path;
};

struct ModeResult {
  ModeResult() {}
  SampleStats warm_restore_ms;   // PrepareClone wall time (netns + restore [+ reseed]).
  SampleStats invoke_startup_ms; // Invoke-path startup (restore [+ reseed]).
  uint64_t invocations = 0;
  uint64_t distinct_ids = 0;
  uint64_t duplicate_ids = 0;
  uint64_t reseeds = 0;
  uint64_t digest = 0;
};

ModeResult RunMode(bool uniqueness, const Options& opt) {
  HostEnv::Config host_config;
  host_config.seed = opt.seed;
  HostEnv env(host_config);
  FireworksPlatform::Config config;
  config.restore_uniqueness = uniqueness;
  FireworksPlatform platform(env, config);

  fwlang::FunctionSource fn =
      fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency, fwlang::Language::kNodeJs);
  fn.name = "uniq-bench";
  {
    const auto installed = RunSync(env.sim(), platform.Install(fn));
    FW_CHECK_MSG(installed.ok(), installed.status().ToString().c_str());
  }

  ModeResult r;
  std::set<uint64_t> seen;
  uint64_t digest = fwbase::kFnvOffsetBasis;
  const auto mix = [&digest](uint64_t v) { digest = fwbase::FnvMix(digest, v); };
  const auto record = [&](uint64_t request_id) {
    ++r.invocations;
    if (seen.insert(request_id).second) {
      ++r.distinct_ids;
    } else {
      ++r.duplicate_ids;
    }
    mix(request_id);
  };

  // Path 1: the snapshot Invoke path. `startup` covers netns + restore and,
  // when enabled, the vmgenid resume protocol.
  for (int i = 0; i < opt.invocations; ++i) {
    const auto result = RunSync(env.sim(), platform.Invoke("uniq-bench", "{}", InvokeOptions()));
    FW_CHECK_MSG(result.ok(), result.status().ToString().c_str());
    r.invoke_startup_ms.Add(result->startup.millis());
    record(result->exec_stats.request_id);
    mix(static_cast<uint64_t>(result->startup.nanos()));
  }

  // Path 2: the warm pool. PrepareClone is the off-critical-path restore the
  // cluster layer pays per parked clone; the reseed lands there.
  for (int i = 0; i < opt.invocations; ++i) {
    const fwbase::SimTime t0 = env.sim().Now();
    const auto prepared = RunSync(env.sim(), platform.PrepareClone("uniq-bench"));
    FW_CHECK_MSG(prepared.ok(), prepared.status().ToString().c_str());
    r.warm_restore_ms.Add((env.sim().Now() - t0).millis());
    const auto result = RunSync(env.sim(), platform.Invoke("uniq-bench", "{}", InvokeOptions()));
    FW_CHECK_MSG(result.ok(), result.status().ToString().c_str());
    record(result->exec_stats.request_id);
  }

  r.reseeds = env.metrics().GetCounter("fw.uniqueness.reseed.count").value();
  r.digest = digest;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  const fwbase::Status parsed = fwbench::ParseFlags(
      argc, argv,
      {fwbench::IntFlag("--invocations", &opt.invocations, 2),  // A collision needs two.
       fwbench::U64Flag("--seed", &opt.seed, 0),
       fwbench::SwitchFlag("--smoke", [&opt] { opt.invocations = 60; }),
       fwbench::PathFlag("--report", &opt.report_path)});
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.message().c_str());
    return 2;
  }

  std::printf("clone_uniqueness: %d invocations per path per mode, seed %" PRIu64 "\n\n",
              opt.invocations, opt.seed);

  const fwbench::WallTimer wall;
  const ModeResult off = RunMode(/*uniqueness=*/false, opt);
  const ModeResult on = RunMode(/*uniqueness=*/true, opt);
  const double wall_seconds = wall.Seconds();

  const double overhead_pct =
      off.warm_restore_ms.mean() > 0.0
          ? (on.warm_restore_ms.mean() - off.warm_restore_ms.mean()) /
                off.warm_restore_ms.mean() * 100.0
          : 0.0;

  fwbench::Table table("vmgenid uniqueness restoration: resume-latency delta",
                       {"mode", "warm restore mean ms", "invoke startup mean ms",
                        "distinct ids", "duplicate ids", "reseeds"});
  for (const auto& [label, m] :
       {std::pair<const char*, const ModeResult&>{"uniqueness-off", off},
        std::pair<const char*, const ModeResult&>{"uniqueness-on", on}}) {
    table.AddRow({label, fwbase::StrFormat("%.4f", m.warm_restore_ms.mean()),
                  fwbase::StrFormat("%.4f", m.invoke_startup_ms.mean()),
                  fwbase::StrFormat("%" PRIu64, m.distinct_ids),
                  fwbase::StrFormat("%" PRIu64, m.duplicate_ids),
                  fwbase::StrFormat("%" PRIu64, m.reseeds)});
  }
  table.Print();
  std::printf("\nuniqueness overhead: %.2f%% on mean warm-restore latency\n", overhead_pct);

  bool ok = true;
  // The bug must be demonstrably red with the fix off: clones replay the
  // snapshot's identity, so "random" request ids collide.
  if (off.duplicate_ids == 0) {
    std::fprintf(stderr, "FAIL: no request-id collision with uniqueness off — the "
                 "detector observed nothing\n");
    ok = false;
  }
  // And green with it on: every invocation minted a fresh id.
  if (on.duplicate_ids != 0 || on.distinct_ids != on.invocations) {
    std::fprintf(stderr, "FAIL: %" PRIu64 " duplicate request ids with uniqueness on\n",
                 on.duplicate_ids);
    ok = false;
  }
  // ISSUE 9 acceptance bound: <= 5% on mean warm-restore latency.
  if (overhead_pct > 5.0) {
    std::fprintf(stderr, "FAIL: uniqueness overhead %.2f%% exceeds the 5%% budget\n",
                 overhead_pct);
    ok = false;
  }
  if (on.reseeds == 0) {
    std::fprintf(stderr, "FAIL: uniqueness on but no reseed protocol ran\n");
    ok = false;
  }

  const auto replay = [&] { return RunMode(/*uniqueness=*/true, opt).digest; };
  if (!fwbench::ReplayIsBitIdentical(opt.seed, "uniqueness-on runs", on.digest, replay)) {
    ok = false;
  }

  if (!opt.report_path.empty()) {
    fwbench::BenchReport report("clone_uniqueness");
    report.AddConfig("invocations", opt.invocations);
    report.AddConfig("seed", opt.seed);
    report.AddGuardedMetric("warm_restore_mean_ms", on.warm_restore_ms.mean(), "lower");
    report.AddGuardedMetric("invoke_startup_mean_ms", on.invoke_startup_ms.mean(), "lower");
    report.AddGuardedMetric("uniqueness_overhead_pct", overhead_pct, "lower");
    report.AddGuardedMetric("distinct_ids", static_cast<double>(on.distinct_ids), "higher");
    report.AddMetric("baseline_warm_restore_mean_ms", off.warm_restore_ms.mean());
    report.AddMetric("baseline_duplicate_ids", static_cast<double>(off.duplicate_ids));
    report.AddMetric("reseeds", static_cast<double>(on.reseeds));
    report.AddMetric("wall_seconds", wall_seconds);  // host-dependent: never guarded
    report.SetDigest(on.digest);
    report.WriteTo(opt.report_path);
  }
  return ok ? 0 : 1;
}
