// Extension experiment: the §1/§2.2 motivation quantified over time. A fleet
// of functions with Zipf-skewed popularity receives Poisson-arrival requests
// for 30 simulated minutes. OpenWhisk with a 10-minute keep-alive window (the
// classic provider policy) holds warm containers hostage between calls and
// still cold-starts the unpopular tail; Fireworks holds zero sandbox memory
// and serves *every* function at snapshot-resume latency.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/common.h"
#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/base/strings.h"
#include "src/workloads/faasdom.h"

namespace {

using fwbase::Duration;
using fwbase::StrFormat;
using namespace fwbase::literals;

struct TraceResult {
  TraceResult() = default;
  uint64_t requests = 0;
  uint64_t cold = 0;
  double mean_startup_ms = 0.0;
  double p99_startup_ms = 0.0;
  double peak_warm_pool_mib = 0.0;
  double mean_warm_pool_mib = 0.0;
};

TraceResult RunTrace(bool fireworks, int functions, double rate_per_sec, Duration horizon,
                     Duration keep_alive) {
  using namespace fwbench;
  fwcore::HostEnv env;
  std::unique_ptr<fwcore::ServerlessPlatform> platform;
  if (fireworks) {
    platform = std::make_unique<fwcore::FireworksPlatform>(env);
  } else {
    fwbaselines::ContainerPlatform::Params params =
        fwbaselines::OpenWhiskPlatform::MakeParams();
    params.keep_alive = keep_alive;
    platform = std::make_unique<fwbaselines::ContainerPlatform>(env, params);
  }

  std::vector<std::string> names;
  for (int i = 0; i < functions; ++i) {
    fwlang::FunctionSource fn =
        fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency, fwlang::Language::kNodeJs);
    fn.name = StrFormat("fn-%02d", i);
    FW_CHECK(fwsim::RunSync(env.sim(), platform->Install(fn)).ok());
    names.push_back(fn.name);
  }
  const uint64_t base_memory = env.memory().used_bytes();

  // Zipf-skewed popularity over the fleet (§2.2: 18.6 % of functions take
  // nearly all traffic).
  fwbase::Rng rng(2026);
  std::vector<double> cumulative(functions);
  double total_weight = 0.0;
  for (int k = 0; k < functions; ++k) {
    total_weight += 1.0 / (k + 1);
    cumulative[k] = total_weight;
  }

  TraceResult result;
  fwbase::SampleStats startup_ms;
  fwbase::SampleStats pool_mib;
  double peak_pool = 0.0;

  const fwbase::SimTime t0 = env.sim().Now();
  fwbase::SimTime arrival = t0;
  for (;;) {
    arrival = arrival + Duration::SecondsF(rng.Exponential(1.0 / rate_per_sec));
    if (arrival - t0 > horizon) {
      break;
    }
    const double pick = rng.UniformDouble() * total_weight;
    int fn = 0;
    while (cumulative[fn] < pick) {
      ++fn;
    }
    // Drive simulated time to the arrival, letting keep-alive expiries fire.
    env.sim().RunUntil(arrival);
    const double pool =
        static_cast<double>(env.memory().used_bytes() - base_memory) / (1024.0 * 1024.0);
    pool_mib.Add(pool);
    peak_pool = std::max(peak_pool, pool);

    auto r = fwsim::RunSync(env.sim(),
                            platform->Invoke(names[fn], "{}", fwcore::InvokeOptions()));
    FW_CHECK_MSG(r.ok(), r.status().ToString().c_str());
    ++result.requests;
    if (r->cold) {
      ++result.cold;
    }
    startup_ms.Add(r->startup.millis());
  }
  result.mean_startup_ms = startup_ms.mean();
  result.p99_startup_ms = startup_ms.Percentile(99);
  result.peak_warm_pool_mib = peak_pool;
  result.mean_warm_pool_mib = pool_mib.mean();
  platform->ReleaseInstances();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  // No flags: any argument is a usage error.
  const fwbase::Status parsed = fwbench::ParseFlags(argc, argv, {});
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.message().c_str());
    return 2;
  }
  using namespace fwbench;
  std::printf("=== Extension: 30-minute Zipf trace over 30 functions "
              "(1 req/s, 10-min keep-alive) ===\n");

  Table table("Warm-pool residency and start-up latency over the trace",
              {"platform", "requests", "cold starts", "mean startup", "p99 startup",
               "mean pool", "peak pool"});
  struct Row {
    const char* name;
    bool fireworks;
  };
  for (const Row& row : {Row{"openwhisk (10-min keep-alive)", false},
                         Row{"fireworks (snapshots only)", true}}) {
    const TraceResult r = RunTrace(row.fireworks, 30, 1.0, Duration::Seconds(1800),
                                   Duration::Seconds(600));
    table.AddRow({row.name, std::to_string(r.requests),
                  StrFormat("%llu (%.0f%%)", static_cast<unsigned long long>(r.cold),
                            100.0 * r.cold / r.requests),
                  StrFormat("%.1f ms", r.mean_startup_ms),
                  StrFormat("%.1f ms", r.p99_startup_ms),
                  StrFormat("%.0f MiB", r.mean_warm_pool_mib),
                  StrFormat("%.0f MiB", r.peak_warm_pool_mib)});
  }
  table.Print();
  std::printf("\n(the unpopular tail of the Zipf fleet keeps cold-starting on OpenWhisk — its\n"
              " keep-alive window expires between calls — while its popular head pins warm\n"
              " containers in memory. Fireworks: zero resident pool, uniform ~17 ms starts.)\n");
  return 0;
}
