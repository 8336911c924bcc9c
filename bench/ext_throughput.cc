// Extension experiment (beyond the paper's figures): sustained invocation
// throughput under a Poisson arrival burst, Fireworks vs OpenWhisk, through
// the Fig 1 frontend with a bounded invoker pool. Short start-up is not only
// a latency property — it determines how quickly a burst drains when every
// request needs a fresh sandbox (OpenWhisk holds one warm container per
// function; surplus concurrent requests go cold).
#include <cstdio>

#include "bench/common.h"
#include "src/base/strings.h"
#include "src/core/frontend.h"
#include "src/workloads/faasdom.h"

namespace {

struct BurstResult {
  BurstResult() = default;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double drain_seconds = 0.0;
};

BurstResult RunBurst(fwbench::PlatformKind kind, int requests, double rate_per_sec) {
  using namespace fwbench;
  HostEnv env;
  auto platform = MakePlatform(kind, env);
  const fwlang::FunctionSource fn =
      fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency, fwlang::Language::kNodeJs);
  FW_CHECK(fwsim::RunSync(env.sim(), platform->Install(fn)).ok());
  FW_CHECK(fwsim::RunSync(env.sim(), platform->Prewarm(fn.name)).ok());

  fwcore::Frontend::Config config;
  config.invoker_workers = 16;
  fwcore::Frontend frontend(env, *platform, config);

  // Poisson arrivals.
  const fwbase::SimTime t0 = env.sim().Now();
  fwbase::SimTime arrival = t0;
  for (int i = 0; i < requests; ++i) {
    arrival = arrival + fwbase::Duration::SecondsF(env.sim().rng().Exponential(1.0 / rate_per_sec));
    env.sim().ScheduleAt(arrival, [&frontend, &fn] {
      // Fire-and-forget: throughput is measured via frontend.completed().
      (void)frontend.Submit(fn.name, "{}", fwcore::InvokeOptions());
    });
  }
  env.sim().Run();
  FW_CHECK(frontend.completed() == static_cast<uint64_t>(requests));
  BurstResult result;
  result.p50_ms = frontend.latency_ms().Median();
  result.p99_ms = frontend.latency_ms().Percentile(99);
  result.drain_seconds = (env.sim().Now() - t0).seconds();
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
  using fwbase::StrFormat;
  std::printf("=== Extension: burst throughput through the frontend "
              "(faas-netlatency-nodejs, 16 invoker workers) ===\n");

  Table table("300-request Poisson burst at increasing arrival rates",
              {"platform", "rate (req/s)", "p50 latency", "p99 latency", "drain time"});
  for (const double rate : {20.0, 60.0, 120.0}) {
    for (const PlatformKind kind : {PlatformKind::kOpenWhisk, PlatformKind::kFireworks}) {
      const BurstResult r = RunBurst(kind, 300, rate);
      table.AddRow({PlatformName(kind), StrFormat("%.0f", rate),
                    StrFormat("%.1f ms", r.p50_ms), StrFormat("%.1f ms", r.p99_ms),
                    StrFormat("%.2f s", r.drain_seconds)});
    }
    table.AddSeparator();
  }
  table.Print();
  std::printf("\n(OpenWhisk's single warm container serialises the burst — surplus requests\n"
              " cold-start new containers; Fireworks resumes an independent microVM per\n"
              " request at snapshot-restore latency.)\n");
  return 0;
}
