#include "src/cluster/calibrate.h"

#include <utility>

#include "src/base/check.h"
#include "src/core/fireworks.h"
#include "src/simcore/run_sync.h"

namespace fwcluster {

namespace {

// Invocations per path; the calibration takes means over these.
constexpr int kProbes = 5;
static_assert(kProbes > 0);

struct PhaseSums {
  PhaseSums() {}
  Duration startup;
  Duration exec;
  Duration others;
  int n = 0;

  void Add(const fwcore::InvocationResult& r) {
    startup = startup + r.startup;
    exec = exec + r.exec;
    others = others + r.others;
    ++n;
  }
  Duration MeanStartup() const { return Duration::Nanos(startup.nanos() / n); }
  Duration MeanExec() const { return Duration::Nanos(exec.nanos() / n); }
  Duration MeanOthers() const { return Duration::Nanos(others.nanos() / n); }
};

fwsim::Co<Status> RunProbes(fwsim::Simulation& sim, fwcore::ServerlessPlatform& platform,
                            const fwlang::FunctionSource& fn, HostCalibration& cal) {
  auto installed = co_await platform.Install(fn);
  if (!installed.ok()) {
    co_return installed.status();
  }
  auto* fireworks = dynamic_cast<fwcore::FireworksPlatform*>(&platform);

  // Regular path (Fireworks: snapshot restore; baselines: explicit cold).
  fwcore::InvokeOptions cold_options;
  cold_options.force_cold = fireworks == nullptr;
  PhaseSums cold;
  for (int i = 0; i < kProbes; ++i) {
    auto r = co_await platform.Invoke(fn.name, "probe", cold_options);
    if (!r.ok()) {
      co_return r.status();
    }
    cold.Add(*r);
  }
  cal.cold_startup = cold.MeanStartup();
  cal.cold_exec = cold.MeanExec();
  cal.cold_others = cold.MeanOthers();

  // Marginal PSS of one running instance.
  fwcore::InvokeOptions keep_options;
  keep_options.keep_instance = true;
  auto kept = co_await platform.Invoke(fn.name, "probe", keep_options);
  if (!kept.ok()) {
    co_return kept.status();
  }
  cal.instance_pss_bytes = platform.MeasurePssBytes();
  platform.ReleaseInstances();

  // Warm path + prepare cost.
  PhaseSums warm;
  if (fireworks != nullptr) {
    Duration prepare_total;
    for (int i = 0; i < kProbes; ++i) {
      const fwbase::SimTime t0 = sim.Now();
      auto prepared = co_await fireworks->PrepareClone(fn.name);
      if (!prepared.ok()) {
        co_return prepared.status();
      }
      prepare_total = prepare_total + (sim.Now() - t0);
      auto r = co_await platform.Invoke(fn.name, "probe", fwcore::InvokeOptions());
      if (!r.ok()) {
        co_return r.status();
      }
      warm.Add(*r);
    }
    cal.prepare_cost = Duration::Nanos(prepare_total.nanos() / kProbes);
    // Marginal PSS of one parked clone.
    auto prepared = co_await fireworks->PrepareClone(fn.name);
    if (!prepared.ok()) {
      co_return prepared.status();
    }
    cal.pooled_clone_pss_bytes = platform.MeasurePssBytes();  // No kept instance is alive.
    Status discarded = fireworks->DiscardClone(fn.name);
    if (!discarded.ok()) {
      co_return discarded;
    }
  } else {
    // Baselines: a prewarmed sandbox plays the parked clone's role.
    const fwbase::SimTime t0 = sim.Now();
    Status prewarmed = co_await platform.Prewarm(fn.name);
    if (!prewarmed.ok()) {
      co_return prewarmed;
    }
    cal.prepare_cost = sim.Now() - t0;
    for (int i = 0; i < kProbes; ++i) {
      auto r = co_await platform.Invoke(fn.name, "probe", fwcore::InvokeOptions());
      if (!r.ok()) {
        co_return r.status();
      }
      warm.Add(*r);
    }
    cal.pooled_clone_pss_bytes = cal.instance_pss_bytes;
    platform.ReleaseInstances();
  }
  cal.warm_startup = warm.MeanStartup();
  cal.warm_exec = warm.MeanExec();
  cal.warm_others = warm.MeanOthers();
  co_return Status::Ok();
}

}  // namespace

HostCalibration CalibratePlatform(const PlatformFactory& factory,
                                  const fwlang::FunctionSource& fn,
                                  const CalibrationOptions& options) {
  fwsim::Simulation sim(options.seed);
  fwcore::HostEnv::Config env_config;
  fwcore::HostEnv env(sim, env_config);
  std::unique_ptr<fwcore::ServerlessPlatform> platform = factory(env);
  HostCalibration cal;
  Status s = fwsim::RunSync(sim, RunProbes(sim, *platform, fn, cal));
  FW_CHECK_MSG(s.ok(), ("calibration probe failed: " + s.ToString()).c_str());
  return cal;
}

}  // namespace fwcluster
