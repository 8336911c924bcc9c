// Distils a HostCalibration for ModelHost from full-fidelity probe runs.
//
// Fleet-scale simulations (≥1M invocations) cannot afford the per-page
// fidelity of a FullHost (~tens of thousands of events per invocation), so
// ModelHost replays per-invocation costs measured here: a scratch single-host
// simulation runs a handful of real invocations through the complete stack
// (netns, broker, snapshot restore, page faults, guest execution) and the
// phase means become the model's parameters. Calibration is itself seeded and
// deterministic, so model-cluster runs stay bit-identical end to end.
#ifndef FIREWORKS_SRC_CLUSTER_CALIBRATE_H_
#define FIREWORKS_SRC_CLUSTER_CALIBRATE_H_

#include <functional>
#include <memory>

#include "src/cluster/host.h"
#include "src/core/platform.h"
#include "src/lang/function_ir.h"

namespace fwcluster {

// Builds the platform under calibration on a scratch HostEnv. The bench
// supplies this from its platform registry so the cluster library does not
// depend on the baselines.
using PlatformFactory =
    std::function<std::unique_ptr<fwcore::ServerlessPlatform>(fwcore::HostEnv&)>;

struct CalibrationOptions {
  CalibrationOptions() {}

  uint64_t seed = 42;  // Seed of the scratch probe simulation.
};

// Measures `fn` on the platform built by `factory`:
//   * regular-path probes fill cold_{startup,exec,others} (for Fireworks the
//     regular path is the snapshot-restore path; baselines run force_cold);
//   * warm-path probes fill warm_* (parked clones for Fireworks, Prewarm for
//     the baselines) and prepare_cost;
//   * one kept instance / one parked clone fills the marginal PSS numbers.
HostCalibration CalibratePlatform(const PlatformFactory& factory,
                                  const fwlang::FunctionSource& fn,
                                  const CalibrationOptions& options);

}  // namespace fwcluster

#endif  // FIREWORKS_SRC_CLUSTER_CALIBRATE_H_
