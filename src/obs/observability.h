// The per-host observability bundle: Tracer + MetricsRegistry + Profiler.
//
// HostEnv owns an Observability wired to its Simulation's clock and passes it
// to the constructor of every subsystem (hypervisor, broker, snapshot store,
// host memory); platforms add spans on top. Subsystems hold it by reference
// and have no unwired mode: a unit test that builds one alone passes its own
// Observability, whose tracer and profiler stay off until enabled.
// All three instruments are pure observation: enabling or disabling any of
// them never perturbs event order, the sim clock, or RNG draws.
#ifndef FIREWORKS_SRC_OBS_OBSERVABILITY_H_
#define FIREWORKS_SRC_OBS_OBSERVABILITY_H_

#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/trace.h"

namespace fwobs {

class Observability {
 public:
  explicit Observability(SimClockFn clock) : tracer_(clock), profiler_(std::move(clock)) {
    tracer_.set_profiler(&profiler_);
  }

  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  Profiler& profiler() { return profiler_; }
  const Profiler& profiler() const { return profiler_; }

 private:
  Tracer tracer_;
  MetricsRegistry metrics_;
  Profiler profiler_;
};

}  // namespace fwobs

#endif  // FIREWORKS_SRC_OBS_OBSERVABILITY_H_
