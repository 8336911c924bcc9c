// Open-loop, seeded load generation for cluster-scale experiments.
//
// Serverless density claims only become decision-relevant under realistic
// arrival processes (Azure Functions traces: heavy-tailed app popularity,
// bursty and diurnal arrival rates). LoadGen produces a deterministic stream
// of (arrival offset, app index) pairs from three arrival models:
//
//   * kPoisson — homogeneous Poisson process at `rate_per_sec`;
//   * kBursty  — a two-state Markov-modulated Poisson process (MMPP-2) that
//     alternates between calm and burst states, normalised so the long-run
//     mean rate still equals `rate_per_sec`;
//   * kDiurnal — a non-homogeneous Poisson process with sinusoidal rate
//     modulation (compressed day/night cycle), sampled by thinning.
//   * kDiurnalFlash — the diurnal curve with periodic flash-crowd windows
//     layered on top (rate multiplied by flash_multiplier inside each
//     window), the elastic-fleet stress trace: slow swings the capacity
//     autoscaler should track plus spikes it must absorb.
//
// App popularity is Zipf-distributed (app 0 is the hottest), matching the
// skew observed in production FaaS traces. Every draw comes from explicitly
// forked RNG streams, so a LoadGen with the same config replays the exact
// same arrival sequence.
#ifndef FIREWORKS_SRC_WORKLOADS_LOADGEN_H_
#define FIREWORKS_SRC_WORKLOADS_LOADGEN_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/units.h"

namespace fwwork {

enum class ArrivalProcess { kPoisson, kBursty, kDiurnal, kDiurnalFlash };

const char* ArrivalProcessName(ArrivalProcess process);
std::optional<ArrivalProcess> ParseArrivalProcess(const std::string& name);

struct LoadGenConfig {
  LoadGenConfig() {}

  ArrivalProcess arrival = ArrivalProcess::kPoisson;
  // Long-run mean arrival rate across the whole cluster, in requests/sec.
  double rate_per_sec = 1000.0;

  // MMPP-2 (kBursty): the burst state multiplies the calm-state rate; state
  // holding times are exponential with these means. The calm rate is derived
  // so the time-weighted mean rate equals rate_per_sec.
  double burst_multiplier = 8.0;
  double mean_burst_seconds = 2.0;
  double mean_calm_seconds = 18.0;

  // kDiurnal: rate(t) = rate_per_sec * (1 + amplitude * sin(2*pi*t/period)).
  // Amplitude must be in [0, 1]. The default period compresses a day into
  // six simulated minutes so benches see several cycles.
  double diurnal_period_seconds = 360.0;
  double diurnal_amplitude = 0.8;

  // kDiurnalFlash: every flash_interval_seconds (measured from
  // flash_offset_seconds), the diurnal rate is multiplied by
  // flash_multiplier for flash_duration_seconds — a compressed flash crowd
  // (product launch, breaking news) on top of the daily cycle.
  double flash_multiplier = 3.0;
  double flash_interval_seconds = 120.0;
  double flash_duration_seconds = 10.0;
  double flash_offset_seconds = 45.0;

  // App popularity: Zipf over `num_apps` apps (app 0 is hottest).
  int num_apps = 64;

  uint64_t seed = 42;
};

struct Arrival {
  Arrival() {}

  // Offset from the generator's start (t = 0); non-decreasing across calls.
  fwbase::Duration offset;
  // App index in [0, num_apps).
  int app = 0;
};

class LoadGen {
 public:
  explicit LoadGen(const LoadGenConfig& config);

  // The next arrival in the stream. Offsets are non-decreasing.
  Arrival Next();

  // Expected fraction of arrivals that target `app` (the Zipf pmf).
  double AppProbability(int app) const;

  const LoadGenConfig& config() const { return config_; }

 private:
  double NextInterarrivalSeconds();
  int SampleApp();

  LoadGenConfig config_;
  fwbase::Rng arrival_rng_;
  fwbase::Rng app_rng_;
  double now_seconds_ = 0.0;
  // MMPP-2 state.
  bool in_burst_ = false;
  double calm_rate_ = 0.0;
  double burst_rate_ = 0.0;
  // Zipf cumulative weights (unnormalised); total is zipf_cdf_.back().
  std::vector<double> zipf_cdf_;
};

}  // namespace fwwork

#endif  // FIREWORKS_SRC_WORKLOADS_LOADGEN_H_
