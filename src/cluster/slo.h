// Per-app SLO attainment and multi-window burn-rate alerting.
//
// The objective is latency attainment: a request is "good" when it completes
// OK within SloConfig::target; the SLO says at least `objective` of requests
// must be good. The monitor tracks, per app:
//
//   * cumulative attainment (good / total) — the number benches report, and
//   * error-budget burn rate over two sliding windows (SRE-workbook style
//     multi-window multi-burn alerting). Burn rate 1.0 means the app spends
//     its error budget (1 - objective) exactly as fast as it accrues; an
//     alert fires when BOTH the fast and the slow window burn faster than
//     `burn_threshold`. The fast window makes the alert responsive, the slow
//     window keeps a brief blip from paging.
//
// Fed from the cluster front end: Record() on every terminal outcome, Tick()
// from the sampler loop (one tick = one bucket). Everything is driven by the
// simulated clock and per-request outcomes, so alert counts are as
// deterministic as the run itself. Alert state changes surface three ways:
// gauges (slo.burn.fast / slo.burn.slow / slo.attainment), a counter
// (slo.alerts), and an instant "slo.alert" span on the cluster tracer.
#ifndef FIREWORKS_SRC_CLUSTER_SLO_H_
#define FIREWORKS_SRC_CLUSTER_SLO_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/base/units.h"
#include "src/cluster/app_table.h"
#include "src/obs/observability.h"

namespace fwcluster {

using fwbase::Duration;

struct SloConfig {
  SloConfig() {}

  // Per-request end-to-end latency objective.
  Duration target = Duration::Millis(250);
  // Required good fraction; 1 - objective is the error budget.
  double objective = 0.99;
  // Multi-window burn-rate alerting.
  Duration fast_window = Duration::Seconds(5);
  Duration slow_window = Duration::Seconds(60);
  double burn_threshold = 4.0;
};

class SloMonitor {
 public:
  // `tick` is the bucket width: the owner must call Tick() every `tick` of
  // simulated time (the cluster sampler loop does). `apps` names the ids
  // passed to Record(). `apps` and `obs` must outlive the monitor.
  SloMonitor(const AppTable& apps, const SloConfig& config, Duration tick,
             fwobs::Observability& obs);

  // One terminal request outcome. `good` = completed OK within target.
  void Record(AppId app, bool good);

  // Advances the bucket ring, refreshes burn-rate gauges, and fires/clears
  // alerts. Call every `tick` of simulated time.
  void Tick();

  struct AppReport {
    std::string app;
    uint64_t total = 0;
    uint64_t good = 0;
    uint64_t alerts = 0;       // Distinct alert firings (edge-triggered).
    bool alerting = false;     // Currently in the alerting state.
    double burn_fast = 0.0;    // Burn rates as of the last Tick().
    double burn_slow = 0.0;
    double attainment() const {
      return total == 0 ? 1.0 : static_cast<double>(good) / static_cast<double>(total);
    }
  };

  // Per-app reports sorted by app name.
  std::vector<AppReport> Reports() const;
  uint64_t total() const { return total_; }
  uint64_t good() const { return good_; }
  uint64_t alerts() const { return alerts_; }
  // Cumulative attainment across all apps (1.0 when nothing recorded).
  double Attainment() const;
  // Minimum per-app attainment (1.0 when nothing recorded): one starved app
  // cannot hide behind a healthy fleet average.
  double WorstAttainment() const;

  const SloConfig& config() const { return config_; }

 private:
  struct Bucket {
    uint64_t total = 0;
    uint64_t bad = 0;
  };
  struct AppState {
    uint64_t total = 0;
    uint64_t good = 0;
    uint64_t alerts = 0;
    bool alerting = false;
    double burn_fast = 0.0;
    double burn_slow = 0.0;
    // Ring of the last slow_buckets_ ticks; head_ indexes the open bucket.
    std::vector<Bucket> ring;
    // Running sums of the fast_buckets_ newest buckets and of the whole ring
    // (the slow window), open bucket included.
    Bucket fast;
    Bucket slow;
    // The app's slo.* gauges, resolved when the app is first recorded; they
    // read zero until its first Tick().
    fwobs::Gauge* burn_fast_gauge = nullptr;
    fwobs::Gauge* burn_slow_gauge = nullptr;
    fwobs::Gauge* attainment_gauge = nullptr;
  };

  double Burn(const Bucket& window) const;

  const AppTable& app_names_;
  SloConfig config_;
  fwobs::Observability& obs_;
  size_t fast_buckets_;
  size_t slow_buckets_;
  size_t head_ = 0;  // Shared open-bucket index (all rings advance together).
  uint64_t total_ = 0;
  uint64_t good_ = 0;
  uint64_t alerts_ = 0;
  // Ordered by name: tick iteration order (span order, gauge and counter
  // registration) is part of determinism.
  std::map<std::string, AppState> apps_;
  // AppId -> its entry in apps_ (map nodes never move); null until the
  // app's first Record().
  std::vector<AppState*> by_id_;
};

}  // namespace fwcluster

#endif  // FIREWORKS_SRC_CLUSTER_SLO_H_
