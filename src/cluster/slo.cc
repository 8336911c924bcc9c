#include "src/cluster/slo.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/base/strings.h"

namespace fwcluster {

namespace {

size_t BucketsFor(Duration window, Duration tick) {
  FW_CHECK(tick.nanos() > 0);
  const int64_t n = (window.nanos() + tick.nanos() - 1) / tick.nanos();
  return static_cast<size_t>(std::max<int64_t>(n, 1));
}

}  // namespace

SloMonitor::SloMonitor(const AppTable& apps, const SloConfig& config, Duration tick,
                       fwobs::Observability& obs)
    : app_names_(apps),
      config_(config),
      obs_(obs),
      fast_buckets_(BucketsFor(config.fast_window, tick)),
      slow_buckets_(BucketsFor(config.slow_window, tick)) {
  FW_CHECK_MSG(config.objective > 0.0 && config.objective < 1.0,
               "SLO objective must be in (0, 1)");
  slow_buckets_ = std::max(slow_buckets_, fast_buckets_);
}

void SloMonitor::Record(AppId app, bool good) {
  if (app >= by_id_.size()) {
    by_id_.resize(static_cast<size_t>(app) + 1, nullptr);
  }
  if (by_id_[app] == nullptr) {
    const std::string& name = app_names_.name(app);
    AppState& fresh = apps_[name];
    fresh.ring.resize(slow_buckets_);
    fresh.burn_fast_gauge = &obs_.metrics().GetGauge("slo.burn.fast", name);
    fresh.burn_slow_gauge = &obs_.metrics().GetGauge("slo.burn.slow", name);
    fresh.attainment_gauge = &obs_.metrics().GetGauge("slo.attainment", name);
    // Unsampled until the next Tick: read as met, the monitor's no-data value.
    fresh.attainment_gauge->Set(1.0);
    by_id_[app] = &fresh;
  }
  AppState& state = *by_id_[app];
  state.total += 1;
  total_ += 1;
  if (good) {
    state.good += 1;
    good_ += 1;
  }
  // The open bucket lies in both windows.
  for (Bucket* b : {&state.ring[head_], &state.fast, &state.slow}) {
    b->total += 1;
    b->bad += good ? 0 : 1;
  }
}

double SloMonitor::Burn(const Bucket& window) const {
  if (window.total == 0) {
    return 0.0;
  }
  const double error_rate =
      static_cast<double>(window.bad) / static_cast<double>(window.total);
  return error_rate / (1.0 - config_.objective);
}

void SloMonitor::Tick() {
  for (auto& [app, state] : apps_) {
    state.burn_fast = Burn(state.fast);
    state.burn_slow = Burn(state.slow);
    const double attainment =
        state.total == 0 ? 1.0 : static_cast<double>(state.good) / static_cast<double>(state.total);
    // Edge-triggered, with hysteresis on the fast window: the alert fires
    // when both windows burn too hot, and clears once the fast window cools
    // (the slow window alone would hold the alert long after recovery).
    if (!state.alerting && state.burn_fast >= config_.burn_threshold &&
        state.burn_slow >= config_.burn_threshold) {
      state.alerting = true;
      state.alerts += 1;
      alerts_ += 1;
      obs_.metrics().GetCounter("slo.alerts", app).Increment();
      // Instant span: an annotation on the timeline, not a timed region.
      fwobs::ScopedSpan span(&obs_.tracer(), "slo.alert", "slo");
      span.SetAttribute("app", app);
      span.SetAttribute("burn_fast", state.burn_fast);
      span.SetAttribute("burn_slow", state.burn_slow);
      span.SetAttribute("attainment", attainment);
    } else if (state.alerting && state.burn_fast < config_.burn_threshold) {
      state.alerting = false;
      fwobs::ScopedSpan span(&obs_.tracer(), "slo.alert_cleared", "slo");
      span.SetAttribute("app", app);
    }
    state.burn_fast_gauge->Set(state.burn_fast);
    state.burn_slow_gauge->Set(state.burn_slow);
    state.attainment_gauge->Set(attainment);
  }
  // Advance the shared ring head and open a fresh bucket in every app: the
  // oldest fast-window bucket leaves the fast sum, and the bucket reopened
  // as the head leaves the slow sum (with equal windows they are the same
  // bucket, leaving both).
  const size_t fast_oldest = (head_ + slow_buckets_ + 1 - fast_buckets_) % slow_buckets_;
  head_ = (head_ + 1) % slow_buckets_;
  for (auto& [app, state] : apps_) {
    state.fast.total -= state.ring[fast_oldest].total;
    state.fast.bad -= state.ring[fast_oldest].bad;
    state.slow.total -= state.ring[head_].total;
    state.slow.bad -= state.ring[head_].bad;
    state.ring[head_] = Bucket{};
  }
}

std::vector<SloMonitor::AppReport> SloMonitor::Reports() const {
  std::vector<AppReport> reports;
  reports.reserve(apps_.size());
  for (const auto& [app, state] : apps_) {
    AppReport report;
    report.app = app;
    report.total = state.total;
    report.good = state.good;
    report.alerts = state.alerts;
    report.alerting = state.alerting;
    report.burn_fast = state.burn_fast;
    report.burn_slow = state.burn_slow;
    reports.push_back(std::move(report));
  }
  return reports;
}

double SloMonitor::Attainment() const {
  return total_ == 0 ? 1.0 : static_cast<double>(good_) / static_cast<double>(total_);
}

double SloMonitor::WorstAttainment() const {
  double worst = 1.0;
  for (const auto& [app, state] : apps_) {
    if (state.total > 0) {
      worst = std::min(worst,
                       static_cast<double>(state.good) / static_cast<double>(state.total));
    }
  }
  return worst;
}

}  // namespace fwcluster
