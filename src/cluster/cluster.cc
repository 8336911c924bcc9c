#include "src/cluster/cluster.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "src/base/check.h"
#include "src/base/hash.h"
#include "src/base/strings.h"

namespace fwcluster {
namespace {

constexpr int kVnodesPerHost = 64;
// Warm-pool autoscaler (and ZoneSpreader) cadence, rate-EWMA weight,
// Little's-law headroom, and the cap on parked clones per host × app.
constexpr Duration kAutoscaleInterval = Duration::Seconds(1);
constexpr double kAutoscaleEwmaAlpha = 0.3;
constexpr double kAutoscaleSafety = 1.5;
constexpr int kMaxPoolPerApp = 8;
// Sampling period for the cluster-wide memory/density gauges, the
// fleet-wide rollup gauges, and the SLO monitor's bucket ring.
constexpr Duration kSampleInterval = Duration::Millis(250);
// Retry budget: tokens deposited per accepted first attempt, bucket size.
constexpr double kRetryBudgetRatio = 0.1;
constexpr double kRetryBudgetBurst = 10.0;
// Hedge trigger: this quantile of the last kHedgeWindow completed latencies,
// once kHedgeMinSamples are in. A window, not run-cumulative stats, so the
// delay tracks the current tail instead of staying inflated by every
// overload episode the run has ever seen.
constexpr double kHedgeQuantile = 99.0;
constexpr size_t kHedgeMinSamples = 50;
constexpr size_t kHedgeWindow = 1024;
// Warm clones parked per app during a cold host's join warm-up, before the
// host is admitted to the scheduler ring.
constexpr int kJoinWarmClones = 1;

}  // namespace

Cluster::Cluster(fwsim::Simulation& sim, std::vector<std::unique_ptr<ClusterHost>> hosts,
                 const Config& config)
    : sim_(sim),
      config_(config),
      obs_([this] { return sim_.Now(); }),
      slo_(apps_, config.slo, kSampleInterval, obs_),
      scheduler_(MakeScheduler(config.policy, static_cast<int>(hosts.size()), kVnodesPerHost)),
      health_(std::make_unique<FailureDetector>(static_cast<int>(hosts.size()),
                                                config.health, sim.Now())),
      admission_(static_cast<int>(hosts.size()), config.workers_per_host,
                 config.admission),
      retry_budget_(config.retry_budget, kRetryBudgetRatio, kRetryBudgetBurst),
      injector_(sim, config.fault_plan, config.fault_seed) {
  FW_CHECK(!hosts.empty());
  FW_CHECK(config.workers_per_host > 0);
  fwobs::MetricsRegistry& metrics = obs_.metrics();
  submitted_ = &metrics.GetCounter("cluster.submitted");
  completed_ = &metrics.GetCounter("cluster.completed");
  failed_ = &metrics.GetCounter("cluster.failed");
  warm_hits_ = &metrics.GetCounter("cluster.warm_hits");
  retries_ = &metrics.GetCounter("cluster.retries");
  zombie_discards_ = &metrics.GetCounter("cluster.zombie_discards");
  shed_ = &metrics.GetCounter("cluster.shed");
  expired_ = &metrics.GetCounter("cluster.expired");
  retry_budget_denied_ = &metrics.GetCounter("cluster.retry_budget_denied");
  hedges_ = &metrics.GetCounter("cluster.hedges");
  hedge_wins_ = &metrics.GetCounter("cluster.hedge_wins");
  hedge_discards_ = &metrics.GetCounter("cluster.hedge_discards");
  suspects_ = &metrics.GetCounter("cluster.suspects");
  detector_deaths_ = &metrics.GetCounter("cluster.detector_deaths");
  reinstated_ = &metrics.GetCounter("cluster.reinstated");
  brownout_discards_ = &metrics.GetCounter("cluster.brownout_discards");
  host_crashes_ = &metrics.GetCounter("cluster.host_crashes");
  host_restarts_ = &metrics.GetCounter("cluster.host_restarts");
  host_partitions_ = &metrics.GetCounter("cluster.host_partitions");
  zone_outages_ = &metrics.GetCounter("cluster.zone_outages");
  hosts_added_ = &metrics.GetCounter("cluster.hosts_added");
  hosts_admitted_ = &metrics.GetCounter("cluster.hosts_admitted");
  hosts_removed_ = &metrics.GetCounter("cluster.hosts_removed");
  hosts_decommissioned_ = &metrics.GetCounter("cluster.hosts_decommissioned");
  // Attribute the shared simulation's dispatch cost to the cluster profiler
  // (disabled by default: one branch per event until someone Enables it).
  sim_.set_profiler(&obs_.profiler());
  dispatch_scope_ = obs_.profiler().RegisterScope("cluster.dispatch");
  invoke_scope_ = obs_.profiler().RegisterScope("cluster.worker.invoke");
  if (config.distribution.enabled) {
    distribution_ = std::make_unique<SnapshotDistribution>(
        sim, apps_, static_cast<int>(hosts.size()), config.distribution, obs_, injector_);
  }
  FW_CHECK(config.num_zones >= 1);
  hosts_.reserve(hosts.size());
  for (size_t i = 0; i < hosts.size(); ++i) {
    // Initial hosts stripe over the zones; later joins fill the emptiest.
    ProvisionHost(std::move(hosts[i]), static_cast<int>(i) % config_.num_zones,
                  HostLifecycle::kActive);
  }
  sim_.Spawn(Sampler());
  // Every elastic-fleet service is gated so a default config spawns nothing
  // extra and stays event-for-event identical to the pre-fleet cluster.
  if (config_.fleet.enabled) {
    FW_CHECK_MSG(config_.host_factory != nullptr,
                 "Config::fleet.enabled requires Config::host_factory");
    fleet_planner_ =
        std::make_unique<FleetPlanner>(config_.fleet, config_.workers_per_host);
    sim_.Spawn(FleetAutoscaler());
  }
  if (config_.num_zones > 1 && config_.autoscale) {
    sim_.Spawn(ZoneSpreader());
  }
  if (config_.fault_plan.spec(fwfault::FaultKind::kZoneOutage).enabled()) {
    sim_.Spawn(ZoneOutageLoop());
  }
}

Cluster::~Cluster() { Shutdown(); }

void Cluster::Shutdown() { running_ = false; }

AppId Cluster::InternApp(const std::string& name) {
  const AppId app = apps_.Intern(name);
  const size_t n = apps_.size();
  if (spread_arrivals_.size() < n) {
    spread_arrivals_.resize(n, 0);
    spread_rate_ewma_.resize(n, 0.0);
    for (const auto& hs : hosts_) {
      hs->GrowApps(n);
    }
  }
  return app;
}

fwsim::Co<Status> Cluster::InstallAll(const fwlang::FunctionSource& fn) {
  const AppId app = InternApp(fn.name);
  for (size_t i = 0; i < hosts_.size(); ++i) {
    if (hosts_[i]->lifecycle == HostLifecycle::kRemoved) {
      continue;  // Decommissioned capacity installs nothing.
    }
    Status s = co_await hosts_[i]->host->Install(fn);
    if (!s.ok()) {
      co_return s;
    }
  }
  installed_.push_back(app);
  // Retained so a host provisioned later can replay the same installs
  // during its join warm-up.
  installed_sources_.push_back(fn);
  if (distribution_ != nullptr) {
    // Publish the snapshot to the registry; the ring-stable seed host stands
    // in for the host that recorded it. Every other host starts cold and
    // pulls through the distribution tier on its first request for the app.
    // Seeds land only on dispatchable hosts (with every host active this is
    // the original HashKey % num_hosts placement).
    std::vector<int> eligible;
    for (int i = 0; i < num_hosts(); ++i) {
      if (Schedulable(i)) {
        eligible.push_back(i);
      }
    }
    FW_CHECK(!eligible.empty());
    distribution_->Publish(app, eligible[fwbase::HashKey(fn.name) % eligible.size()]);
  }
  co_return Status::Ok();
}

std::vector<HostView>& Cluster::Views() {
  std::vector<HostView>& views = views_;
  views.assign(hosts_.size(), HostView());
  const fwbase::SimTime now = sim_.Now();
  for (size_t i = 0; i < hosts_.size(); ++i) {
    const int h = static_cast<int>(i);
    const HostState& hs = *hosts_[i];
    views[i].zone = hs.zone;
    views[i].inflight = hs.inflight;
    views[i].queue_depth = static_cast<int64_t>(hs.queue->size());
    if (hs.lifecycle != HostLifecycle::kActive) {
      // Joining/warming hosts are not yet admitted, draining/removed ones
      // take no new work: all are unschedulable regardless of liveness (and
      // the detector is not consulted, so a decommissioned host cannot rack
      // up suspect/death transitions forever).
      views[i].alive = false;
      continue;
    }
    // Detected state: what heartbeats + data-path evidence support, not what
    // the fault bookkeeping knows. A freshly crashed host looks alive until
    // it misses heartbeats or bounces a request.
    ApplyTransition(h, health_->Evaluate(h, now));
    const HealthState state = health_->state(h);
    views[i].alive = state != HealthState::kDead;
    views[i].suspect = state == HealthState::kSuspect;
    views[i].pressured = health_->pressured(h);
  }
  return views;
}

uint64_t Cluster::Submit(const std::string& fn_name, const std::string& args,
                         Duration deadline) {
  Request req;
  const uint64_t id = submitted() + 1;  // Dense: outcomes_ is indexed by id - 1.
  req.id = id;
  // A name no InstallAll installed still gets an id: it cold-boots in the
  // distribution tier and fails NotFound on the host, as any unknown app.
  req.app = InternApp(fn_name);
  req.args = args;
  req.submitted = sim_.Now();
  if (deadline.nanos() <= 0) {
    deadline = config_.admission.default_deadline;
  }
  if (deadline.nanos() > 0) {
    req.deadline = req.submitted + deadline;
  }
  outcomes_.Append().app = req.app;
  if (config_.hedging) {
    primary_host_.push_back(-1);
  }
  // Demand signal for the zone spreader (pure bookkeeping; the loop is
  // gated off in a default config). The fleet planner counts submits off
  // submitted() instead.
  ++spread_arrivals_[req.app];
  submitted_->Increment();
  if (config_.hedging) {
    sim_.Spawn(Hedger(id, req.app, args, req.submitted, req.deadline));
  }
  Dispatch(std::move(req));
  return id;
}

void Cluster::Dispatch(Request req, int exclude_host) {
  FW_PROFILE_SCOPE_ID(&obs_.profiler(), dispatch_scope_);
  std::vector<HostView>& views = Views();
  if (distribution_ != nullptr) {
    // Snapshot locality over actual chunk placement: the scheduler prefers
    // hosts that already hold the app's snapshot before forcing a cold pull.
    for (size_t i = 0; i < views.size(); ++i) {
      views[i].holds_snapshot = distribution_->Holds(static_cast<int>(i), req.app);
    }
  }
  if (exclude_host >= 0 && exclude_host < static_cast<int>(views.size())) {
    // Skip the host that just failed this request (or the hedge primary's
    // host) — but only when somewhere else could take it: a one-host-left
    // cluster still retries in place.
    bool other_alive = false;
    for (int h = 0; h < static_cast<int>(views.size()); ++h) {
      if (h != exclude_host && views[h].alive) {
        other_alive = true;
        break;
      }
    }
    if (other_alive) {
      views[exclude_host].alive = false;
    }
  }
  const int target = scheduler_->Pick(app_name(req.app), views);
  if (target < 0) {
    if (req.hedge) {
      // A hedge copy that cannot be placed is simply abandoned — the primary
      // still owns the request's outcome.
      hedge_discards_->Increment();
      return;
    }
    RecordFailure(req, Status::Unavailable("no schedulable host"));
    return;
  }
  HostState& hs = *hosts_[target];
  const Status admit = admission_.Admit(target, static_cast<int64_t>(hs.queue->size()),
                                        sim_.Now(), req.deadline);
  if (!admit.ok()) {
    shed_->Increment();
    {
      fwobs::ScopedSpan span(&obs_.tracer(), "cluster.shed", "cluster");
      span.SetAttribute("host", static_cast<uint64_t>(target));
      span.SetAttribute("fn", app_name(req.app));
      span.SetAttribute("attempt", static_cast<uint64_t>(req.attempts));
    }
    if (req.hedge) {
      hedge_discards_->Increment();
      return;
    }
    RecordFailure(req, admit);
    return;
  }
  if (!req.hedge && req.attempts == 1) {
    retry_budget_.OnAccepted(req.app);
  }
  if (config_.hedging && !req.hedge) {
    primary_host_[req.id - 1] = target;
  }
  ++hs.inflight;
  ++hs.arrivals[req.app];
  hs.queue->Send(std::move(req));
}

void Cluster::RetryRequest(Request req, int failed_host) {
  retries_->Increment();
  ++req.attempts;
  if (req.attempts > kMaxAttempts) {
    RecordFailure(req, Status::Unavailable("retry attempts exhausted"));
    return;
  }
  if (!retry_budget_.TrySpend(req.app)) {
    // The app is already burning its budget on failures: abandoning the
    // retry keeps recovery traffic a bounded fraction of offered load
    // instead of a storm.
    retry_budget_denied_->Increment();
    RecordFailure(req, Status::ResourceExhausted("retry budget for " + app_name(req.app) +
                                                 " exhausted"));
    return;
  }
  Dispatch(std::move(req), failed_host);
}

void Cluster::RecordFailure(const Request& req, Status status) {
  Outcome& out = outcomes_[req.id - 1];
  out.status = std::move(status);
  out.attempts = static_cast<uint8_t>(req.attempts);
  out.latency = sim_.Now() - req.submitted;
  ++out.completions;
  failed_->Increment();
  slo_.Record(req.app, /*good=*/false);
}

void Cluster::RecordCompletion(const Request& req, const fwcore::InvocationResult& result,
                               int host_index, bool warm_hit) {
  Outcome& out = outcomes_[req.id - 1];
  out.status = Status::Ok();
  out.host = host_index;
  out.attempts = static_cast<uint8_t>(req.attempts);
  out.latency = sim_.Now() - req.submitted;
  out.startup = result.startup;
  out.exec = result.exec;
  out.warm_hit = warm_hit;
  out.request_id = result.exec_stats.request_id;
  ++out.completions;
  completed_->Increment();
  latency_ms_.Add(out.latency.millis());
  if (config_.hedging) {
    const double ms = out.latency.millis();
    std::vector<double>& sorted = recent_latency_sorted_ms_;
    if (recent_latency_ms_.size() < kHedgeWindow) {
      recent_latency_ms_.push_back(ms);
    } else {
      double& leaving = recent_latency_ms_[recent_latency_next_];
      sorted.erase(std::lower_bound(sorted.begin(), sorted.end(), leaving));
      leaving = ms;
      recent_latency_next_ = (recent_latency_next_ + 1) % kHedgeWindow;
    }
    sorted.insert(std::upper_bound(sorted.begin(), sorted.end(), ms), ms);
  }
  startup_ms_.Add(result.startup.millis());
  slo_.Record(req.app, /*good=*/out.latency <= config_.slo.target);
  if (warm_hit) {
    warm_hits_->Increment();
  }
  if (req.hedge) {
    hedge_wins_->Increment();
  }
}

void Cluster::ReportHostFailure(int host_index) {
  // Connection-refused analog: no need to wait out phi when the data path
  // already proved the host gone.
  ApplyTransition(host_index, health_->ReportFailure(host_index));
}

void Cluster::ApplyTransition(int host_index, HealthTransition transition) {
  switch (transition) {
    case HealthTransition::kNone:
      return;
    case HealthTransition::kSuspected:
      suspects_->Increment();
      return;
    case HealthTransition::kDied:
      detector_deaths_->Increment();
      return;
    case HealthTransition::kReinstated:
      reinstated_->Increment();
      return;
  }
}

double Cluster::PssFraction(int host_index) const {
  const double capacity = hosts_[host_index]->host->MemoryBytes();
  if (capacity <= 0.0) {
    return 0.0;
  }
  return hosts_[host_index]->host->PssBytes() / capacity;
}

Duration Cluster::HedgeDelay() const {
  const std::vector<double>& window = recent_latency_sorted_ms_;
  if (window.size() >= kHedgeMinSamples) {
    // Nearest-rank quantile over the sorted copy of the recent-latency ring.
    const size_t rank = std::min(
        window.size() - 1,
        static_cast<size_t>(kHedgeQuantile / 100.0 * static_cast<double>(window.size())));
    const Duration observed = Duration::MillisF(window[rank]);
    if (observed > config_.hedge_min_delay) {
      return observed;
    }
  }
  return config_.hedge_min_delay;
}

fwsim::Co<void> Cluster::Hedger(uint64_t id, AppId app, std::string args,
                                fwbase::SimTime submitted, fwbase::SimTime deadline) {
  co_await fwsim::Delay(sim_, HedgeDelay());
  // Submit spawns one Hedger per request, so this is the request's only
  // hedge.
  if (!running_ || Terminal(id)) {
    co_return;
  }
  hedges_->Increment();
  {
    fwobs::ScopedSpan span(&obs_.tracer(), "cluster.hedge", "cluster");
    span.SetAttribute("request", id);
    span.SetAttribute("fn", app_name(app));
  }
  Request copy;
  copy.id = id;
  copy.app = app;
  copy.args = std::move(args);
  copy.submitted = submitted;  // Latency stays submit→completion.
  copy.deadline = deadline;
  copy.hedge = true;
  Dispatch(std::move(copy), /*exclude_host=*/primary_host_[id - 1]);
}

fwsim::Co<void> Cluster::Worker(int host_index) {
  HostState& hs = *hosts_[host_index];
  while (true) {
    Request req = co_await hs.queue->Recv();
    if (Terminal(req.id)) {
      // The other copy of a hedged request already recorded the outcome;
      // this copy is surplus the moment it surfaces. (HostStates are
      // heap-allocated — AddHost only push_backs unique_ptrs — so `hs`
      // stays stable across suspensions and fleet growth.)
      --hs.inflight;
      hedge_discards_->Increment();
      continue;
    }
    if (!hs.alive) {
      // The host died with this request still queued: bounce it back to the
      // front end. (Not a zombie — it never started.)
      --hs.inflight;
      ReportHostFailure(host_index);
      if (req.hedge) {
        hedge_discards_->Increment();
        continue;
      }
      RetryRequest(std::move(req), host_index);
      continue;
    }
    if (req.deadline < fwbase::SimTime::Max() && sim_.Now() >= req.deadline) {
      // Already hopeless at dequeue (admission's estimate was optimistic, or
      // the queue stalled behind a slow host): drop it now instead of
      // burning a worker on a response nobody is waiting for.
      --hs.inflight;
      expired_->Increment();
      if (!req.hedge) {
        RecordFailure(req, Status::DeadlineExceeded("request expired in dispatch queue"));
      }
      continue;
    }
    const uint64_t epoch = hs.epoch;
    const uint64_t warm_before = hs.host->warm_hits();
    const fwbase::SimTime service_start = sim_.Now();
    if (injector_.Trip(fwfault::FaultKind::kHostSlowdown)) {
      // Gray failure: the host serves, but stalls first (IO contention,
      // cgroup throttling, a compacting GC). Detection never fires — this is
      // exactly the case hedging exists for.
      co_await fwsim::Delay(
          sim_, injector_.SampleDelay(fwfault::FaultKind::kHostSlowdown,
                                      config_.slow_host_mean_delay));
    }
    if (distribution_ != nullptr && !(distribution_->Holds(host_index, req.app) &&
                                      distribution_->Warm(host_index, req.app))) {
      // Cold host: pull the snapshot through the distribution tier (cache →
      // peer → registry), then REAP working-set warm-up, all inside the
      // request's service time. Warm holders skip both awaits: each would
      // return at once and schedule no event.
      const Status pulled = co_await distribution_->EnsureSnapshot(host_index, req.app);
      FW_CHECK_MSG(pulled.ok(), "EnsureSnapshot degrades to cold boot, never fails");
      co_await distribution_->WarmRestore(host_index, req.app);
    }
    // Detached profiler frame: the invocation spans awaits, so it gets
    // sim-time attribution only and never parents interleaved event scopes.
    const uint64_t prof_token =
        obs_.profiler().enabled() ? obs_.profiler().EnterDetached(invoke_scope_) : 0;
    fwobs::ScopedSpan span(&obs_.tracer(), "cluster.invoke", "cluster");
    span.SetAttribute("host", static_cast<uint64_t>(host_index));
    span.SetAttribute("fn", app_name(req.app));
    span.SetAttribute("attempt", static_cast<uint64_t>(req.attempts));
    if (req.hedge) {
      span.SetAttribute("hedge", static_cast<uint64_t>(1));
    }
    Duration budget = Duration::Zero();  // Zero = platform default timeout.
    if (req.deadline < fwbase::SimTime::Max()) {
      budget = req.deadline - sim_.Now();
    }
    const Result<fwcore::InvocationResult> result =
        co_await hs.host->Invoke(app_name(req.app), req.args, budget);
    span.End();
    obs_.profiler().Exit(prof_token);
    // Observed dequeue→response time feeds the admission controller's wait
    // estimate (failures included: they hold the worker just the same).
    admission_.RecordService(host_index, sim_.Now() - service_start);
    // Cluster-level service EWMA: the fleet planner's Little's-law signal.
    // Uses the intrinsic per-request cost (startup + exec), never the sojourn
    // time: in-host queueing and cold-path transients (snapshot pull,
    // first-touch boot on a just-joined host) would otherwise feed back into
    // the capacity model — every backlog or scale-up reads as rising demand
    // and the fleet flaps. Cold samples may additionally only lower the
    // estimate; warm-path drift is tracked in both directions.
    if (result.ok()) {
      const double observed_s = ((*result).startup + (*result).exec).seconds();
      if (!(*result).cold || observed_s < service_seconds_ewma_) {
        service_seconds_ewma_ = 0.3 * observed_s + 0.7 * service_seconds_ewma_;
      }
    }
    // A partitioned host keeps computing, but its response cannot reach the
    // front end until the partition heals.
    while (hs.alive && hs.epoch == epoch && sim_.Now() < hs.partitioned_until) {
      co_await fwsim::Delay(sim_, hs.partitioned_until - sim_.Now());
    }
    --hs.inflight;
    if (!hs.alive || hs.epoch != epoch) {
      // Zombie: the host crashed while this invocation was in flight. The
      // result (if any) is discarded and the request retried elsewhere —
      // never both, so completions stay exactly-once.
      zombie_discards_->Increment();
      ReportHostFailure(host_index);
      if (req.hedge || Terminal(req.id)) {
        hedge_discards_->Increment();
        continue;
      }
      RetryRequest(std::move(req), host_index);
      continue;
    }
    if (Terminal(req.id)) {
      // The other copy won while this one was executing: first recorded
      // completion stands, this result is discarded unrecorded.
      hedge_discards_->Increment();
      continue;
    }
    if (!result.ok()) {
      if (req.hedge) {
        // Hedge copies never drive terminal failures; the primary is still
        // in flight and owns the outcome.
        hedge_discards_->Increment();
        continue;
      }
      // The platform exhausted its own recovery (internal retries + cold-boot
      // fallback): surface the failure rather than retrying endlessly.
      RecordFailure(req, result.status());
      continue;
    }
    const bool warm_hit = hs.host->warm_hits() > warm_before;
    RecordCompletion(req, *result, host_index, warm_hit);
    if (warm_hit && config_.autoscale && running_ && Schedulable(host_index)) {
      // Replenish the consumed clone right away (one for one) instead of
      // waiting for the next autoscaler tick; the tick's shrink hysteresis
      // still trims the pool when the app's rate drops.
      TopUpPool(host_index, req.app, kMaxPoolPerApp);
    }
  }
}

fwsim::Co<void> Cluster::Heartbeater(int host_index) {
  HostState& hs = *hosts_[host_index];
  while (running_ && hs.lifecycle != HostLifecycle::kRemoved) {
    // A crashed host sends nothing; a partitioned host's beats never arrive;
    // heartbeat_loss drops one on the wire. The detector only ever sees
    // beats that got through. A decommissioned host stops beating for good.
    if (hs.alive && sim_.Now() >= hs.partitioned_until &&
        !injector_.Trip(fwfault::FaultKind::kHeartbeatLoss)) {
      ApplyTransition(host_index,
                      health_->Heartbeat(host_index, sim_.Now(), PssFraction(host_index)));
    }
    co_await fwsim::Delay(sim_, config_.health.heartbeat_interval);
  }
}

fwsim::Co<void> Cluster::Autoscaler(int host_index) {
  HostState& hs = *hosts_[host_index];
  const double interval_s = kAutoscaleInterval.seconds();
  while (running_) {
    co_await fwsim::Delay(sim_, kAutoscaleInterval);
    if (!running_) {
      break;
    }
    if (hs.lifecycle == HostLifecycle::kRemoved) {
      break;  // Decommissioned: nothing left to scale, ever.
    }
    if (!hs.alive || hs.lifecycle != HostLifecycle::kActive) {
      // Dead hosts have no pool; joining hosts are warmed by JoinWarmup;
      // draining hosts must bleed, not grow.
      std::fill(hs.arrivals.begin(), hs.arrivals.end(), 0);
      continue;
    }
    if (health_->pressured(host_index)) {
      // Brownout: shed the parked clones (reclaimable memory) before the
      // host OOMs, and skip growth this tick. The scheduler is already
      // steering new work away via the pressured view bit.
      for (const AppId app : installed_) {
        const std::string& name = app_name(app);
        while (hs.host->PooledClones(name) > 0) {
          if (!hs.host->DiscardClone(name).ok()) {
            break;
          }
          brownout_discards_->Increment();
        }
      }
      std::fill(hs.arrivals.begin(), hs.arrivals.end(), 0);
      continue;
    }
    for (const AppId app : installed_) {
      const std::string& name = app_name(app);
      const double observed = static_cast<double>(hs.arrivals[app]) / interval_s;
      double& ewma = hs.rate_ewma[app];
      ewma = kAutoscaleEwmaAlpha * observed + (1.0 - kAutoscaleEwmaAlpha) * ewma;
      // Little's law: cover the arrivals that land while a replacement clone
      // is being prepared, with safety headroom.
      const int target = std::min(
          kMaxPoolPerApp,
          static_cast<int>(std::ceil(ewma * hs.prepare_seconds_ewma * kAutoscaleSafety)));
      const int deficit = target - static_cast<int>(hs.host->PooledClones(name)) -
                          hs.preparing[app];
      for (int k = 0; k < deficit; ++k) {
        ++hs.preparing[app];
        sim_.Spawn(PrepareOne(host_index, app, hs.epoch));
      }
      // Shrink with hysteresis so a borderline target does not flap.
      while (static_cast<int>(hs.host->PooledClones(name)) > target + 1) {
        if (!hs.host->DiscardClone(name).ok()) {
          break;
        }
      }
    }
    std::fill(hs.arrivals.begin(), hs.arrivals.end(), 0);
  }
}

void Cluster::TopUpPool(int host_index, AppId app, int cap) {
  HostState& hs = *hosts_[host_index];
  const int pending = static_cast<int>(hs.host->PooledClones(app_name(app))) +
                      hs.preparing[app];
  if (pending < cap) {
    ++hs.preparing[app];
    sim_.Spawn(PrepareOne(host_index, app, hs.epoch));
  }
}

fwsim::Co<void> Cluster::PrepareOne(int host_index, AppId app, uint64_t epoch) {
  HostState& hs = *hosts_[host_index];
  const fwbase::SimTime t0 = sim_.Now();
  Status s = co_await hs.host->PrepareClone(app_name(app));
  --hs.preparing[app];
  if (!s.ok()) {
    co_return;
  }
  if (hs.epoch != epoch) {
    // The host crashed (or was decommissioned) while this clone was being
    // prepared: discard it rather than parking it on capacity that no longer
    // exists — leaving it would leak the VM past the host's teardown.
    (void)hs.host->DiscardClone(app_name(app));
    co_return;
  }
  hs.prepare_seconds_ewma =
      0.3 * (sim_.Now() - t0).seconds() + 0.7 * hs.prepare_seconds_ewma;
}

fwsim::Co<void> Cluster::Sampler() {
  co_await fwsim::Delay(sim_, kSampleInterval);
  if (!running_) {
    co_return;
  }
  // Resolved at the first tick, not at construction: a run that ends before
  // it dumps no gauge lines.
  fwobs::MetricsRegistry& metrics = obs_.metrics();
  fwobs::Gauge& pss_gauge = metrics.GetGauge("cluster.pss_bytes");
  fwobs::Gauge& live_vms_gauge = metrics.GetGauge("cluster.live_vms");
  // Fleet-wide rollup gauges: per-host state aggregated at the front end, so
  // one scrape of the cluster registry describes the whole fleet.
  fwobs::Gauge& hosts_alive_gauge = metrics.GetGauge("fleet.hosts.alive");
  fwobs::Gauge& hosts_active_gauge = metrics.GetGauge("fleet.hosts.active");
  fwobs::Gauge& zones_alive_gauge = metrics.GetGauge("fleet.zones.alive");
  fwobs::Gauge& queue_depth_gauge = metrics.GetGauge("fleet.queue.depth");
  fwobs::Gauge& inflight_gauge = metrics.GetGauge("fleet.inflight");
  fwobs::Gauge& warm_hits_gauge = metrics.GetGauge("fleet.warm_hits");
  do {
    double pss = 0.0;
    uint64_t vms = 0;
    uint64_t alive = 0;
    uint64_t queued = 0;
    uint64_t inflight = 0;
    uint64_t warm_hits = 0;
    for (const auto& hs : hosts_) {
      pss += hs->host->PssBytes();
      vms += hs->host->LiveVmCount();
      alive += hs->alive ? 1 : 0;
      queued += hs->queue->size();
      inflight += static_cast<uint64_t>(std::max<int64_t>(hs->inflight, 0));
      warm_hits += hs->host->warm_hits();
    }
    peak_pss_bytes_ = std::max(peak_pss_bytes_, pss);
    peak_live_vms_ = std::max(peak_live_vms_, vms);
    pss_gauge.Set(pss);
    live_vms_gauge.Set(static_cast<double>(vms));
    hosts_alive_gauge.Set(static_cast<double>(alive));
    hosts_active_gauge.Set(static_cast<double>(active_hosts()));
    zones_alive_gauge.Set(static_cast<double>(zones_alive()));
    queue_depth_gauge.Set(static_cast<double>(queued));
    inflight_gauge.Set(static_cast<double>(inflight));
    warm_hits_gauge.Set(static_cast<double>(warm_hits));
    slo_.Tick();
    co_await fwsim::Delay(sim_, kSampleInterval);
  } while (running_);
}

void Cluster::Drain(uint64_t until_terminal) {
  // The background services (heartbeats, autoscaler, sampler) keep the event
  // queue non-empty forever, so "queue ran dry" cannot detect an impossible
  // target (e.g. until_terminal > what the workload will ever submit).
  // Instead: abort once simulated time advances drain_stall_timeout past the
  // last new submission or terminal outcome.
  uint64_t last_terminal = terminal();
  uint64_t last_submitted = submitted();
  fwbase::SimTime last_progress = sim_.Now();
  while (terminal() < until_terminal && sim_.StepOne()) {
    if (terminal() != last_terminal || submitted() != last_submitted) {
      last_terminal = terminal();
      last_submitted = submitted();
      last_progress = sim_.Now();
    } else if (sim_.Now() - last_progress > config_.drain_stall_timeout) {
      FW_CHECK_MSG(
          false,
          fwbase::StrFormat(
              "Cluster::Drain(%llu) stalled: %llu submitted, %llu terminal, and no "
              "progress for %.0fs of simulated time — until_terminal exceeds what "
              "this workload will ever produce",
              static_cast<unsigned long long>(until_terminal),
              static_cast<unsigned long long>(submitted()),
              static_cast<unsigned long long>(terminal()),
              config_.drain_stall_timeout.seconds())
              .c_str());
    }
  }
  FW_CHECK_MSG(terminal() >= until_terminal,
               "cluster drained its event queue with requests still pending");
  Shutdown();
}

void Cluster::CrashHost(int host) {
  FW_CHECK(host >= 0 && host < num_hosts());
  HostState& hs = *hosts_[host];
  if (!hs.alive) {
    return;
  }
  hs.alive = false;
  ++hs.epoch;
  // The parked clones lived in the host's memory.
  hs.host->DropWarmPool();
  std::fill(hs.arrivals.begin(), hs.arrivals.end(), 0);
  std::fill(hs.rate_ewma.begin(), hs.rate_ewma.end(), 0.0);
  host_crashes_->Increment();
}

void Cluster::RestartHost(int host) {
  FW_CHECK(host >= 0 && host < num_hosts());
  HostState& hs = *hosts_[host];
  if (hs.alive || hs.lifecycle == HostLifecycle::kRemoved) {
    // Decommissioned capacity does not come back: re-provision with AddHost.
    return;
  }
  hs.alive = true;
  hs.partitioned_until = fwbase::SimTime::Zero();
  if (distribution_ != nullptr) {
    // Disk state (chunk cache, installed images) survived; page cache did
    // not — the host re-warms working sets on first touch.
    distribution_->OnHostRestart(host);
  }
  // The detector reinstates the host on its next heartbeat, not here: a
  // restart the front end has no evidence for does not exist yet.
  host_restarts_->Increment();
}

void Cluster::PartitionHost(int host, Duration duration) {
  FW_CHECK(host >= 0 && host < num_hosts());
  HostState& hs = *hosts_[host];
  hs.partitioned_until = std::max(hs.partitioned_until, sim_.Now() + duration);
  host_partitions_->Increment();
}

void Cluster::KillZone(int zone) {
  FW_CHECK(zone >= 0 && zone < config_.num_zones);
  zone_outages_->Increment();
  {
    fwobs::ScopedSpan span(&obs_.tracer(), "fleet.zone_outage", "cluster");
    span.SetAttribute("zone", static_cast<uint64_t>(zone));
  }
  for (int h = 0; h < num_hosts(); ++h) {
    HostState& hs = *hosts_[h];
    if (hs.zone == zone && hs.alive && hs.lifecycle != HostLifecycle::kRemoved) {
      CrashHost(h);
    }
  }
}

void Cluster::RestoreZone(int zone) {
  FW_CHECK(zone >= 0 && zone < config_.num_zones);
  for (int h = 0; h < num_hosts(); ++h) {
    HostState& hs = *hosts_[h];
    if (hs.zone == zone && !hs.alive && hs.lifecycle != HostLifecycle::kRemoved) {
      RestartHost(h);
    }
  }
}

// ---------------------------------------------------------------------------
// Elastic fleet (DESIGN.md §16)
// ---------------------------------------------------------------------------

int Cluster::active_hosts() const {
  int n = 0;
  for (const auto& hs : hosts_) {
    if (hs->lifecycle == HostLifecycle::kActive && hs->alive) {
      ++n;
    }
  }
  return n;
}

int Cluster::zones_alive() const {
  std::map<int, bool> zones;
  for (const auto& hs : hosts_) {
    if (hs->lifecycle == HostLifecycle::kActive && hs->alive) {
      zones.emplace(hs->zone, true);
    }
  }
  return static_cast<int>(zones.size());
}

double Cluster::HostHours() const { return fleet_ledger_.HostHours(sim_.Now()); }

int Cluster::ProvisionHost(std::unique_ptr<ClusterHost> host, int zone,
                           HostLifecycle lifecycle) {
  const int index = static_cast<int>(hosts_.size());
  auto hs = std::make_unique<HostState>();
  hs->host = std::move(host);
  hs->queue = std::make_unique<fwsim::Channel<Request>>(sim_);
  hs->zone = zone;
  hs->lifecycle = lifecycle;
  hs->GrowApps(apps_.size());
  hosts_.push_back(std::move(hs));
  fleet_ledger_.OnProvision(index, sim_.Now());
  for (int w = 0; w < config_.workers_per_host; ++w) {
    sim_.Spawn(Worker(index));
  }
  if (config_.autoscale) {
    sim_.Spawn(Autoscaler(index));
  }
  sim_.Spawn(Heartbeater(index));
  return index;
}

int Cluster::AddHost(std::unique_ptr<ClusterHost> host, int zone) {
  if (host == nullptr) {
    FW_CHECK_MSG(config_.host_factory != nullptr,
                 "AddHost needs an explicit host or Config::host_factory");
    host = config_.host_factory(sim_, static_cast<int>(hosts_.size()));
  }
  if (zone < 0) {
    // Balance failure domains: join the zone with the fewest live hosts.
    std::vector<int> per_zone(static_cast<size_t>(config_.num_zones), 0);
    for (const auto& other : hosts_) {
      if (other->lifecycle != HostLifecycle::kRemoved) {
        ++per_zone[static_cast<size_t>(other->zone)];
      }
    }
    zone = PickJoinZone(per_zone);
  }
  FW_CHECK(zone >= 0 && zone < config_.num_zones);
  // Grow every per-host control-plane table alongside the host list.
  health_->AddHost(sim_.Now());
  admission_.AddHost();
  if (distribution_ != nullptr) {
    distribution_->AddHost();
  }
  const int index = ProvisionHost(std::move(host), zone, HostLifecycle::kJoining);
  hosts_added_->Increment();
  {
    fwobs::ScopedSpan span(&obs_.tracer(), "fleet.join", "cluster");
    span.SetAttribute("host", static_cast<uint64_t>(index));
    span.SetAttribute("zone", static_cast<uint64_t>(zone));
  }
  sim_.Spawn(JoinWarmup(index, hosts_[index]->epoch));
  return index;
}

fwsim::Co<void> Cluster::JoinWarmup(int host_index, uint64_t epoch) {
  HostState& hs = *hosts_[host_index];
  hs.lifecycle = HostLifecycle::kWarming;
  // Replay every install the fleet has accepted so far. Index-based: more
  // installs may land while this coroutine is suspended, and a host that
  // joined mid-InstallAll must still end up with the full set.
  for (size_t i = 0; i < installed_sources_.size(); ++i) {
    const fwlang::FunctionSource fn = installed_sources_[i];
    Status s = co_await hs.host->Install(fn);
    FW_CHECK_MSG(s.ok(), "join warm-up install failed");
  }
  // Warm the snapshot path before taking traffic: pull chunks through the
  // distribution tier (registry/peer fetch + REAP working-set prefetch +
  // guest reseed/clock rebase on restore) and park clones, so the host's
  // first dispatched request is a warm hit, not a cold boot.
  for (size_t i = 0; i < installed_.size(); ++i) {
    const AppId app = installed_[i];
    const std::string& name = app_name(app);
    if (distribution_ != nullptr) {
      const Status pulled = co_await distribution_->EnsureSnapshot(host_index, app);
      FW_CHECK_MSG(pulled.ok(), "EnsureSnapshot degrades to cold boot, never fails");
      co_await distribution_->WarmRestore(host_index, app);
    }
    for (int k = 0; k < kJoinWarmClones; ++k) {
      if (static_cast<int>(hs.host->PooledClones(name)) >= kMaxPoolPerApp) {
        break;
      }
      Status s = co_await hs.host->PrepareClone(name);
      if (!s.ok()) {
        break;
      }
      if (hs.epoch != epoch) {
        // Crashed mid-warm-up: the clone did not survive the host's memory.
        (void)hs.host->DiscardClone(name);
      }
    }
  }
  // Admitted: visible to the scheduler (and the locality ring) from the next
  // dispatch on. A crash during warm-up does not cancel admission — crash is
  // not leave; the detector excludes the host until it heartbeats again.
  hs.lifecycle = HostLifecycle::kActive;
  scheduler_->OnHostJoin(host_index);
  hosts_admitted_->Increment();
  {
    fwobs::ScopedSpan span(&obs_.tracer(), "fleet.admit", "cluster");
    span.SetAttribute("host", static_cast<uint64_t>(host_index));
    span.SetAttribute("zone", static_cast<uint64_t>(hs.zone));
  }
}

void Cluster::RemoveHost(int host) {
  FW_CHECK(host >= 0 && host < num_hosts());
  HostState& hs = *hosts_[host];
  if (hs.lifecycle == HostLifecycle::kDraining ||
      hs.lifecycle == HostLifecycle::kRemoved) {
    return;
  }
  // Out of the ring immediately: no new dispatch while the host bleeds its
  // queue and inflight work through the normal completion path.
  hs.lifecycle = HostLifecycle::kDraining;
  scheduler_->OnHostLeave(host);
  hosts_removed_->Increment();
  {
    fwobs::ScopedSpan span(&obs_.tracer(), "fleet.drain", "cluster");
    span.SetAttribute("host", static_cast<uint64_t>(host));
    span.SetAttribute("zone", static_cast<uint64_t>(hs.zone));
  }
  sim_.Spawn(DrainAndRemove(host));
}

fwsim::Co<void> Cluster::DrainAndRemove(int host_index) {
  HostState& hs = *hosts_[host_index];
  // Replenish the departing host's warm capacity on its ring successors
  // before the pool disappears, so its apps stay warm somewhere else.
  if (config_.autoscale) {
    const std::vector<HostView>& views = Views();
    for (const AppId app : installed_) {
      const std::string& name = app_name(app);
      if (hs.host->PooledClones(name) == 0) {
        continue;
      }
      int target = -1;
      for (int t : scheduler_->WarmTargets(name, views, 1)) {
        if (t != host_index && Schedulable(t)) {
          target = t;
          break;
        }
      }
      if (target < 0) {
        // Placement-free policy (or no ring successor): least-loaded active.
        for (int h = 0; h < static_cast<int>(views.size()); ++h) {
          if (h == host_index || !views[h].alive || !Schedulable(h)) {
            continue;
          }
          if (target < 0 || views[h].inflight < views[target].inflight) {
            target = h;
          }
        }
      }
      if (target < 0) {
        continue;  // Nowhere to migrate: the pool is simply lost.
      }
      TopUpPool(target, app, kMaxPoolPerApp);
    }
  }
  // Bleed: inflight covers both queued and executing requests, and the
  // scheduler stopped feeding this host when it left the ring.
  while (hs.inflight > 0) {
    co_await fwsim::Delay(sim_, kSampleInterval);
  }
  // Teardown. The epoch bump first: any PrepareOne still in flight for this
  // host discards its clone on completion instead of parking it on capacity
  // that no longer exists (the decommission-leak hazard).
  ++hs.epoch;
  hs.host->DropWarmPool();
  hs.alive = false;
  hs.lifecycle = HostLifecycle::kRemoved;
  std::fill(hs.arrivals.begin(), hs.arrivals.end(), 0);
  std::fill(hs.rate_ewma.begin(), hs.rate_ewma.end(), 0.0);
  fleet_ledger_.OnRemove(host_index, sim_.Now());
  hosts_decommissioned_->Increment();
  {
    fwobs::ScopedSpan span(&obs_.tracer(), "fleet.removed", "cluster");
    span.SetAttribute("host", static_cast<uint64_t>(host_index));
    span.SetAttribute("zone", static_cast<uint64_t>(hs.zone));
  }
}

fwsim::Co<void> Cluster::ZoneSpreader() {
  const double interval_s = kAutoscaleInterval.seconds();
  while (running_) {
    co_await fwsim::Delay(sim_, kAutoscaleInterval);
    if (!running_) {
      break;
    }
    const std::vector<HostView>& views = Views();
    std::map<int, bool> alive_zones;
    for (const HostView& v : views) {
      if (v.alive) {
        alive_zones.emplace(v.zone, true);
      }
    }
    for (const AppId app : installed_) {
      const double observed = static_cast<double>(spread_arrivals_[app]) / interval_s;
      double& ewma = spread_rate_ewma_[app];
      ewma = kAutoscaleEwmaAlpha * observed + (1.0 - kAutoscaleEwmaAlpha) * ewma;
      if (alive_zones.size() < 2 || ewma <= 1e-6) {
        // One zone left (nothing to spread to) or the app carries no
        // traffic (nothing worth keeping warm twice).
        continue;
      }
      // Keep at least one warm clone in two distinct zones: the ring owner
      // plus the next clockwise host in an uncovered zone. The per-host
      // autoscaler sizes the primary's pool; this loop only guarantees the
      // cross-zone replica exists.
      const std::string& name = app_name(app);
      for (int t : scheduler_->WarmTargets(name, views, 2)) {
        if (Schedulable(t)) {
          TopUpPool(t, app, 1);
        }
      }
    }
    std::fill(spread_arrivals_.begin(), spread_arrivals_.end(), 0);
  }
}

fwsim::Co<void> Cluster::FleetAutoscaler() {
  const double interval_s = config_.fleet.interval.seconds();
  while (running_) {
    co_await fwsim::Delay(sim_, config_.fleet.interval);
    if (!running_) {
      break;
    }
    const double rate = static_cast<double>(submitted() - fleet_tick_mark_) / interval_s;
    fleet_tick_mark_ = submitted();
    int provisioned = 0;
    for (const auto& other : hosts_) {
      if (other->lifecycle != HostLifecycle::kRemoved &&
          other->lifecycle != HostLifecycle::kDraining) {
        ++provisioned;
      }
    }
    const int delta = fleet_planner_->Step(rate, service_seconds_ewma_, provisioned);
    if (delta > 0) {
      for (int k = 0; k < delta; ++k) {
        AddHost();
      }
    } else if (delta < 0) {
      // Scale down from the most-populated zone (preserving spread), least
      // inflight first so the drain is short. Ties keep the lowest index.
      std::vector<int> per_zone(static_cast<size_t>(config_.num_zones), 0);
      for (const auto& other : hosts_) {
        if (other->lifecycle == HostLifecycle::kActive && other->alive) {
          ++per_zone[static_cast<size_t>(other->zone)];
        }
      }
      int busiest_zone = 0;
      for (int z = 1; z < config_.num_zones; ++z) {
        if (per_zone[static_cast<size_t>(z)] > per_zone[static_cast<size_t>(busiest_zone)]) {
          busiest_zone = z;
        }
      }
      int victim = -1;
      for (int h = 0; h < num_hosts(); ++h) {
        const HostState& other = *hosts_[h];
        if (other.lifecycle != HostLifecycle::kActive || !other.alive ||
            other.zone != busiest_zone) {
          continue;
        }
        if (victim < 0 || other.inflight < hosts_[victim]->inflight) {
          victim = h;
        }
      }
      if (victim >= 0) {
        RemoveHost(victim);
      }
    }
  }
}

fwsim::Co<void> Cluster::ZoneOutageLoop() {
  while (running_) {
    co_await fwsim::Delay(sim_, config_.zone_outage_check_interval);
    if (!running_) {
      break;
    }
    if (!injector_.Trip(fwfault::FaultKind::kZoneOutage)) {
      continue;
    }
    // Round-robin over zones so repeated trips exercise every failure
    // domain; zone_outages_ counts KillZone calls, so read it pre-kill.
    const int zone =
        static_cast<int>(zone_outages_->value() % static_cast<uint64_t>(config_.num_zones));
    KillZone(zone);
    sim_.Spawn(RestoreZoneAfter(zone, config_.zone_outage_duration));
  }
}

fwsim::Co<void> Cluster::RestoreZoneAfter(int zone, fwbase::Duration delay) {
  co_await fwsim::Delay(sim_, delay);
  if (running_) {
    RestoreZone(zone);
  }
}

const Cluster::Outcome& Cluster::outcome(uint64_t id) const {
  FW_CHECK(id >= 1 && id <= outcomes_.size());
  return outcomes_[id - 1];
}

Cluster::Rollup Cluster::ComputeRollup() const {
  Rollup r;
  r.submitted = submitted_->value();
  r.completed = completed_->value();
  r.failed = failed_->value();
  r.retries = retries_->value();
  r.zombie_discards = zombie_discards_->value();
  for (const auto& hs : hosts_) {
    r.warm_hits += hs->host->warm_hits();
  }
  r.shed = shed_->value();
  r.expired = expired_->value();
  r.retry_budget_denied = retry_budget_denied_->value();
  r.hedges = hedges_->value();
  r.hedge_wins = hedge_wins_->value();
  r.hedge_discards = hedge_discards_->value();
  r.suspects = suspects_->value();
  r.detector_deaths = detector_deaths_->value();
  r.reinstated = reinstated_->value();
  r.brownout_discards = brownout_discards_->value();
  r.latency_ms = latency_ms_;
  r.startup_ms = startup_ms_;
  r.peak_pss_bytes = peak_pss_bytes_;
  r.peak_live_vms = peak_live_vms_;
  r.slo_total = slo_.total();
  r.slo_good = slo_.good();
  r.slo_alerts = slo_.alerts();
  r.slo_attainment = slo_.Attainment();
  r.slo_worst_attainment = slo_.WorstAttainment();
  r.hosts_added = hosts_added_->value();
  r.hosts_removed = hosts_removed_->value();
  r.zone_outages = zone_outages_->value();
  r.host_hours = fleet_ledger_.HostHours(sim_.Now());
  if (distribution_ != nullptr) {
    r.distribution = distribution_->stats();
  }
  return r;
}

uint64_t Cluster::OutcomeDigest() const {
  uint64_t digest = fwbase::kFnvOffsetBasis;
  auto mix = [&digest](uint64_t v) { digest = fwbase::FnvMix(digest, v); };
  for (size_t i = 0; i < outcomes_.size(); ++i) {
    const Outcome& out = outcomes_[i];
    mix(i + 1);
    mix(static_cast<uint64_t>(out.host) + 2);
    mix(static_cast<uint64_t>(out.attempts));
    mix(static_cast<uint64_t>(out.latency.nanos()));
    mix(out.completions);
    mix(out.request_id);
    mix(static_cast<uint64_t>(out.status.code()) + 1);
  }
  return digest;
}

}  // namespace fwcluster
