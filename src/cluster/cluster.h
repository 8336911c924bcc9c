// Multi-host Fireworks deployment on one shared discrete-event simulation.
//
// The Cluster owns N ClusterHosts (FullHost or ModelHost), a front-end
// Scheduler, per-host dispatch queues with a fixed worker-coroutine pool, a
// per-host × per-app warm-pool autoscaler, and cluster-level observability
// (metrics + spans rolled up across hosts).
//
// Request lifecycle: Submit() stamps the request (and its deadline), the
// front end picks a host (scheduler policy over *detected* host health, see
// health.h) and asks the admission controller (admission.h) whether the
// host's bounded dispatch queue can still meet the deadline; admitted
// requests enqueue, the rest are shed fast with kResourceExhausted. A worker
// coroutine runs the invocation on the host and records the outcome. The
// submit→completion latency therefore includes front-end queueing, which is
// where overload shows up in P99.9 — and where admission control converts a
// collapse into a plateau.
//
// Failure semantics (the chaos tests assert these):
//   * Liveness is detected, not known: hosts heartbeat into a phi-accrual
//     FailureDetector; data-path errors (bounced queues, stale-epoch
//     zombies) short-circuit detection. A suspect host is deprioritized, a
//     dead one excluded, and a heartbeat reinstates either.
//   * CrashHost stops the host's heartbeats, bumps its epoch, and drops its
//     parked clones (they lived in host memory). Queued requests are bounced
//     back to the front end. In-flight invocations cannot be cancelled —
//     they drain as zombies whose results are discarded (stale epoch) and
//     the requests are retried on a surviving host, subject to the per-app
//     retry budget, so every accepted request reaches exactly one recorded
//     completion: retried, never duplicated.
//   * PartitionHost makes the host unreachable from the front end for a
//     duration: heartbeats stop arriving (the detector degrades it to
//     suspect, then dead) and responses of in-flight work are held until the
//     partition heals. Partitioned work is delayed, not retried (retrying
//     non-idempotent work during a partition would risk duplicate
//     completions).
//   * Hedging (off by default): after a quantile-based delay, a still-
//     inflight request is re-dispatched to a second host. The first recorded
//     completion wins; the loser is discarded by a terminal check on the
//     request, so completions stay exactly-once (DESIGN.md §11).
//
// Elastic fleet (DESIGN.md §16): membership is no longer fixed. AddHost()
// provisions a cold host that installs every app, pulls snapshots through
// the distribution tier, parks warm clones, and only then joins the
// scheduler ring; RemoveHost() drains a host (no new dispatch, warm pools
// replenished elsewhere, inflight work bled via the zombie-epoch machinery)
// and tears it down with zero leaks. Hosts group into zones; KillZone (or
// the zone_outage fault kind) fails a whole zone at once and the survivors
// absorb the redirected load under admission control. With Config::fleet
// enabled, a capacity autoscaler grows and shrinks the host count from the
// same Little's-law signals the warm-pool autoscaler uses.
#ifndef FIREWORKS_SRC_CLUSTER_CLUSTER_H_
#define FIREWORKS_SRC_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/base/stats.h"
#include "src/base/status.h"
#include "src/base/units.h"
#include "src/cluster/admission.h"
#include "src/cluster/app_table.h"
#include "src/cluster/fleet_manager.h"
#include "src/cluster/health.h"
#include "src/cluster/host.h"
#include "src/cluster/scheduler.h"
#include "src/cluster/slo.h"
#include "src/cluster/snapshot_distribution.h"
#include "src/fault/fault.h"
#include "src/obs/observability.h"
#include "src/simcore/primitives.h"
#include "src/simcore/simulation.h"

namespace fwcluster {

class Cluster {
 public:
  // Front-end dispatch attempts per request (crash recovery), counting the
  // first try.
  static constexpr int kMaxAttempts = 4;

  // The control loops' fixed tunables (autoscaler cadence and EWMA, pool cap,
  // sampler period, retry-budget deposit and burst, hedge quantile and
  // window, join warm-up clones) are constants in cluster.cc.
  struct Config {
    Config() {}

    SchedulerPolicy policy = SchedulerPolicy::kSnapshotLocality;
    // Dispatch worker coroutines per host: the host-level concurrency cap.
    int workers_per_host = 32;

    // Warm-pool autoscaler: per host × app, target pool size from Little's
    // law over an EWMA of the observed per-app arrival rate at that host.
    bool autoscale = true;

    // Per-app latency SLO + multi-window burn-rate alerting (slo.h). Always
    // on: recording is pure bookkeeping off outcomes the front end already
    // tracks, and benches read the attainment out of the rollup.
    SloConfig slo;

    // --- Overload control & health (DESIGN.md §11) -----------------------
    // Heartbeat-driven failure detection: the front end's only view of
    // host liveness.
    HealthConfig health;
    // Bounded dispatch queues + deadline-aware shedding at enqueue.
    AdmissionConfig admission;
    // Per-app token-bucket retry budget (crash-recovery retries spend one
    // token; accepted first attempts deposit a tenth of one).
    bool retry_budget = true;
    // Tail-latency hedging: after max(hedge_min_delay, the p99 of the last
    // 1024 completed latencies), re-dispatch a still-inflight request to a
    // second host. First recorded completion wins.
    bool hedging = false;
    Duration hedge_min_delay = Duration::Millis(20);
    // Snapshot distribution tier (DESIGN.md §13): registry + per-host chunk
    // caches + peer fetch + REAP working-set restore. Off by default — every
    // host is then assumed to hold every snapshot, the pre-tier model.
    DistributionConfig distribution;
    // Cluster-level fault injection (heartbeat_loss, host_slowdown,
    // chunk_corruption, registry_unreachable). The
    // default empty plan is inert: no randomness is drawn.
    fwfault::FaultPlan fault_plan;
    uint64_t fault_seed = 777;
    // Mean of the exponential stall injected per host_slowdown trip.
    Duration slow_host_mean_delay = Duration::Millis(100);
    // Drain() aborts after this much simulated time without a new submission
    // or terminal outcome (see Drain()).
    Duration drain_stall_timeout = Duration::Seconds(120);

    // --- Elastic fleet & zones (DESIGN.md §16) ---------------------------
    // Failure domains: initial host i lives in zone i % num_zones; hosts
    // added later join the least-populated zone. One zone = the pre-zone
    // model (everything at zone 0, no spreading). With >= 2 zones and the
    // autoscaler on, a ZoneSpreader loop keeps warm clones of every
    // traffic-bearing app in two zones, so a zone outage leaves warm
    // capacity.
    int num_zones = 1;
    // Host-count autoscaling (fleet_manager.h). Requires host_factory.
    FleetConfig fleet;
    // Builds host number `index` for fleet growth; also used by AddHost()
    // when no host is passed explicitly. Must schedule on `sim`.
    std::function<std::unique_ptr<ClusterHost>(fwsim::Simulation&, int index)>
        host_factory;
    // zone_outage fault kind: polled every check interval; each trip kills
    // one whole zone (round-robin over zones) and restores it after
    // zone_outage_duration.
    Duration zone_outage_check_interval = Duration::Seconds(1);
    Duration zone_outage_duration = Duration::Seconds(5);
  };

  // `hosts` are indexed by position; each must already schedule on `sim`.
  Cluster(fwsim::Simulation& sim, std::vector<std::unique_ptr<ClusterHost>> hosts,
          const Config& config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Installs `fn` on every host (apps can be scheduled anywhere).
  fwsim::Co<Status> InstallAll(const fwlang::FunctionSource& fn);

  // Accepts one invocation request at the current simulated time and returns
  // its request id (1-based, dense). `deadline` is the request's end-to-end
  // latency budget; zero falls back to admission.default_deadline, and zero
  // again means no deadline (shedding then only happens on the queue cap).
  uint64_t Submit(const std::string& fn_name, const std::string& args,
                  Duration deadline = Duration::Zero());

  // Pumps the shared simulation until `until_terminal` requests have reached
  // a terminal state (completed, failed, or shed), then stops background
  // services. Aborts (FW_CHECK) if the run stops making progress — e.g.
  // until_terminal exceeds what the workload will ever submit — instead of
  // spinning forever on the background services' event stream.
  void Drain(uint64_t until_terminal);
  // Drains everything submitted so far.
  void DrainAll() { Drain(submitted()); }
  // Stops the autoscaler/heartbeat/sampler loops so the event queue can
  // empty.
  void Shutdown();

  // --- Fault operations ----------------------------------------------------
  void CrashHost(int host);
  void RestartHost(int host);
  void PartitionHost(int host, Duration duration);
  // Crashes every alive host in `zone` at the current instant (correlated
  // failure — one failure domain lost); RestoreZone restarts every host the
  // outage took down. Permanently removed hosts stay removed.
  void KillZone(int zone);
  void RestoreZone(int zone);

  // --- Elastic fleet (DESIGN.md §16) ---------------------------------------
  // Provisions a cold host into `zone` (or the least-populated zone when
  // negative). The host installs every app, warms its snapshot caches and
  // parks one clone per app, and only then joins the scheduler ring.
  // Returns the new host index immediately; admission happens
  // asynchronously on the simulation. Uses `host` when given, else
  // Config::host_factory.
  int AddHost(std::unique_ptr<ClusterHost> host = nullptr, int zone = -1);
  // Decommissions a host: leaves the scheduler ring at once (no new
  // dispatch), replenishes its warm capacity on ring successors, bleeds
  // inflight work, then tears everything down (VMs, netns, parked clones).
  void RemoveHost(int host);

  HostLifecycle lifecycle(int i) const { return hosts_[i]->lifecycle; }
  int zone_of(int i) const { return hosts_[i]->zone; }
  int num_zones() const { return config_.num_zones; }
  // Hosts currently dispatchable (lifecycle kActive and alive).
  int active_hosts() const;
  // Distinct zones with at least one active alive host.
  int zones_alive() const;
  // Cumulative provisioned host-time (capacity cost) up to now.
  double HostHours() const;

  // --- Results -------------------------------------------------------------
  // One per request for the cluster's lifetime, so fields are ordered by
  // size and pack into 64 bytes, pinned below the class (DESIGN.md §10,
  // "Per-request state").
  struct Outcome {
    Outcome() {}

    Status status;     // Terminal status of the request.
    Duration latency;  // Submit → recorded completion.
    Duration startup;
    Duration exec;
    // Guest-minted request id (DESIGN.md §15). 0 when the host model does not
    // run a real guest (ModelHost fabricates results without exec stats).
    uint64_t request_id = 0;
    AppId app = 0;             // Requested app; app_name() gives its name.
    int host = -1;             // Host that served the recorded completion.
    uint32_t completions = 0;  // Recorded completions; exactly-once ⇒ 1.
    uint8_t attempts = 1;      // Dispatch attempts (1 = no retry), <= kMaxAttempts.
    bool warm_hit = false;
  };

  struct Rollup {
    Rollup() {}

    uint64_t submitted = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t retries = 0;
    uint64_t zombie_discards = 0;
    uint64_t warm_hits = 0;
    // Overload control & health (failed includes shed + expired).
    uint64_t shed = 0;             // Rejected at enqueue (admission).
    uint64_t expired = 0;          // Deadline already blown at dequeue.
    uint64_t retry_budget_denied = 0;
    uint64_t hedges = 0;           // Hedge copies dispatched.
    uint64_t hedge_wins = 0;       // Completions recorded from a hedge copy.
    uint64_t hedge_discards = 0;   // Surplus copies dropped post-terminal.
    uint64_t suspects = 0;         // alive→suspect transitions.
    uint64_t detector_deaths = 0;  // →dead transitions (phi or data-path).
    uint64_t reinstated = 0;       // suspect/dead→alive (heartbeat).
    uint64_t brownout_discards = 0;  // Warm clones shed under pressure.
    fwbase::SampleStats latency_ms;     // Completed requests only.
    fwbase::SampleStats startup_ms;
    double peak_pss_bytes = 0.0;
    uint64_t peak_live_vms = 0;
    // SLO health (slo.h): a request is "good" when it completes OK within
    // Config::slo.target; attainment is good/total across every terminal
    // outcome, worst_attainment the minimum per-app value.
    uint64_t slo_total = 0;
    uint64_t slo_good = 0;
    uint64_t slo_alerts = 0;
    double slo_attainment = 1.0;
    double slo_worst_attainment = 1.0;
    // Elastic fleet (zero in a static single-zone deployment).
    uint64_t hosts_added = 0;    // AddHost() provisions (manual + autoscaled).
    uint64_t hosts_removed = 0;  // RemoveHost() decommissions.
    uint64_t zone_outages = 0;   // zone_outage fault trips.
    double host_hours = 0.0;     // Provisioned host-time at rollup time.
    // Snapshot distribution tier counters (zero when the tier is disabled).
    DistributionStats distribution;
  };

  // Outcome of request `id` (valid once terminal). The reference stays valid
  // across later Submits, for the cluster's lifetime.
  const Outcome& outcome(uint64_t id) const;
  // Name of an app id carried by an Outcome. The reference stays valid for
  // the cluster's lifetime.
  const std::string& app_name(AppId app) const { return apps_.name(app); }
  uint64_t submitted() const { return outcomes_.size(); }
  uint64_t terminal() const { return completed_->value() + failed_->value(); }
  // Reads the cluster.* counters back out of obs().metrics().
  Rollup ComputeRollup() const;

  // Order-insensitive digest of every terminal outcome (id, host, attempts,
  // latency): equal digests ⇒ the two runs scheduled and timed identically.
  uint64_t OutcomeDigest() const;

  ClusterHost& host(int i) { return *hosts_[i]->host; }
  int num_hosts() const { return static_cast<int>(hosts_.size()); }
  // Ground truth (the fault bookkeeping), not the detector's belief; tests
  // compare the two.
  bool alive(int i) const { return hosts_[i]->alive; }
  // The failure detector's belief about each host: what heartbeats and
  // data-path errors support, and all the scheduler ever sees.
  const FailureDetector& detector() const { return *health_; }
  // Cluster-level observability (per-host metrics live on each FullHost's
  // own HostEnv). Enable obs().tracer() for cluster spans, obs().profiler()
  // for sim/wall hot-scope attribution (the ctor hooks it into the shared
  // Simulation's dispatch path). The registry is the only store of every
  // count the front end reports, and its cluster.* counters are registered
  // at construction: never Reset() a live cluster's metrics, or the rollup
  // and terminal() lose their counts.
  fwobs::Observability& obs() { return obs_; }
  // The snapshot distribution tier; nullptr when Config::distribution is
  // disabled.
  const SnapshotDistribution* distribution() const { return distribution_.get(); }

 private:
  // Append-only Outcome records in fixed chunks that never move: growth
  // copies no record, and a reference survives later appends.
  class OutcomeLedger {
   public:
    uint64_t size() const { return size_; }
    Outcome& operator[](uint64_t i) { return chunks_[i / kChunk][i % kChunk]; }
    const Outcome& operator[](uint64_t i) const { return chunks_[i / kChunk][i % kChunk]; }
    Outcome& Append() {
      if (size_ % kChunk == 0) {
        chunks_.push_back(std::make_unique<Outcome[]>(kChunk));
      }
      return (*this)[size_++];
    }

   private:
    static constexpr uint64_t kChunk = 4096;
    std::vector<std::unique_ptr<Outcome[]>> chunks_;
    uint64_t size_ = 0;
  };

  struct Request {
    uint64_t id = 0;
    AppId app = 0;
    std::string args;
    int attempts = 1;
    fwbase::SimTime submitted;
    // Absolute deadline (Max = none): admission sheds against it at enqueue,
    // workers drop against it at dequeue.
    fwbase::SimTime deadline = fwbase::SimTime::Max();
    // True for the second copy of a hedged request: its failures are dropped
    // silently (the primary drives retries and terminal failure).
    bool hedge = false;
  };

  struct HostState {
    std::unique_ptr<ClusterHost> host;
    std::unique_ptr<fwsim::Channel<Request>> queue;
    bool alive = true;
    uint64_t epoch = 0;
    // Failure domain (fixed at provision time) and lifecycle stage
    // (DESIGN.md §16). Only kActive hosts take new dispatch; the scheduler
    // ring holds exactly the kActive set.
    int zone = 0;
    HostLifecycle lifecycle = HostLifecycle::kActive;
    fwbase::SimTime partitioned_until;
    int64_t inflight = 0;  // Dispatched and not yet terminal.
    // Autoscaler state, indexed by AppId: arrivals since the last tick and
    // the rate EWMA, per app.
    std::vector<uint64_t> arrivals;
    std::vector<double> rate_ewma;
    // Clone preparations currently in flight (so a slow prepare is not
    // double-counted into the next tick's deficit).
    std::vector<int> preparing;
    // Sizes the per-app tables for `apps` ids; new entries start at zero.
    void GrowApps(size_t apps) {
      arrivals.resize(apps, 0);
      rate_ewma.resize(apps, 0.0);
      preparing.resize(apps, 0);
    }
    // EWMA of observed PrepareClone wall time, for the Little's-law target.
    double prepare_seconds_ewma = 0.05;
  };

  // Refills and returns `views_`, one view per host. Non-const: consulting
  // host views re-evaluates phi (suspect/dead transitions happen at
  // observation time, as they would in a control plane polling its
  // detector). The buffer is reused, so a caller may edit it but must not
  // hold it across a co_await or another Views() call.
  std::vector<HostView>& Views();
  // Interns `name` and, for a new id, grows every AppId-indexed table.
  AppId InternApp(const std::string& name);
  // True once the request has a recorded terminal outcome; the losing copy
  // of a hedged pair checks this before recording anything.
  bool Terminal(uint64_t id) const { return outcomes_[id - 1].completions > 0; }
  // Front-end placement; records a failed outcome when no host is available
  // or admission sheds the request. `exclude_host` (>= 0) is skipped when
  // any other alive host exists — retries avoid the host that just failed,
  // hedges avoid the primary's host.
  void Dispatch(Request req, int exclude_host = -1);
  // Retry after a crash bounce / zombie discard: spends retry budget,
  // respects kMaxAttempts.
  void RetryRequest(Request req, int failed_host);
  void RecordFailure(const Request& req, Status status);
  void RecordCompletion(const Request& req, const fwcore::InvocationResult& result,
                        int host_index, bool warm_hit);
  // Data-path death evidence for the detector + transition bookkeeping.
  void ReportHostFailure(int host_index);
  void ApplyTransition(int host_index, HealthTransition transition);
  double PssFraction(int host_index) const;
  // Quantile-based hedge trigger delay (hedge_min_delay until enough
  // completions have been observed).
  Duration HedgeDelay() const;
  fwsim::Co<void> Worker(int host_index);
  fwsim::Co<void> Heartbeater(int host_index);
  fwsim::Co<void> Hedger(uint64_t id, AppId app, std::string args,
                         fwbase::SimTime submitted, fwbase::SimTime deadline);
  fwsim::Co<void> Autoscaler(int host_index);
  // One concurrent clone preparation; discards the clone if the host crashed
  // while it was being prepared (its memory is gone).
  fwsim::Co<void> PrepareOne(int host_index, AppId app, uint64_t epoch);
  // Starts one PrepareOne for `app` on `host_index` unless its parked plus
  // preparing clones already reach `cap`.
  void TopUpPool(int host_index, AppId app, int cap);
  fwsim::Co<void> Sampler();
  // Whether host i may take new dispatch (lifecycle kActive; liveness is the
  // detector's call, not this one's).
  bool Schedulable(int host_index) const {
    return hosts_[host_index]->lifecycle == HostLifecycle::kActive;
  }
  // Appends a host's state in `zone` at `lifecycle`, opens its ledger entry
  // and spawns its workers, autoscaler and heartbeater; returns its index.
  // The constructor and AddHost both provision through here.
  int ProvisionHost(std::unique_ptr<ClusterHost> host, int zone, HostLifecycle lifecycle);
  // Installs every app + one state-machine coroutine per elastic concern.
  // JoinWarmup: cold host → install apps → snapshot fetch + warm clones →
  // admit to ring (kJoining → kWarming → kActive).
  fwsim::Co<void> JoinWarmup(int host_index, uint64_t epoch);
  // DrainAndRemove: replenish warm capacity elsewhere, wait out inflight,
  // tear down (kDraining → kRemoved).
  fwsim::Co<void> DrainAndRemove(int host_index);
  // Every autoscale tick, for each app with a non-zero submit-rate EWMA,
  // makes each of Scheduler::WarmTargets(app, 2) — the ring owner and the
  // first host clockwise in another zone — hold or prepare at least one
  // clone. Only spawned with num_zones > 1 and autoscale on.
  fwsim::Co<void> ZoneSpreader();
  // Host-count autoscaler (gated on Config::fleet.enabled + host_factory).
  fwsim::Co<void> FleetAutoscaler();
  // Polls the fault plan for zone_outage trips (gated on the plan).
  fwsim::Co<void> ZoneOutageLoop();
  fwsim::Co<void> RestoreZoneAfter(int zone, fwbase::Duration delay);

  fwsim::Simulation& sim_;
  Config config_;
  // Every app name the front end has seen, interned at InstallAll and
  // Submit. Declared before the SLO monitor and distribution tier, which
  // read names from it.
  AppTable apps_;
  fwobs::Observability obs_;
  SloMonitor slo_;
  fwobs::ProfScopeId dispatch_scope_ = 0;
  fwobs::ProfScopeId invoke_scope_ = 0;
  std::unique_ptr<Scheduler> scheduler_;
  std::unique_ptr<FailureDetector> health_;
  AdmissionController admission_;
  RetryBudget retry_budget_;
  fwfault::FaultInjector injector_;
  std::unique_ptr<SnapshotDistribution> distribution_;
  // Heap-allocated so references held across AddHost() stay stable: worker
  // and autoscaler coroutines bind HostState& for their whole lifetime, and
  // push_back only moves the unique_ptrs.
  std::vector<std::unique_ptr<HostState>> hosts_;
  std::vector<HostView> views_;  // Views()' buffer: no allocation per dispatch.
  std::vector<AppId> installed_;  // Install order (autoscaler iteration).
  // Copies of every installed function, so a host provisioned after
  // InstallAll can run the same install sequence during its join warm-up.
  std::vector<fwlang::FunctionSource> installed_sources_;
  bool running_ = true;

  // Handles to the cluster.* counters, resolved once by the constructor.
  // Each count the front end reports lives only here, in the registry.
  fwobs::Counter* submitted_ = nullptr;
  fwobs::Counter* completed_ = nullptr;
  fwobs::Counter* failed_ = nullptr;
  fwobs::Counter* warm_hits_ = nullptr;
  fwobs::Counter* retries_ = nullptr;
  fwobs::Counter* zombie_discards_ = nullptr;
  fwobs::Counter* shed_ = nullptr;
  fwobs::Counter* expired_ = nullptr;
  fwobs::Counter* retry_budget_denied_ = nullptr;
  fwobs::Counter* hedges_ = nullptr;
  fwobs::Counter* hedge_wins_ = nullptr;
  fwobs::Counter* hedge_discards_ = nullptr;
  fwobs::Counter* suspects_ = nullptr;
  fwobs::Counter* detector_deaths_ = nullptr;
  fwobs::Counter* reinstated_ = nullptr;
  fwobs::Counter* brownout_discards_ = nullptr;
  fwobs::Counter* host_crashes_ = nullptr;
  fwobs::Counter* host_restarts_ = nullptr;
  fwobs::Counter* host_partitions_ = nullptr;
  fwobs::Counter* zone_outages_ = nullptr;
  fwobs::Counter* hosts_added_ = nullptr;
  fwobs::Counter* hosts_admitted_ = nullptr;
  fwobs::Counter* hosts_removed_ = nullptr;
  fwobs::Counter* hosts_decommissioned_ = nullptr;
  std::unique_ptr<FleetPlanner> fleet_planner_;  // Only with fleet.enabled.
  FleetLedger fleet_ledger_;
  // Cluster-level Little's-law signals for the fleet planner: submitted()
  // at the last fleet tick (the arrivals since are the difference), and an
  // EWMA (alpha 0.3) of the intrinsic per-request cost, startup + exec, of
  // successful invocations, which cold samples may only lower (see
  // Worker). This is not the admission controller's signal: that one is
  // kept per host, over dequeue→response time, at alpha 0.2.
  uint64_t fleet_tick_mark_ = 0;
  double service_seconds_ewma_ = 0.05;
  // Per-app arrivals since the last ZoneSpreader tick, and the rate EWMAs it
  // maintains, indexed by AppId.
  std::vector<uint64_t> spread_arrivals_;
  std::vector<double> spread_rate_ewma_;
  OutcomeLedger outcomes_;  // Indexed by request id - 1.
  // Last host each request's primary copy went to, indexed by request id - 1;
  // only hedging reads it, so it stays empty with hedging off.
  std::vector<int> primary_host_;
  // Ring of the most recent completed latencies, feeding HedgeDelay(). The
  // hedge trigger must track the *current* tail: a cumulative quantile stays
  // poisoned by a past overload episode long after the fleet recovers,
  // pinning the delay above any real straggler so hedges never fire. The
  // ring says which value leaves the window; the sorted copy of it is what
  // HedgeDelay() reads the quantile from. Only hedging reads either, so both
  // stay empty with hedging off.
  std::vector<double> recent_latency_ms_;
  std::vector<double> recent_latency_sorted_ms_;
  size_t recent_latency_next_ = 0;
  fwbase::SampleStats latency_ms_;
  fwbase::SampleStats startup_ms_;
  double peak_pss_bytes_ = 0.0;
  uint64_t peak_live_vms_ = 0;
};

static_assert(sizeof(Cluster::Outcome) == 64);

}  // namespace fwcluster

#endif  // FIREWORKS_SRC_CLUSTER_CLUSTER_H_
