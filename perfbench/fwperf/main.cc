// fwperf: the repository benchmark.
//
//   fwperf --workload NAME --seed N --seconds S --trace 0|1 [--scale tiny]
//
// Runs one of three seeded, open-loop workloads (one process, one thread)
// against the cluster simulator and prints, as its last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}:
//
//   --trace 0  end-to-end metrics. The modelled platform's simulated latency,
//              SLO attainment, memory bill and capacity are deterministic per
//              seed, and come from one run of the whole workload. The
//              simulator's own CPU per invocation, set-up time and RSS are
//              not: a slice of the workload is replayed between and after
//              the capacity ladder's rungs until the two have taken S
//              seconds, CPU is the per-segment minimum over the replays and
//              set-up time the median over every set-up. Replays must
//              reproduce the first bit-for-bit (outcome digest, event count,
//              heap-allocation count).
//   --trace 1  per-layer metrics, from a traced run: a forwarding decorator
//              around every host, the cluster and host span tracers, and the
//              scope profilers. The traced run must replay the untraced one
//              (same digest and event count), and every completed request's
//              latency split must add up exactly.
//
// Any failed check prints "correct": false and exits 1; bad flags exit 2.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/fwperf/alloc_count.h"
#include "perfbench/fwperf/traced_host.h"
#include "src/base/check.h"
#include "src/base/stats.h"
#include "src/base/strings.h"
#include "src/cluster/calibrate.h"
#include "src/cluster/cluster.h"
#include "src/cluster/fleet_manager.h"
#include "src/cluster/host.h"
#include "src/core/fireworks.h"
#include "src/obs/profiler.h"
#include "src/obs/trace.h"
#include "src/simcore/run_sync.h"
#include "src/workloads/faasdom.h"
#include "src/workloads/loadgen.h"

namespace fwperf {
namespace {

using fwbase::Duration;
using fwbase::SimTime;
using fwcluster::Cluster;
using fwcluster::ClusterHost;

// --- Host clocks (benchmark measurement only; never fed into a run) -------

double WallSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t WallNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Process CPU time (user + sys).
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

double Median(std::vector<double> v) {
  FW_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Percentile that reads 0 instead of NaN for an empty sample.
double Pct(const fwbase::SampleStats& s, double p) {
  return s.count() == 0 ? 0.0 : s.Percentile(p);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

constexpr double kMiB = 1024.0 * 1024.0;

// --- Workloads -------------------------------------------------------------

struct AppInfo {
  AppInfo() {}
  fwlang::FunctionSource source;
  std::string language;  // "nodejs" | "python"
};

struct Spec {
  Spec() {}

  std::string name;
  bool full_hosts = false;  // FullHost fleet; otherwise calibrated ModelHosts.
  int hosts = 0;            // Initial fleet size.
  std::vector<AppInfo> apps;
  uint64_t invocations = 0;
  fwwork::LoadGenConfig trace;  // rate_per_sec is the nominal rate.
  Cluster::Config cluster;      // host_factory is filled in per run.
  // Poisson arrivals at the nominal rate offered before the trace and left
  // out of the latency, SLO and completion metrics, so the trace meets warm
  // pools: a burst that lands on the standing start would otherwise set the
  // peak PSS for the whole run.
  uint64_t warmup_requests = 0;
  // Whether the traced run records cluster-level spans (registry fetches,
  // fleet joins). Off where no per-layer metric reads them: span storage
  // grows with every request.
  bool cluster_spans = false;
  // Capacity ladder: each rung offers ladder_requests Poisson arrivals at a
  // multiple of the nominal rate.
  uint64_t ladder_requests = 0;
  int ladder_bisections = 0;
  // Trace requests in the slice the simulator's CPU is measured on: the
  // warm-up plus this prefix of the trace, replayed many times (see
  // EndToEnd).
  uint64_t cpu_slice_requests = 0;
};

// `n` renamed copies of faas-netlatency-nodejs, the function ModelHosts are
// calibrated on.
std::vector<AppInfo> NamedCopies(int n) {
  std::vector<AppInfo> apps;
  for (int i = 0; i < n; ++i) {
    AppInfo app;
    app.source = fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency, fwlang::Language::kNodeJs);
    app.source.name = fwbase::StrFormat("app-%03d", i);
    app.language = "nodejs";
    apps.push_back(std::move(app));
  }
  return apps;
}

std::optional<Spec> MakeSpec(const std::string& name, bool tiny) {
  Spec spec;
  spec.name = name;
  if (name == "fleet_steady") {
    // 128-host calibrated fleet under bursty load: the front end and the
    // event kernel carry the simulator's cost. Short MMPP cycles (0.1 s bursts
    // at 3x the calm rate, 1 s apart) keep the realised mean rate and the
    // tail within a few percent across seeds; long cycles make a 1M-request
    // run catch a seed-dependent handful of bursts.
    spec.hosts = tiny ? 8 : 128;
    spec.apps = NamedCopies(tiny ? 16 : 64);
    spec.invocations = tiny ? 20000 : 1000000;
    spec.trace.arrival = fwwork::ArrivalProcess::kBursty;
    spec.trace.rate_per_sec = tiny ? 1500.0 : 16000.0;
    spec.trace.burst_multiplier = 3.0;
    spec.trace.mean_burst_seconds = 0.1;
    spec.trace.mean_calm_seconds = 0.9;
    spec.warmup_requests = tiny ? 3000 : 48000;
    spec.cluster.policy = fwcluster::SchedulerPolicy::kSnapshotLocality;
    spec.ladder_requests = tiny ? 4000 : 100000;
    spec.ladder_bisections = tiny ? 1 : 4;
    spec.cpu_slice_requests = tiny ? 4000 : 100000;
  } else if (name == "fleet_churn") {
    // Elastic 2-12 host fleet in 3 zones with the full distribution tier,
    // under the diurnal + flash-crowd trace. Flashes of x1.5 and 16 workers
    // per host let the fleet absorb a flash while joins land; with x2
    // flashes or 8 workers the p99/p99.9 swung by up to 3x across seeds on
    // how each flash met the planner.
    spec.hosts = 2;
    spec.apps = NamedCopies(tiny ? 16 : 48);
    spec.invocations = tiny ? 20000 : 600000;
    spec.trace.arrival = fwwork::ArrivalProcess::kDiurnalFlash;
    spec.trace.rate_per_sec = tiny ? 600.0 : 1000.0;
    spec.trace.diurnal_period_seconds = tiny ? 20.0 : 120.0;
    spec.trace.diurnal_amplitude = 0.8;
    spec.trace.flash_multiplier = 1.5;
    spec.trace.flash_interval_seconds = tiny ? 10.0 : 45.0;
    spec.trace.flash_duration_seconds = tiny ? 2.0 : 8.0;
    spec.trace.flash_offset_seconds = tiny ? 5.0 : 30.0;
    spec.cluster.policy = fwcluster::SchedulerPolicy::kSnapshotLocality;
    spec.cluster.num_zones = 3;
    spec.cluster.workers_per_host = 16;
    spec.cluster.distribution.enabled = true;
    fwcluster::FleetConfig& fleet = spec.cluster.fleet;
    fleet.enabled = true;
    fleet.interval = Duration::Millis(500);
    fleet.safety = 2.0;
    fleet.min_hosts = 2;
    fleet.max_hosts = 12;
    fleet.host_capacity = 6;
    fleet.rate_ewma_alpha = 0.5;
    fleet.scale_down_ticks = 4;
    fleet.max_add_per_tick = 6;
    spec.cluster_spans = true;
    spec.ladder_requests = tiny ? 4000 : 100000;
    spec.ladder_bisections = tiny ? 1 : 5;
    // One diurnal period, two flash crowds and the joins they trigger.
    spec.cpu_slice_requests = tiny ? 4000 : 120000;
  } else if (name == "host_fullstack") {
    // Four full-fidelity hosts: every invocation runs the whole Fireworks
    // path (netns, bus, restore with CoW faults, JIT or interpreter exec).
    spec.full_hosts = true;
    spec.hosts = 4;
    // Zipf rank order. Latency is a staircase of app x path values, so the
    // order decides which stair each percentile reads: the hottest app
    // (faas-fact-python, restore path ~220 ms) holds the top percent of the
    // distribution, and faas-fact-nodejs's warm stair spans the median with
    // ~8% of requests to spare on either side.
    using fwwork::FaasdomBench;
    const fwlang::Language kNode = fwlang::Language::kNodeJs;
    const fwlang::Language kPy = fwlang::Language::kPython;
    const std::pair<FaasdomBench, fwlang::Language> kOrder[] = {
        {FaasdomBench::kFact, kPy},         {FaasdomBench::kFact, kNode},
        {FaasdomBench::kMatrixMult, kNode}, {FaasdomBench::kMatrixMult, kPy},
        {FaasdomBench::kDiskIo, kNode},     {FaasdomBench::kDiskIo, kPy},
        {FaasdomBench::kNetLatency, kNode}, {FaasdomBench::kNetLatency, kPy}};
    for (const auto& [bench, lang] : kOrder) {
      AppInfo app;
      app.source = fwwork::MakeFaasdom(bench, lang);
      app.language = fwlang::LanguageName(lang);
      spec.apps.push_back(std::move(app));
    }
    spec.invocations = tiny ? 600 : 10000;
    spec.trace.arrival = fwwork::ArrivalProcess::kPoisson;
    spec.trace.rate_per_sec = 400.0;
    spec.cluster.policy = fwcluster::SchedulerPolicy::kSnapshotLocality;
    spec.ladder_requests = tiny ? 400 : 2500;
    spec.ladder_bisections = tiny ? 1 : 3;
    spec.cpu_slice_requests = tiny ? 200 : 1500;
  } else {
    return std::nullopt;
  }
  spec.trace.num_apps = static_cast<int>(spec.apps.size());
  return spec;
}

fwcluster::HostCalibration Calibrate(uint64_t seed) {
  fwcluster::CalibrationOptions copt;
  copt.seed = seed;
  const fwlang::FunctionSource probe =
      fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency, fwlang::Language::kNodeJs);
  return fwcluster::CalibratePlatform(
      [](fwcore::HostEnv& env) { return std::make_unique<fwcore::FireworksPlatform>(env); },
      probe, copt);
}

// --- Open-loop load generator -----------------------------------------------

struct DriveState {
  DriveState() {}
  fwwork::LoadGenConfig config;
  uint64_t warmup = 0;  // Poisson requests before the trace.
  uint64_t count = 0;   // Trace requests.
  const std::vector<std::string>* apps = nullptr;
  bool timed = false;  // Wall-time LoadGen::Next and Cluster::Submit.
  uint64_t cpu_mark_every = 0;     // Requests between two process-CPU marks.
  std::vector<double> cpu_marks;   // Process CPU seconds at each mark.
  std::vector<int64_t> due_ns;     // Indexed by request id - 1.
  std::vector<int64_t> submit_ns;  // Ditto.
  uint64_t late_submits = 0;
  int64_t max_late_ns = 0;
  int64_t next_wall_ns = 0;
  int64_t submit_wall_ns = 0;
};

// Submits every arrival at its due time, whatever the cluster is doing: the
// generator never waits on a response.
fwsim::Co<void> DriveLoad(fwsim::Simulation& sim, Cluster& cluster, DriveState& st) {
  fwwork::LoadGenConfig warmup_config = st.config;
  warmup_config.arrival = fwwork::ArrivalProcess::kPoisson;
  fwwork::LoadGen warmup(warmup_config);
  fwwork::LoadGen trace(st.config);
  SimTime start = sim.Now();
  st.due_ns.reserve(st.warmup + st.count);
  st.submit_ns.reserve(st.warmup + st.count);
  for (uint64_t i = 0; i < st.warmup + st.count; ++i) {
    if (i == st.warmup) {
      start = sim.Now();  // The trace starts where the warm-up ends.
    }
    if (i > 0 && i % st.cpu_mark_every == 0) {
      st.cpu_marks.push_back(CpuSeconds());
    }
    fwwork::LoadGen& gen = i < st.warmup ? warmup : trace;
    const int64_t w0 = st.timed ? WallNanos() : 0;
    const fwwork::Arrival a = gen.Next();
    if (st.timed) {
      st.next_wall_ns += WallNanos() - w0;
    }
    const SimTime due = start + a.offset;
    if (due > sim.Now()) {
      co_await fwsim::Delay(sim, due - sim.Now());
    }
    const int64_t late = (sim.Now() - due).nanos();
    if (late > 0) {
      ++st.late_submits;
      st.max_late_ns = std::max(st.max_late_ns, late);
    }
    st.due_ns.push_back(due.nanos());
    st.submit_ns.push_back(sim.Now().nanos());
    const int64_t w1 = st.timed ? WallNanos() : 0;
    (void)cluster.Submit((*st.apps)[static_cast<size_t>(a.app)], "payload");
    if (st.timed) {
      st.submit_wall_ns += WallNanos() - w1;
    }
  }
}

// --- One run ------------------------------------------------------------------

struct Metric {
  Metric() {}
  Metric(double v, std::string u) : value(v), unit(std::move(u)) {}
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

struct RunResult {
  RunResult() {}

  double setup_s = 0.0;  // Calibration + host build + InstallAll (wall).
  // Process max RSS when the run ends: in the first run of a process, that
  // run's own peak, whatever number of runs follows it.
  double peak_rss_mib = 0.0;
  double cpu_s = 0.0;    // Process CPU over the measured phase.
  // Process CPU from the start of the measured phase to each CPU mark, and to
  // its end: the segments between marks do the same work in every repeat.
  std::vector<double> cpu_marks;
  uint64_t events = 0;   // Simulation events over the measured phase.
  AllocCounts allocs;    // Heap allocations over the measured phase.
  uint64_t digest = 0;
  Cluster::Rollup rollup;
  uint64_t requests = 0;   // Every request, warm-up included.
  uint64_t submitted = 0;  // Trace requests, the ones the metrics describe.
  uint64_t completed = 0;
  uint64_t failed = 0;  // Failed + shed + expired.
  uint64_t slo_good = 0;
  fwbase::SampleStats latency_ms;  // Completed requests, timed from due time.
  double drain_s = 0.0;            // Last arrival -> last terminal outcome.
  double load_sim_s = 0.0;         // First arrival -> end of the drain.
  double host_seconds = 0.0;       // Provisioned host-time, warm-up included.
  std::vector<std::string> violations;
  MetricMap layers;  // Traced runs only.

  double cpu_us_per_inv() const { return Ratio(cpu_s * 1e6, static_cast<double>(requests)); }
  double failed_frac() const {
    return Ratio(static_cast<double>(failed), static_cast<double>(submitted));
  }
};

void Violation(RunResult& r, std::string what) {
  std::fprintf(stderr, "fwperf: CHECK FAILED: %s\n", what.c_str());
  r.violations.push_back(std::move(what));
}

// Per-host span index for the DESIGN.md §7 split: an invocation's child
// windows are contiguous, so each child starts where the previous one ended.
// The host tracer parents spans by a per-host open-span stack, which
// interleaved invocations share, so children are found by (name, start time)
// rather than by parent link.
class InvocationSpans {
 public:
  enum Child { kFrontend, kNetns, kProduce, kRestore, kConsume, kExec, kResponse, kChildren };

  explicit InvocationSpans(const fwobs::Tracer& tracer) {
    for (const fwobs::Span& s : tracer.spans()) {
      if (!s.finished()) {
        continue;
      }
      const std::string& n = s.name();
      if (n == "fireworks.invoke" || n == "fireworks.invoke_warm") {
        roots_.push_back(&s);
      } else if (n == "invoke.clock_rebase") {
        by_end_[{1, s.end().nanos()}].push_back(&s);
      } else if (n == "invoke.guest_reseed") {
        by_end_[{0, s.end().nanos()}].push_back(&s);
      } else if (n == "hv.restore_vm") {
        restore_vm_ms.Add(s.duration().millis());
      } else {
        const int c = ChildIndex(n);
        if (c >= 0) {
          by_start_[{c, s.start().nanos()}].push_back(&s);
        }
      }
    }
  }

  const std::vector<const fwobs::Span*>& roots() const { return roots_; }

  // Matches the root's child chain; on success adds each child's duration to
  // child_ns and returns true.
  bool Match(const fwobs::Span& root) {
    static const std::vector<Child> kRestorePath = {kFrontend, kNetns,   kProduce, kRestore,
                                                    kConsume,  kExec,    kResponse};
    static const std::vector<Child> kWarmPath = {kFrontend, kProduce, kConsume, kExec,
                                                 kResponse};
    const auto& path = root.name() == "fireworks.invoke" ? kRestorePath : kWarmPath;
    std::vector<const fwobs::Span*> chain;
    if (!Walk(path, 0, root.start().nanos(), root.end().nanos(), chain)) {
      return false;
    }
    for (size_t k = 0; k < path.size(); ++k) {
      child_ns[path[k]] += chain[k]->duration().nanos();
      if (path[k] == kRestore) {
        reseed_ns += ReseedWithin(*chain[k]);
      }
    }
    return true;
  }

  int64_t child_ns[kChildren] = {};
  int64_t reseed_ns = 0;  // vmgenid protocol inside invoke.restore.
  fwbase::SampleStats restore_vm_ms;

 private:
  static int ChildIndex(const std::string& n) {
    static const char* kNames[kChildren] = {
        "invoke.frontend",       "invoke.netns", "invoke.params.produce", "invoke.restore",
        "invoke.params.consume", "invoke.exec",  "invoke.response"};
    for (int i = 0; i < kChildren; ++i) {
      if (n == kNames[i]) {
        return i;
      }
    }
    return -1;
  }

  bool Walk(const std::vector<Child>& path, size_t k, int64_t t, int64_t end,
            std::vector<const fwobs::Span*>& chain) {
    if (k == path.size()) {
      return t == end;
    }
    auto it = by_start_.find({path[k], t});
    if (it == by_start_.end()) {
      return false;
    }
    std::vector<const fwobs::Span*>& candidates = it->second;
    for (size_t i = 0; i < candidates.size(); ++i) {
      const fwobs::Span* s = candidates[i];
      candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(i));
      chain.push_back(s);
      if (Walk(path, k + 1, s->end().nanos(), end, chain)) {
        return true;
      }
      chain.pop_back();
      candidates.insert(candidates.begin() + static_cast<std::ptrdiff_t>(i), s);
    }
    return false;
  }

  // The reseed + clock-rebase pair that closes a restore window.
  int64_t ReseedWithin(const fwobs::Span& restore) {
    const fwobs::Span* rebase = Take(1, restore.end().nanos());
    if (rebase == nullptr) {
      return 0;
    }
    const fwobs::Span* reseed = Take(0, rebase->start().nanos());
    return rebase->duration().nanos() + (reseed != nullptr ? reseed->duration().nanos() : 0);
  }

  const fwobs::Span* Take(int kind, int64_t end_ns) {
    auto it = by_end_.find({kind, end_ns});
    if (it == by_end_.end() || it->second.empty()) {
      return nullptr;
    }
    const fwobs::Span* s = it->second.back();
    it->second.pop_back();
    return s;
  }

  std::vector<const fwobs::Span*> roots_;
  std::map<std::pair<int, int64_t>, std::vector<const fwobs::Span*>> by_start_;
  std::map<std::pair<int, int64_t>, std::vector<const fwobs::Span*>> by_end_;
};

const fwobs::Profiler::ScopeTotals* FindScope(
    const std::vector<fwobs::Profiler::ScopeTotals>& totals, const char* name) {
  for (const auto& t : totals) {
    if (t.name == name) {
      return &t;
    }
  }
  return nullptr;
}

// Wall self time per call of a profiler scope, summed over profilers.
double SelfNanosPerCall(const std::vector<const fwobs::Profiler*>& profilers, const char* name) {
  double nanos = 0.0;
  double calls = 0.0;
  for (const fwobs::Profiler* p : profilers) {
    const auto totals = p->Totals();
    if (const auto* t = FindScope(totals, name)) {
      nanos += static_cast<double>(t->wall_self_nanos);
      calls += static_cast<double>(t->calls);
    }
  }
  return Ratio(nanos, calls);
}

std::string AttrOf(const fwobs::Span& s, const char* key) {
  for (const auto& [k, v] : s.attributes()) {
    if (k == key) {
      return v;
    }
  }
  return std::string();
}

// Per-request latency split (traced runs). Every completed request must pair
// with the host Invoke call that produced it: same host, started no earlier
// than the submit, ended at the completion instant, and reporting the same
// startup and exec. That call's own split must add up in integer
// nanoseconds: startup + exec + others = total = end - start. The cluster
// keeps no wait figure of its own, so wait is derived from the paired call as
// (invoke start - due) + others; given the two checks, wait + startup + exec
// equals the latency from the due time by construction.
void CheckLatencySplit(const Cluster& cluster, const DriveState& drive, const HostCallLog& log,
                       RunResult& r, fwbase::SampleStats& wait_ms) {
  std::vector<size_t> order;
  order.reserve(log.invokes.size());
  for (size_t i = 0; i < log.invokes.size(); ++i) {
    if (log.invokes[i].ok) {
      order.push_back(i);
    }
  }
  auto key = [&log](size_t i) {
    return std::make_pair(log.invokes[i].host, log.invokes[i].end_ns);
  };
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) { return key(a) < key(b); });
  std::vector<uint8_t> used(log.invokes.size(), 0);
  uint64_t unpaired = 0;
  uint64_t bad_split = 0;
  for (uint64_t id = 1; id <= cluster.submitted(); ++id) {
    const Cluster::Outcome& o = cluster.outcome(id);
    if (!o.status.ok()) {
      continue;
    }
    const int64_t submit = drive.submit_ns[id - 1];
    const int64_t done = submit + o.latency.nanos();
    const InvokeRecord* rec = nullptr;
    auto it = std::lower_bound(order.begin(), order.end(), std::make_pair(o.host, done),
                               [&](size_t i, const std::pair<int, int64_t>& k) {
                                 return key(i) < k;
                               });
    for (; it != order.end() && key(*it) == std::make_pair(o.host, done); ++it) {
      const InvokeRecord& c = log.invokes[*it];
      if (used[*it] == 0 && c.start_ns >= submit && c.startup_ns == o.startup.nanos() &&
          c.exec_ns == o.exec.nanos()) {
        used[*it] = 1;
        rec = &c;
        break;
      }
    }
    if (rec == nullptr) {
      ++unpaired;
      continue;
    }
    if (rec->startup_ns + rec->exec_ns + rec->others_ns != rec->total_ns ||
        rec->total_ns != rec->end_ns - rec->start_ns) {
      ++bad_split;
      continue;
    }
    wait_ms.Add(static_cast<double>(rec->start_ns - drive.due_ns[id - 1] + rec->others_ns) / 1e6);
  }
  if (unpaired > 0) {
    Violation(r, fwbase::StrFormat("%" PRIu64 " completed requests with no host Invoke ending "
                                   "at their completion", unpaired));
  }
  if (bad_split > 0) {
    Violation(r, fwbase::StrFormat("%" PRIu64 " host Invoke calls whose startup + exec + others "
                                   "is not their duration", bad_split));
  }
}

// Fills r.layers from a finished traced run.
void CollectLayers(const Spec& spec, Cluster& cluster,
                   const DriveState& drive, const HostCallLog& log,
                   const std::vector<TracedHost*>& hosts, double install_sim_ms,
                   double install_wall_ms, RunResult& r) {
  // Layer metrics cover every request, warm-up included.
  MetricMap& m = r.layers;
  const Cluster::Rollup& ro = r.rollup;
  const double completed = static_cast<double>(ro.completed);
  const double submitted = static_cast<double>(r.requests);

  // simcore / cluster profiler scopes.
  std::vector<const fwobs::Profiler*> cluster_prof = {&cluster.obs().profiler()};
  m["simcore.dispatch_ns"] = Metric(SelfNanosPerCall(cluster_prof, "sim.event.dispatch"), "ns");
  m["simcore.resume_ns"] = Metric(SelfNanosPerCall(cluster_prof, "sim.coro.resume"), "ns");
  m["cluster.dispatch_ns"] = Metric(SelfNanosPerCall(cluster_prof, "cluster.dispatch"), "ns");

  // workloads.
  m["workloads.next_ns"] = Metric(Ratio(static_cast<double>(drive.next_wall_ns), submitted), "ns");
  m["workloads.late_submits"] = Metric(static_cast<double>(drive.late_submits), "count");
  m["workloads.max_late_ms"] = Metric(static_cast<double>(drive.max_late_ns) / 1e6, "ms");

  // cluster front end.
  m["cluster.submit_ns"] = Metric(Ratio(static_cast<double>(drive.submit_wall_ns), submitted), "ns");
  fwbase::SampleStats wait_ms;
  CheckLatencySplit(cluster, drive, log, r, wait_ms);
  m["cluster.wait_ms.p50"] = Metric(Pct(wait_ms, 50.0), "ms");
  m["cluster.wait_ms.p99"] = Metric(Pct(wait_ms, 99.0), "ms");
  m["cluster.warm_hit_frac"] = Metric(Ratio(static_cast<double>(ro.warm_hits), completed), "fraction");
  double attempts = 0.0;
  for (uint64_t id = 1; id <= cluster.submitted(); ++id) {
    attempts += cluster.outcome(id).attempts;
  }
  m["cluster.attempts_per_req"] = Metric(Ratio(attempts, submitted), "count");
  m["cluster.retries"] = Metric(static_cast<double>(ro.retries), "count");
  m["cluster.shed"] = Metric(static_cast<double>(ro.shed), "count");
  m["cluster.expired"] = Metric(static_cast<double>(ro.expired), "count");
  m["cluster.hedges"] = Metric(static_cast<double>(ro.hedges), "count");
  m["cluster.peak_live_vms"] = Metric(static_cast<double>(ro.peak_live_vms), "count");
  m["cluster.completed"] = Metric(completed, "count");
  m["cluster.failed_frac"] = Metric(Ratio(static_cast<double>(ro.failed), submitted), "fraction");

  // cluster.host: the decorator's view of every host call.
  fwbase::SampleStats invoke_ms, startup_ms, exec_ms, others_ms;
  std::map<std::string, fwbase::SampleStats> exec_by_lang;
  double restore_path = 0.0, ok_invokes = 0.0, jit_ms = 0.0, fault_ms = 0.0, deopts = 0.0;
  for (const InvokeRecord& rec : log.invokes) {
    if (!rec.ok) {
      continue;
    }
    ok_invokes += 1.0;
    invoke_ms.Add(static_cast<double>(rec.end_ns - rec.start_ns) / 1e6);
    startup_ms.Add(static_cast<double>(rec.startup_ns) / 1e6);
    exec_ms.Add(static_cast<double>(rec.exec_ns) / 1e6);
    others_ms.Add(static_cast<double>(rec.others_ns) / 1e6);
    restore_path += rec.warm ? 0.0 : 1.0;
    jit_ms += static_cast<double>(rec.jit_compile_ns) / 1e6;
    fault_ms += static_cast<double>(rec.fault_ns) / 1e6;
    deopts += static_cast<double>(rec.deopts);
    if (rec.app >= 0) {
      exec_by_lang[spec.apps[static_cast<size_t>(rec.app)].language].Add(
          static_cast<double>(rec.exec_ns) / 1e6);
    }
  }
  m["cluster.host.invoke_ms.p50"] = Metric(Pct(invoke_ms, 50.0), "ms");
  m["cluster.host.invoke_ms.p99"] = Metric(Pct(invoke_ms, 99.0), "ms");
  m["cluster.host.prepare_ms.p50"] = Metric(Pct(log.prepare_ms, 50.0), "ms");
  m["cluster.host.prepares"] = Metric(static_cast<double>(log.prepares), "count");
  m["cluster.host.discards"] = Metric(static_cast<double>(log.discards), "count");
  m["cluster.host.prepare_used_frac"] = Metric(
      Ratio(static_cast<double>(ro.warm_hits), static_cast<double>(log.prepares)), "fraction");

  // cluster.distribution.
  const fwcluster::DistributionStats& d = ro.distribution;
  const double local_bytes = static_cast<double>(d.bytes_from_cache);
  const double all_bytes = static_cast<double>(d.bytes_from_cache + d.bytes_from_peer +
                                               d.bytes_from_registry);
  fwbase::SampleStats cold_fetch_ms, join_ms;
  std::map<std::string, int64_t> join_start;
  for (const fwobs::Span& s : cluster.obs().tracer().spans()) {
    if (s.name() == "registry.cold_fetch" && s.finished()) {
      cold_fetch_ms.Add(s.duration().millis());
    } else if (s.name() == "fleet.join") {
      join_start[AttrOf(s, "host")] = s.start().nanos();
    } else if (s.name() == "fleet.admit") {
      const auto it = join_start.find(AttrOf(s, "host"));
      if (it != join_start.end()) {
        join_ms.Add(static_cast<double>(s.start().nanos() - it->second) / 1e6);
      }
    }
  }
  m["cluster.distribution.cold_fetches"] = Metric(static_cast<double>(d.cold_fetches), "count");
  m["cluster.distribution.coalesced"] = Metric(static_cast<double>(d.coalesced), "count");
  m["cluster.distribution.registry_mib"] =
      Metric(static_cast<double>(d.bytes_from_registry) / kMiB, "MiB");
  m["cluster.distribution.peer_mib"] = Metric(static_cast<double>(d.bytes_from_peer) / kMiB, "MiB");
  m["cluster.distribution.cache_mib"] =
      Metric(static_cast<double>(d.bytes_from_cache) / kMiB, "MiB");
  m["cluster.distribution.cache_evictions"] =
      Metric(static_cast<double>(d.cache_evictions), "count");
  m["cluster.distribution.local_byte_frac"] = Metric(Ratio(local_bytes, all_bytes), "fraction");
  m["cluster.distribution.cold_fetch_ms.p99"] = Metric(Pct(cold_fetch_ms, 99.0), "ms");

  // cluster.fleet.
  m["cluster.fleet.hosts_added"] = Metric(static_cast<double>(ro.hosts_added), "count");
  m["cluster.fleet.hosts_removed"] = Metric(static_cast<double>(ro.hosts_removed), "count");
  m["cluster.fleet.mean_hosts"] = Metric(Ratio(r.host_seconds, r.load_sim_s), "count");
  m["cluster.fleet.join_ms.p50"] = Metric(Pct(join_ms, 50.0), "ms");

  // core: the host's own startup/exec/others split, and (FullHost) the
  // invoke.* child windows of every invocation's root span.
  m["core.startup_ms.p50"] = Metric(Pct(startup_ms, 50.0), "ms");
  m["core.startup_ms.p99"] = Metric(Pct(startup_ms, 99.0), "ms");
  m["core.exec_ms.p50"] = Metric(Pct(exec_ms, 50.0), "ms");
  m["core.others_ms.p50"] = Metric(Pct(others_ms, 50.0), "ms");
  m["core.restore_path_frac"] = Metric(Ratio(restore_path, ok_invokes), "fraction");

  int64_t child_ns[InvocationSpans::kChildren] = {};
  int64_t reseed_ns = 0;
  double roots = 0.0;
  fwbase::SampleStats restore_vm_ms, produce_us, consume_us;
  std::map<std::string, double> counters;
  std::vector<const fwobs::Profiler*> host_prof;
  uint64_t unmatched = 0;
  for (TracedHost* h : hosts) {
    fwcluster::FullHost* full = h->full();
    if (full == nullptr) {
      continue;
    }
    fwcore::HostEnv& env = full->env();
    host_prof.push_back(&env.obs().profiler());
    InvocationSpans spans(env.tracer());
    for (const fwobs::Span* root : spans.roots()) {
      roots += 1.0;
      if (!spans.Match(*root)) {
        ++unmatched;
      }
    }
    for (int c = 0; c < InvocationSpans::kChildren; ++c) {
      child_ns[c] += spans.child_ns[c];
    }
    reseed_ns += spans.reseed_ns;
    restore_vm_ms.Merge(spans.restore_vm_ms);
    const fwobs::MetricsRegistry& reg = env.metrics();
    for (const char* name :
         {"fw.warmpool.prepared.count", "fw.warmpool.invoked.count", "fw.warmpool.discarded.count",
          "hv.vm.restore.count", "mem.fault.major.count", "mem.fault.minor.count",
          "mem.fault.zero.count", "mem.fault.cow.count", "mem.fault.fresh.count",
          "mem.frame.alloc.count", "store.snapshot.hit.count", "store.snapshot.miss.count"}) {
      counters[name] += static_cast<double>(reg.CounterValue(name));
    }
    if (const fwobs::Histogram* hp = reg.FindHistogram("bus.produce.micros")) {
      produce_us.Merge(hp->stats());
    }
    if (const fwobs::Histogram* hc = reg.FindHistogram("bus.consume.micros")) {
      consume_us.Merge(hc->stats());
    }
  }
  if (unmatched > 0) {
    Violation(r, fwbase::StrFormat("%" PRIu64 " invocation root spans whose invoke.* child "
                                   "windows do not sum to the root", unmatched));
  }
  if (!hosts.empty() && hosts.front()->full() != nullptr) {
    uint64_t root_mismatch = 0;
    double full_ok = 0.0;
    for (const InvokeRecord& rec : log.invokes) {
      if (!rec.ok) {
        continue;
      }
      full_ok += 1.0;
      if (rec.root == nullptr || rec.root->duration().nanos() != rec.total_ns) {
        ++root_mismatch;
      }
    }
    if (root_mismatch > 0 || full_ok != roots) {
      Violation(r, fwbase::StrFormat("%" PRIu64 " invocations whose root span disagrees with the "
                                     "reported total (%.0f roots for %.0f invocations)",
                                     root_mismatch, roots, full_ok));
    }
  }
  const double per_root = roots > 0.0 ? 1.0 / roots / 1e6 : 0.0;
  m["core.frontend_ms"] =
      Metric(static_cast<double>(child_ns[InvocationSpans::kFrontend]) * per_root, "ms");
  m["core.restore_ms"] = Metric(
      static_cast<double>(child_ns[InvocationSpans::kRestore] - reseed_ns) * per_root, "ms");
  m["core.guest_reseed_ms"] = Metric(static_cast<double>(reseed_ns) * per_root, "ms");
  m["core.params_ms"] = Metric(static_cast<double>(child_ns[InvocationSpans::kProduce] +
                                                   child_ns[InvocationSpans::kConsume]) *
                                   per_root,
                               "ms");
  m["core.response_ms"] =
      Metric(static_cast<double>(child_ns[InvocationSpans::kResponse]) * per_root, "ms");
  m["core.warmpool.prepared"] = Metric(counters["fw.warmpool.prepared.count"], "count");
  m["core.warmpool.invoked"] = Metric(counters["fw.warmpool.invoked.count"], "count");
  m["core.warmpool.discarded"] = Metric(counters["fw.warmpool.discarded.count"], "count");
  m["core.install_ms"] = Metric(install_sim_ms, "ms");
  m["core.install_wall_ms"] = Metric(install_wall_ms, "ms");

  // vmm / mem / msgbus / net / lang / storage (zero on ModelHost fleets).
  m["vmm.restores_per_inv"] = Metric(Ratio(counters["hv.vm.restore.count"], completed), "count");
  m["vmm.restore_ms"] = Metric(restore_vm_ms.count() > 0 ? restore_vm_ms.mean() : 0.0, "ms");
  for (const char* kind : {"major", "minor", "zero", "cow", "fresh"}) {
    m[std::string("mem.faults_per_inv.") + kind] = Metric(
        Ratio(counters[std::string("mem.fault.") + kind + ".count"], completed), "count");
  }
  m["mem.frame_allocs_per_inv"] =
      Metric(Ratio(counters["mem.frame.alloc.count"], completed), "count");
  m["mem.page_walk_ns"] = Metric(SelfNanosPerCall(host_prof, "mem.page_walk"), "ns");
  m["msgbus.produce_us.p50"] = Metric(Pct(produce_us, 50.0), "us");
  m["msgbus.consume_us.p50"] = Metric(Pct(consume_us, 50.0), "us");
  m["msgbus.commit_ns"] = Metric(SelfNanosPerCall(host_prof, "bus.produce.commit"), "ns");
  m["msgbus.fetch_ns"] = Metric(SelfNanosPerCall(host_prof, "bus.consume.fetch"), "ns");
  m["net.netns_ms"] = Metric(
      Ratio(static_cast<double>(child_ns[InvocationSpans::kNetns]) / 1e6, roots), "ms");
  m["net.peak_netns"] = Metric(static_cast<double>(log.peak_netns), "count");
  m["lang.nodejs.exec_ms.p50"] = Metric(Pct(exec_by_lang["nodejs"], 50.0), "ms");
  m["lang.python.exec_ms.p50"] = Metric(Pct(exec_by_lang["python"], 50.0), "ms");
  m["lang.jit_compile_ms_per_inv"] = Metric(Ratio(jit_ms, ok_invokes), "ms");
  m["lang.fault_ms_per_inv"] = Metric(Ratio(fault_ms, ok_invokes), "ms");
  m["lang.deopts_per_inv"] = Metric(Ratio(deopts, ok_invokes), "count");
  m["storage.snapshot_hits"] = Metric(counters["store.snapshot.hit.count"], "count");
  m["storage.snapshot_misses"] = Metric(counters["store.snapshot.miss.count"], "count");
}

// Process-CPU marks per run: the measured phase is cut into this many
// segments of equal request counts (plus the drain after the last arrival).
constexpr uint64_t kCpuSegments = 128;

RunResult RunOnce(const Spec& spec, uint64_t seed, double rate_multiplier, uint64_t invocations,
                  bool traced) {
  RunResult r;
  const uint64_t warmup = spec.warmup_requests;
  const double setup_start = WallSeconds();
  std::vector<std::string> app_names;
  for (const AppInfo& app : spec.apps) {
    app_names.push_back(app.source.name);
  }
  fwsim::Simulation sim(seed);
  HostCallLog log(app_names);
  std::vector<TracedHost*> traced_hosts;
  fwcluster::ModelHost::Config model_config;
  if (!spec.full_hosts) {
    model_config.calibration = Calibrate(seed);
  }
  auto make_host = [&](fwsim::Simulation& s, int index) -> std::unique_ptr<ClusterHost> {
    std::unique_ptr<ClusterHost> host;
    fwcluster::FullHost* full = nullptr;
    if (spec.full_hosts) {
      auto f = std::make_unique<fwcluster::FullHost>(s, index, fwcluster::FullHost::Config());
      full = f.get();
      host = std::move(f);
    } else {
      host = std::make_unique<fwcluster::ModelHost>(s, index, model_config);
    }
    if (!traced) {
      return host;
    }
    if (full != nullptr) {
      full->env().tracer().Enable();
      full->env().obs().profiler().Enable();
    }
    auto wrapped = std::make_unique<TracedHost>(std::move(host), full, s, log);
    traced_hosts.push_back(wrapped.get());
    return wrapped;
  };
  std::vector<std::unique_ptr<ClusterHost>> hosts;
  for (int i = 0; i < spec.hosts; ++i) {
    hosts.push_back(make_host(sim, i));
  }
  Cluster::Config config = spec.cluster;
  if (config.fleet.enabled) {
    config.host_factory = make_host;
  }
  Cluster cluster(sim, std::move(hosts), config);
  if (traced) {
    cluster.obs().profiler().Enable();
    if (spec.cluster_spans) {
      cluster.obs().tracer().Enable();
    }
  }

  const SimTime install_sim_start = sim.Now();
  const double install_wall_start = WallSeconds();
  for (const AppInfo& app : spec.apps) {
    const fwbase::Status s = fwsim::RunSync(sim, cluster.InstallAll(app.source));
    FW_CHECK_MSG(s.ok(), s.ToString().c_str());
  }
  const double install_sim_ms = (sim.Now() - install_sim_start).millis();
  const double install_wall_ms = (WallSeconds() - install_wall_start) * 1e3;
  // VMs and namespaces a host holds outside any clone after install (a
  // FullHost keeps its own root namespace): the leak check's baseline.
  std::vector<std::pair<size_t, size_t>> baseline;
  for (int i = 0; i < cluster.num_hosts(); ++i) {
    ClusterHost& h = cluster.host(i);
    baseline.emplace_back(h.LiveVmCount() - h.TotalPooledClones(),
                          h.LiveNetnsCount() - h.TotalPooledClones());
  }

  DriveState drive;
  drive.config = spec.trace;
  drive.config.rate_per_sec *= rate_multiplier;
  drive.config.seed = seed;
  drive.warmup = warmup;
  drive.count = invocations;
  drive.apps = &app_names;
  drive.timed = traced;
  drive.cpu_mark_every = std::max<uint64_t>(1, (warmup + invocations) / kCpuSegments);
  drive.cpu_marks.reserve(kCpuSegments);
  r.setup_s = WallSeconds() - setup_start;

  // Measured phase: every arrival is submitted and every request reaches a
  // terminal outcome.
  const double host_hours0 = cluster.HostHours();
  const SimTime load_start = sim.Now();
  const AllocCounts alloc0 = CurrentAllocCounts();
  const uint64_t events0 = sim.events_processed();
  const double cpu0 = CpuSeconds();
  sim.Spawn(DriveLoad(sim, cluster, drive));
  cluster.Drain(warmup + invocations);
  r.cpu_s = CpuSeconds() - cpu0;
  for (const double mark : drive.cpu_marks) {
    r.cpu_marks.push_back(mark - cpu0);
  }
  r.cpu_marks.push_back(r.cpu_s);
  r.events = sim.events_processed() - events0;
  const AllocCounts alloc1 = CurrentAllocCounts();
  r.allocs.allocs = alloc1.allocs - alloc0.allocs;
  r.allocs.bytes = alloc1.bytes - alloc0.bytes;

  r.host_seconds = (cluster.HostHours() - host_hours0) * 3600.0;
  r.load_sim_s = (sim.Now() - load_start).seconds();
  r.rollup = cluster.ComputeRollup();
  r.digest = cluster.OutcomeDigest();
  r.requests = cluster.submitted();
  r.submitted = r.requests - warmup;
  r.drain_s = drive.due_ns.empty()
                  ? 0.0
                  : static_cast<double>(sim.Now().nanos() - drive.due_ns.back()) / 1e9;

  // Conservation and exactly-once (warm-up requests included).
  if (r.submitted != invocations) {
    Violation(r, fwbase::StrFormat("submitted %" PRIu64 " of %" PRIu64 " arrivals", r.submitted,
                                   invocations));
  }
  const Duration slo_target = spec.cluster.slo.target;
  uint64_t bad_completions = 0;
  for (uint64_t id = 1; id <= cluster.submitted(); ++id) {
    const Cluster::Outcome& o = cluster.outcome(id);
    if (o.completions != 1) {
      ++bad_completions;
    }
    if (id <= warmup) {
      continue;
    }
    if (!o.status.ok()) {
      ++r.failed;
      continue;
    }
    ++r.completed;
    const int64_t late = drive.submit_ns[id - 1] - drive.due_ns[id - 1];
    const Duration from_due = o.latency + Duration::Nanos(late);
    r.latency_ms.Add(from_due.millis());
    if (from_due <= slo_target) {
      ++r.slo_good;
    }
  }
  if (bad_completions > 0) {
    Violation(r, fwbase::StrFormat("%" PRIu64 " requests without exactly one completion",
                                   bad_completions));
  }
  if (cluster.submitted() != r.rollup.completed + r.rollup.failed) {
    Violation(r, fwbase::StrFormat("submitted %" PRIu64 " != completed %" PRIu64
                                   " + failed %" PRIu64,
                                   r.requests, r.rollup.completed, r.rollup.failed));
  }
  if (drive.late_submits != 0) {
    Violation(r, fwbase::StrFormat("%" PRIu64 " arrivals submitted after their due time",
                                   drive.late_submits));
  }

  if (traced) {
    CollectLayers(spec, cluster, drive, log, traced_hosts, install_sim_ms,
                  install_wall_ms, r);
  }

  // Let in-flight clone preparations, joins and drains settle, then every
  // live VM and network namespace beyond the install baseline must belong to
  // a parked clone.
  sim.Run();
  for (int i = 0; i < cluster.num_hosts(); ++i) {
    ClusterHost& h = cluster.host(i);
    const size_t pooled = h.TotalPooledClones();
    const auto [base_vms, base_netns] =
        i < static_cast<int>(baseline.size()) ? baseline[static_cast<size_t>(i)]
                                              : std::pair<size_t, size_t>(0, 0);
    if (h.LiveVmCount() != pooled + base_vms || h.LiveNetnsCount() != pooled + base_netns) {
      Violation(r, fwbase::StrFormat("host %d leaks: %zu VMs, %zu netns, %zu parked clones", i,
                                     h.LiveVmCount(), h.LiveNetnsCount(), pooled));
    }
  }
  r.peak_rss_mib = PeakRssMib();
  return r;
}

// --- Capacity ladder ----------------------------------------------------------

constexpr double kP99LimitMs = 250.0;
constexpr double kFailedFracLimit = 0.001;
constexpr double kDrainLimitS = 1.0;

// <= 1 when a rung meets every capacity condition.
double RungScore(const RunResult& r) {
  return std::max({Pct(r.latency_ms, 99.0) / kP99LimitMs, r.failed_frac() / kFailedFracLimit,
                   r.drain_s / kDrainLimitS});
}

struct Ladder {
  double capacity_rps = 0.0;
  std::vector<double> setup_s;
  bool correct = true;
};

// The highest rate, as a multiple of the nominal rate, whose rung meets p99
// <= 250 ms, failed_frac <= 0.001 and a bounded drain. Rungs start from the
// same standing start as the main run but offer Poisson arrivals: a short
// window of a bursty trace passes or fails on whether it caught a burst.
// Brackets by doubling or halving from 1x, bisects in log space, then
// interpolates the score linearly inside the final bracket. after_rung runs
// after every rung.
Ladder MeasureCapacity(const Spec& spec, uint64_t seed, const std::function<void()>& after_rung) {
  Ladder ladder;
  Spec rung_spec = spec;
  rung_spec.trace.arrival = fwwork::ArrivalProcess::kPoisson;
  rung_spec.warmup_requests = 0;
  auto rung = [&](double mult) {
    RunResult r = RunOnce(rung_spec, seed, mult, spec.ladder_requests, /*traced=*/false);
    after_rung();
    ladder.setup_s.push_back(r.setup_s);
    ladder.correct = ladder.correct && r.violations.empty();
    const double score = RungScore(r);
    std::printf("  capacity rung %.4fx: %" PRIu64 " requests, p99 %.2f ms, failed %.5f, "
                "drain %.3f s -> score %.3f\n",
                mult, r.submitted, Pct(r.latency_ms, 99.0), r.failed_frac(), r.drain_s, score);
    return score;
  };
  double lo = 0.0, hi = 0.0, s_lo = 0.0, s_hi = 0.0;
  double s = rung(1.0);
  if (s <= 1.0) {
    lo = 1.0;
    s_lo = s;
    for (double m = 2.0; m <= 64.0; m *= 2.0) {
      s = rung(m);
      if (s > 1.0) {
        hi = m;
        s_hi = s;
        break;
      }
      lo = m;
      s_lo = s;
    }
  } else {
    hi = 1.0;
    s_hi = s;
    for (double m = 0.5; m >= 1.0 / 64.0; m /= 2.0) {
      s = rung(m);
      if (s <= 1.0) {
        lo = m;
        s_lo = s;
        break;
      }
      hi = m;
      s_hi = s;
    }
  }
  if (lo == 0.0 || hi == 0.0) {
    // Never failed (or never passed) inside the ladder: report the edge.
    ladder.capacity_rps = spec.trace.rate_per_sec * (lo > 0.0 ? lo : hi / s_hi);
    return ladder;
  }
  for (int i = 0; i < spec.ladder_bisections; ++i) {
    const double mid = std::sqrt(lo * hi);
    s = rung(mid);
    if (s <= 1.0) {
      lo = mid;
      s_lo = s;
    } else {
      hi = mid;
      s_hi = s;
    }
  }
  const double t = std::clamp((1.0 - s_lo) / (s_hi - s_lo), 0.0, 1.0);
  ladder.capacity_rps = spec.trace.rate_per_sec * (lo + (hi - lo) * t);
  return ladder;
}

// --- Output ---------------------------------------------------------------------

void PrintResult(bool correct, uint64_t attempted, uint64_t failed, const MetricMap& metrics) {
  std::string out = fwbase::StrFormat(
      "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64 ", \"metrics\": {",
      correct ? "true" : "false", attempted, failed);
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    FW_CHECK_MSG(std::isfinite(metric.value), name.c_str());
    out += fwbase::StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                             name.c_str(), metric.value, metric.unit.c_str());
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

struct Options {
  Options() {}
  std::string workload;
  uint64_t seed = 0;
  bool seed_set = false;
  double seconds = 0.0;
  int trace = -1;
  bool tiny = false;
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "fwperf: %s\nusage: fwperf --workload fleet_steady|fleet_churn|host_fullstack "
               "--seed N --seconds S --trace 0|1 [--scale tiny]\n",
               why);
  return 2;
}

// Simulator CPU per invocation over replays of one run, given each replay's
// CPU marks (RunResult::cpu_marks), with interference from other processes
// filtered out. Every replay runs the same events, so the segment between
// two CPU marks does the same work in each; interference only adds time, so
// the cheapest replay's CPU is taken per segment and the segments are summed.
double ReplayedCpuUsPerInv(const std::vector<std::vector<double>>& marks, uint64_t requests) {
  double cpu_s = 0.0;
  for (size_t k = 0; k < marks.front().size(); ++k) {
    double best = INFINITY;
    for (const std::vector<double>& m : marks) {
      best = std::min(best, m[k] - (k > 0 ? m[k - 1] : 0.0));
    }
    cpu_s += best;
  }
  return Ratio(cpu_s * 1e6, static_cast<double>(requests));
}

// Fewest replays of the CPU slice, however short the measuring time.
constexpr size_t kMinCpuSlices = 6;

int EndToEnd(const Spec& spec, const Options& opt) {
  // The whole workload, once: every simulated metric and the peak RSS.
  const RunResult r = RunOnce(spec, opt.seed, 1.0, spec.invocations, /*traced=*/false);
  bool correct = r.violations.empty();
  std::printf("%s seed %" PRIu64 ": %" PRIu64 " events, %" PRIu64
              " allocs, %.3f us CPU/inv, setup %.3f s, digest %016" PRIx64 "\n",
              spec.name.c_str(), opt.seed, r.events, r.allocs.allocs, r.cpu_us_per_inv(),
              r.setup_s, r.digest);
  std::vector<double> setup = {r.setup_s};

  // The simulator's CPU. A shared machine runs this process at a speed that
  // drifts between phases lasting from seconds to minutes, up to about twice
  // as slow as its best, so three replays of the whole workload are often
  // all slow in the same segment. Instead, a slice of it (the warm-up
  // and a prefix of the trace) is replayed at least kMinCpuSlices times, and
  // each segment is charged its cheapest replay. One replay follows each
  // capacity rung, and more follow the ladder until the two together have
  // taken the measuring time, so the replays are spread over most of the
  // process's life. Every replay must reproduce the first bit-for-bit.
  std::vector<std::vector<double>> slice_marks;
  RunResult first_slice;
  const double t0 = WallSeconds();
  auto measuring = [&] { return WallSeconds() - t0 < opt.seconds; };
  auto replay_slice = [&] {
    RunResult s = RunOnce(spec, opt.seed, 1.0, spec.cpu_slice_requests, /*traced=*/false);
    correct = correct && s.violations.empty();
    setup.push_back(s.setup_s);
    std::printf("  cpu slice %zu: %" PRIu64 " events, %" PRIu64
                " allocs, %.3f us CPU/inv, setup %.3f s, digest %016" PRIx64 "\n",
                slice_marks.size() + 1, s.events, s.allocs.allocs, s.cpu_us_per_inv(), s.setup_s,
                s.digest);
    if (slice_marks.empty()) {
      first_slice = s;
    } else if (s.digest != first_slice.digest || s.events != first_slice.events ||
               s.allocs.allocs != first_slice.allocs.allocs ||
               s.allocs.bytes != first_slice.allocs.bytes) {
      std::fprintf(stderr, "fwperf: CHECK FAILED: cpu slice %zu did not replay slice 1\n",
                   slice_marks.size() + 1);
      correct = false;
    }
    slice_marks.push_back(std::move(s.cpu_marks));
  };
  const Ladder ladder = MeasureCapacity(spec, opt.seed, [&] {
    if (measuring()) {
      replay_slice();
    }
  });
  while (slice_marks.size() < kMinCpuSlices || measuring()) {
    replay_slice();
  }
  correct = correct && ladder.correct;
  setup.insert(setup.end(), ladder.setup_s.begin(), ladder.setup_s.end());
  const double beyond_p999 = std::floor(static_cast<double>(r.completed) * 0.001);
  std::printf("%s: %" PRIu64 " of %" PRIu64 " requests completed (%.0f samples beyond p99.9)\n",
              spec.name.c_str(), r.completed, r.submitted, beyond_p999);
  if (beyond_p999 < 10.0) {
    std::fprintf(stderr, "fwperf: note: fewer than 10 samples beyond p99.9\n");
  }
  MetricMap m;
  m["p50_ms"] = Metric(Pct(r.latency_ms, 50.0), "ms");
  m["p99_ms"] = Metric(Pct(r.latency_ms, 99.0), "ms");
  m["p999_ms"] = Metric(Pct(r.latency_ms, 99.9), "ms");
  m["slo_attainment"] =
      Metric(Ratio(static_cast<double>(r.slo_good), static_cast<double>(r.submitted)), "fraction");
  m["completed_frac"] =
      Metric(Ratio(static_cast<double>(r.completed), static_cast<double>(r.submitted)), "fraction");
  m["capacity_rps"] = Metric(ladder.capacity_rps, "req/s");
  m["peak_pss_mib"] = Metric(r.rollup.peak_pss_bytes / kMiB, "MiB");
  m["host_seconds_per_1k"] =
      Metric(Ratio(r.host_seconds * 1000.0, static_cast<double>(r.rollup.completed)), "host-s");
  m["sim_us_per_inv"] = Metric(ReplayedCpuUsPerInv(slice_marks, first_slice.requests), "us");
  m["setup_s"] = Metric(Median(setup), "s");
  m["peak_rss_mib"] = Metric(r.peak_rss_mib, "MiB");
  PrintResult(correct, r.submitted, r.failed, m);
  return correct ? 0 : 1;
}

int PerLayer(const Spec& spec, const Options& opt) {
  // The first untraced run also pays for growing the process heap, so the
  // tracing overhead is measured against a second one, which starts on a
  // warm heap like the traced run after it.
  const RunResult plain = RunOnce(spec, opt.seed, 1.0, spec.invocations, /*traced=*/false);
  const RunResult warm = RunOnce(spec, opt.seed, 1.0, spec.invocations, /*traced=*/false);
  RunResult traced = RunOnce(spec, opt.seed, 1.0, spec.invocations, /*traced=*/true);
  bool correct = plain.violations.empty() && warm.violations.empty() && traced.violations.empty();
  std::printf("%s seed %" PRIu64 ": untraced digest %016" PRIx64 " (%" PRIu64
              " events), traced digest %016" PRIx64 " (%" PRIu64 " events)\n",
              spec.name.c_str(), opt.seed, plain.digest, plain.events, traced.digest,
              traced.events);
  if (warm.digest != plain.digest || warm.events != plain.events ||
      warm.allocs.allocs != plain.allocs.allocs || warm.allocs.bytes != plain.allocs.bytes) {
    std::fprintf(stderr, "fwperf: CHECK FAILED: the second untraced run did not replay the first\n");
    correct = false;
  }
  if (plain.digest != traced.digest || plain.events != traced.events) {
    std::fprintf(stderr, "fwperf: CHECK FAILED: the traced run did not replay the untraced run\n");
    correct = false;
  }
  MetricMap m = traced.layers;
  const double submitted = static_cast<double>(plain.requests);
  m["simcore.events_per_inv"] = Metric(Ratio(static_cast<double>(plain.events), submitted), "count");
  m["simcore.allocs_per_inv"] =
      Metric(Ratio(static_cast<double>(plain.allocs.allocs), submitted), "count");
  m["simcore.alloc_bytes_per_inv"] =
      Metric(Ratio(static_cast<double>(plain.allocs.bytes), submitted), "B");
  m["obs.trace_overhead_frac"] =
      Metric(Ratio(traced.cpu_us_per_inv(), warm.cpu_us_per_inv()) - 1.0, "fraction");
  PrintResult(correct, plain.submitted, plain.failed, m);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace fwperf

int main(int argc, char** argv) {
  using fwperf::Usage;
  fwperf::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--scale" && i + 1 < argc) {
      const std::string v = argv[++i];
      if (v != "tiny" && v != "full") {
        return Usage("--scale takes tiny or full");
      }
      opt.tiny = v == "tiny";
      continue;
    }
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = v;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
      opt.seed_set = end != v && *end == '\0';
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(opt.seconds > 0.0)) {
        return Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      opt.trace = v[0] - '0';
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!opt.seed_set || opt.trace < 0 || opt.seconds <= 0.0) {
    return Usage("--seed, --seconds and --trace are required");
  }
  const std::optional<fwperf::Spec> spec = fwperf::MakeSpec(opt.workload, opt.tiny);
  if (!spec.has_value()) {
    return Usage(("unknown workload '" + opt.workload + "'").c_str());
  }
  return opt.trace == 0 ? fwperf::EndToEnd(*spec, opt) : fwperf::PerLayer(*spec, opt);
}
