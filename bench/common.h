// Shared support for the benchmark binaries: platform factory, flag parsing,
// cold/warm measurement helpers, the cluster scenarios' calibration probe,
// load driver and replay check, the fwbench/1 report, and plain-text table
// rendering that mirrors the rows and series the paper's tables and figures
// report.
#ifndef FIREWORKS_BENCH_COMMON_H_
#define FIREWORKS_BENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/baselines/container_platform.h"
#include "src/baselines/firecracker.h"
#include "src/baselines/isolate.h"
#include "src/cluster/calibrate.h"
#include "src/cluster/cluster.h"
#include "src/core/fireworks.h"
#include "src/core/platform.h"
#include "src/simcore/run_sync.h"
#include "src/workloads/loadgen.h"

namespace fwbench {

using fwcore::Duration;
using fwcore::HostEnv;
using fwcore::InvocationResult;
using fwcore::InvokeOptions;
using fwcore::ServerlessPlatform;

enum class PlatformKind {
  kOpenWhisk,
  kGvisor,
  kGvisorSnapshot,
  kFirecracker,
  kFirecrackerOsSnapshot,
  kFireworks,
  kIsolate,
};

const char* PlatformName(PlatformKind kind);
std::unique_ptr<ServerlessPlatform> MakePlatform(PlatformKind kind, HostEnv& env);

// True for platforms with no cold/warm distinction (Fireworks).
bool AlwaysWarm(PlatformKind kind);

// ---------------------------------------------------------------------------
// Flags.
// ---------------------------------------------------------------------------

// One row of a bench's flag table: `--name=value` when `set` is given (it
// returns what is wrong with a bad value), a bare `--name` switch when `on` is.
struct Flag {
  std::string name;  // With the leading "--".
  std::function<fwbase::Status(const std::string& value)> set;
  std::function<void()> on;
};

// `--name=N` for a whole decimal N >= `min` that fits the field.
Flag IntFlag(std::string name, int* out, int min);
Flag U64Flag(std::string name, uint64_t* out, uint64_t min);
// `--name=X` for a finite X > 0, or X >= 0 when `zero_ok`.
Flag DoubleFlag(std::string name, double* out, bool zero_ok = false);
// `--name=FILE` for a non-empty path.
Flag PathFlag(std::string name, std::string* out);
Flag SwitchFlag(std::string name, std::function<void()> on);

// Applies argv[1..] to `flags`: every switch first, then each `--name=value`
// in order, so a switch that picks reduced defaults (--smoke) never overrides
// an explicit value, whichever comes first. Returns InvalidArgument naming the
// argument for an unknown flag, a switch given a value, a value flag without
// one, or a value its `set` rejects. Callers print the message and exit 2.
fwbase::Status ParseFlags(int argc, const char* const* argv, const std::vector<Flag>& flags);

// The figure benches' flags: --trace=<file>, --faults=<spec>. With --trace,
// MeasureCold/MeasureWarm run with tracing enabled and accumulate each run's
// spans as one merged Chrome trace. With --faults (fwfault::FaultPlan::Parse
// syntax, e.g. "vm_crash_on_resume=0.05,broker_drop_message=0.1"; default
// off), every measured HostEnv runs under that fault plan, exercising the
// recovery paths under the same deterministic clock the benches already use.
// "--faults=none" is byte-identical to omitting the flag. Exits 2 on a bad
// flag.
void InitBenchmark(int argc, char** argv);
// Writes the accumulated trace (if --trace was given) and reports the path.
void FinishBenchmark();
bool TraceActive();

// Installs `fn` on a fresh host+platform and measures one cold invocation.
InvocationResult MeasureCold(PlatformKind kind, const fwlang::FunctionSource& fn,
                             const std::string& type_sig = "default");
// Installs, prewarms per the §5.1 methodology, and measures one warm
// invocation.
InvocationResult MeasureWarm(PlatformKind kind, const fwlang::FunctionSource& fn,
                             const std::string& type_sig = "default");

// ---------------------------------------------------------------------------
// Scenario benches: what the cluster benches and clone_uniqueness share.
// ---------------------------------------------------------------------------

// A ModelHost calibration for `kind` from full-fidelity probe runs of the
// function RunLoad installs (src/cluster/calibrate).
fwcluster::HostCalibration Calibrate(PlatformKind kind, uint64_t seed);

// Installs the FaaSdom net-latency Node.js function as apps "app-000", ...
// (load.num_apps of them) on every host, submits `count` arrivals from `load`
// at their offsets, and returns once each has a terminal outcome.
void RunLoad(fwsim::Simulation& sim, fwcluster::Cluster& cluster,
             const fwwork::LoadGenConfig& load, uint64_t count);

// The same-seed replay check: `replay` reruns the configuration whose first
// run produced `digest` and returns the rerun's digest. Prints
// "determinism: two seed-<seed> <runs> are bit-identical (digest ...)", or
// DIFFERENT plus a FAIL line on stderr, and returns whether they match.
bool ReplayIsBitIdentical(uint64_t seed, const std::string& runs, uint64_t digest,
                          const std::function<uint64_t()>& replay);

// Host wall time since construction: the `wall_seconds` a report records but
// never guards. No simulated result may depend on it.
class WallTimer {
 public:
  WallTimer();
  double Seconds() const;

 private:
  int64_t start_ns_;
};

// This process's peak resident set so far, in MiB (getrusage's ru_maxrss):
// the `peak_rss_mib` a report records but never guards. It depends on the
// host and its allocator; no simulated result may depend on it.
double PeakRssMib();

// Writes `content` to `path`; on failure prints the path and exits 1.
void WriteFileOrDie(const std::string& path, const std::string& content);

// ---------------------------------------------------------------------------
// Normalized bench result schema ("fwbench/1").
// ---------------------------------------------------------------------------

// One machine-readable result document per bench run:
//
//   {
//     "schema":   "fwbench/1",
//     "scenario": "cluster_scale",
//     "config":   {"hosts": 8, "policy": "snapshot-locality", ...},
//     "metrics":  {"p99_ms": 12.5, "wall_seconds": 0.8, ...},
//     "guards":   {"p99_ms": "lower", "goodput_rps": "higher"},
//     "digest":   "9f86d081884c7d65"
//   }
//
// `guards` names the metrics scripts/bench_trend.py protects against
// regression and which direction is better; unguarded metrics (host wall
// time, anything nondeterministic) are recorded for humans but never gate.
// `digest` is the run's determinism digest (e.g. Cluster::OutcomeDigest) so a
// trajectory point also witnesses that behavior was bit-identical. Keys are
// ordered maps: the rendered document is byte-stable for a given run.
class BenchReport {
 public:
  explicit BenchReport(std::string scenario);

  void AddConfig(const std::string& key, const std::string& value);
  void AddConfig(const std::string& key, const char* value);
  void AddConfig(const std::string& key, double value);
  void AddConfig(const std::string& key, uint64_t value);
  void AddConfig(const std::string& key, int value);

  // Recorded but not regression-gated.
  void AddMetric(const std::string& name, double value);
  // Gated by bench_trend.py --check; `better` is "lower" or "higher".
  void AddGuardedMetric(const std::string& name, double value, const char* better);

  void SetDigest(uint64_t digest);

  std::string ToJson() const;
  // Writes ToJson() to `path` (exits with a message on IO failure) and
  // prints where the report went.
  void WriteTo(const std::string& path) const;

 private:
  std::string scenario_;
  std::map<std::string, std::string> config_;  // value pre-rendered as JSON
  std::map<std::string, double> metrics_;
  std::map<std::string, std::string> guards_;
  std::string digest_;
};

// ---------------------------------------------------------------------------
// Table rendering.
// ---------------------------------------------------------------------------

class Table {
 public:
  Table(std::string title, std::vector<std::string> columns);

  void AddRow(std::vector<std::string> cells);
  void AddSeparator();
  void Print() const;

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;  // Empty row = separator.
};

// Formats a duration in milliseconds with sensible precision.
std::string Ms(Duration d);
// Formats a ratio like "12.3x".
std::string Ratio(double r);
std::string MiB(double bytes);

// A latency-breakdown row: startup / exec / others / total.
std::vector<std::string> BreakdownRow(const std::string& label, const InvocationResult& r);
inline std::vector<std::string> BreakdownColumns() {
  return {"platform", "startup", "exec", "others", "total"};
}

}  // namespace fwbench

#endif  // FIREWORKS_BENCH_COMMON_H_
