// Exporters: Chrome trace_event JSON and profiler reports. (The plain-text
// metrics dump is MetricsRegistry::ToText().)
//
// The JSON output follows the Trace Event Format's "X" (complete) events and
// loads directly in chrome://tracing or https://ui.perfetto.dev: one row per
// process, spans nested by time containment, span attributes under "args".
// Timestamps are simulated microseconds since each run's t=0.
//
// ChromeTraceBuilder merges several runs (each its own Tracer, each starting
// at sim t=0) into one file by giving every run a distinct pid — that is how
// `bench --trace=<file>` shows all platforms side by side.
#ifndef FIREWORKS_SRC_OBS_EXPORT_H_
#define FIREWORKS_SRC_OBS_EXPORT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/obs/profiler.h"
#include "src/obs/trace.h"

namespace fwobs {

class ChromeTraceBuilder {
 public:
  // Appends every finished span of `tracer` as a new process named `name`.
  // Copies the events out, so the tracer may be destroyed afterwards.
  void AddProcess(const std::string& name, const Tracer& tracer);

  bool empty() const { return events_.empty(); }
  size_t event_count() const { return events_.size(); }

  // The complete {"traceEvents": [...]} document.
  std::string ToJson() const;

 private:
  int next_pid_ = 1;
  std::vector<std::string> events_;  // Pre-serialized event objects.
};

// Single-tracer convenience wrapper around ChromeTraceBuilder.
std::string ChromeTraceJson(const Tracer& tracer, const std::string& process_name);

// Which profiler clock a report renders.
enum class ProfileDim {
  kWall,  // host wall time — where the simulator binary burns CPU
  kSim,   // simulated time — where modeled latency accrues
};

// Collapsed-stack ("folded") flamegraph lines: one "root;child;leaf <nanos>"
// line per call path with nonzero exclusive time in `dim`, sorted by path.
// Feeds flamegraph.pl / speedscope / inferno unmodified.
std::string ProfilerCollapsed(const Profiler& profiler, ProfileDim dim = ProfileDim::kWall);

// Human-readable top-N table of the hottest scopes (ranked like
// Profiler::TopN: max of wall self and sim self), with calls and self/total
// attribution in both dimensions.
std::string ProfilerTopN(const Profiler& profiler, size_t n = 10);

}  // namespace fwobs

#endif  // FIREWORKS_SRC_OBS_EXPORT_H_
