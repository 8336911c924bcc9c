#include "bench/common.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>

#include <sys/resource.h>

#include "src/base/check.h"
#include "src/base/strings.h"
#include "src/fault/fault.h"
#include "src/obs/export.h"
#include "src/workloads/faasdom.h"

namespace fwbench {

using fwbase::StrFormat;

namespace {

std::string g_trace_path;                 // Empty: tracing off.
fwobs::ChromeTraceBuilder g_trace_builder;
fwfault::FaultPlan g_fault_plan;          // Empty: faults off (the default).

// Every measured run gets a fresh HostEnv built from this config, so the
// --faults plan applies uniformly. An empty plan leaves the config at its
// default: default runs stay byte-identical to builds without the flag
// machinery.
HostEnv::Config EnvConfig() {
  HostEnv::Config config;
  config.fault_plan = g_fault_plan;
  return config;
}

// A whole decimal number in [min, max of T]: no sign for unsigned T, no
// blanks, no trailing characters.
template <typename T>
fwbase::Status ParseWhole(const std::string& value, T min, T* out) {
  T x = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, x);
  if (ec != std::errc() || ptr != end || x < min) {
    return fwbase::Status::InvalidArgument(
        StrFormat("want a whole number in [%s, %s]", std::to_string(min).c_str(),
                  std::to_string(std::numeric_limits<T>::max()).c_str()));
  }
  *out = x;
  return fwbase::Status::Ok();
}

// One merged-trace process per measured run (each run is a fresh HostEnv whose
// sim clock starts at t=0, so they must not share a pid timeline).
void CollectTrace(const std::string& label, HostEnv& env) {
  if (!g_trace_path.empty()) {
    g_trace_builder.AddProcess(label, env.tracer());
  }
}

}  // namespace

Flag IntFlag(std::string name, int* out, int min) {
  return {std::move(name), [out, min](const std::string& value) {
            return ParseWhole(value, min, out);
          }, nullptr};
}

Flag U64Flag(std::string name, uint64_t* out, uint64_t min) {
  return {std::move(name), [out, min](const std::string& value) {
            return ParseWhole(value, min, out);
          }, nullptr};
}

Flag DoubleFlag(std::string name, double* out, bool zero_ok) {
  return {std::move(name), [out, zero_ok](const std::string& value) {
            double x = 0.0;
            const char* end = value.data() + value.size();
            const auto [ptr, ec] = std::from_chars(value.data(), end, x);
            if (ec != std::errc() || ptr != end || !std::isfinite(x) ||
                (zero_ok ? x < 0.0 : x <= 0.0)) {
              return fwbase::Status::InvalidArgument(
                  zero_ok ? "want a finite number >= 0" : "want a finite number > 0");
            }
            *out = x;
            return fwbase::Status::Ok();
          }, nullptr};
}

Flag PathFlag(std::string name, std::string* out) {
  return {std::move(name), [out](const std::string& value) {
            if (value.empty()) {
              return fwbase::Status::InvalidArgument("want a file path");
            }
            *out = value;
            return fwbase::Status::Ok();
          }, nullptr};
}

Flag SwitchFlag(std::string name, std::function<void()> on) {
  return {std::move(name), nullptr, std::move(on)};
}

fwbase::Status ParseFlags(int argc, const char* const* argv, const std::vector<Flag>& flags) {
  // (flag, value) for each `--name=value`, applied once every switch has run.
  std::vector<std::pair<const Flag*, std::string>> values;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const auto it =
        std::find_if(flags.begin(), flags.end(), [&name](const Flag& f) { return f.name == name; });
    if (it == flags.end()) {
      std::string known;
      for (const Flag& f : flags) {
        known += StrFormat(" %s%s", f.name.c_str(), f.set ? "=" : "");
      }
      return fwbase::Status::InvalidArgument(StrFormat(
          "unknown flag %s (flags:%s)", arg.c_str(), known.empty() ? " none" : known.c_str()));
    }
    if (it->on) {
      if (eq != std::string::npos) {
        return fwbase::Status::InvalidArgument(StrFormat("%s takes no value", arg.c_str()));
      }
      it->on();
    } else if (eq == std::string::npos) {
      return fwbase::Status::InvalidArgument(StrFormat("%s needs a value", arg.c_str()));
    } else {
      values.emplace_back(&*it, arg.substr(eq + 1));
    }
  }
  for (const auto& [flag, value] : values) {
    const fwbase::Status s = flag->set(value);
    if (!s.ok()) {
      return fwbase::Status::InvalidArgument(
          StrFormat("%s=%s: %s", flag->name.c_str(), value.c_str(), s.message().c_str()));
    }
  }
  return fwbase::Status::Ok();
}

void InitBenchmark(int argc, char** argv) {
  const fwbase::Status parsed = ParseFlags(
      argc, argv,
      {PathFlag("--trace", &g_trace_path),
       {"--faults",
        [](const std::string& spec) {
          auto plan = fwfault::FaultPlan::Parse(spec);
          if (!plan.ok()) {
            return plan.status();
          }
          g_fault_plan = *plan;
          return fwbase::Status::Ok();
        },
        nullptr}});
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.message().c_str());
    std::exit(2);
  }
}

bool TraceActive() { return !g_trace_path.empty(); }

void FinishBenchmark() {
  if (g_trace_path.empty()) {
    return;
  }
  WriteFileOrDie(g_trace_path, g_trace_builder.ToJson());
  std::printf("\nwrote %zu trace events to %s (open in chrome://tracing or Perfetto)\n",
              g_trace_builder.event_count(), g_trace_path.c_str());
}

const char* PlatformName(PlatformKind kind) {
  switch (kind) {
    case PlatformKind::kOpenWhisk:
      return "openwhisk";
    case PlatformKind::kGvisor:
      return "gvisor";
    case PlatformKind::kGvisorSnapshot:
      return "gvisor+snapshot";
    case PlatformKind::kFirecracker:
      return "firecracker";
    case PlatformKind::kFirecrackerOsSnapshot:
      return "firecracker+os-snap";
    case PlatformKind::kFireworks:
      return "fireworks";
    case PlatformKind::kIsolate:
      return "isolate";
  }
  return "?";
}

std::unique_ptr<ServerlessPlatform> MakePlatform(PlatformKind kind, HostEnv& env) {
  switch (kind) {
    case PlatformKind::kOpenWhisk:
      return std::make_unique<fwbaselines::OpenWhiskPlatform>(env);
    case PlatformKind::kGvisor:
      return std::make_unique<fwbaselines::GvisorPlatform>(env);
    case PlatformKind::kGvisorSnapshot:
      return std::make_unique<fwbaselines::GvisorSnapshotPlatform>(env);
    case PlatformKind::kFirecracker:
      return std::make_unique<fwbaselines::FirecrackerPlatform>(env);
    case PlatformKind::kFirecrackerOsSnapshot: {
      fwbaselines::FirecrackerPlatform::Config config;
      config.mode = fwbaselines::FirecrackerMode::kOsSnapshot;
      return std::make_unique<fwbaselines::FirecrackerPlatform>(env, config);
    }
    case PlatformKind::kFireworks:
      return std::make_unique<fwcore::FireworksPlatform>(env);
    case PlatformKind::kIsolate:
      return std::make_unique<fwbaselines::IsolatePlatform>(env);
  }
  return nullptr;
}

bool AlwaysWarm(PlatformKind kind) { return kind == PlatformKind::kFireworks; }

InvocationResult MeasureCold(PlatformKind kind, const fwlang::FunctionSource& fn,
                             const std::string& type_sig) {
  HostEnv env(EnvConfig());
  if (TraceActive()) {
    env.tracer().Enable();
  }
  auto platform = MakePlatform(kind, env);
  auto install = fwsim::RunSync(env.sim(), platform->Install(fn));
  FW_CHECK_MSG(install.ok(), install.status().ToString().c_str());
  InvokeOptions options;
  options.force_cold = true;
  options.type_sig = type_sig;
  auto result = fwsim::RunSync(env.sim(), platform->Invoke(fn.name, "{}", options));
  FW_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  CollectTrace(StrFormat("%s:%s:cold", PlatformName(kind), fn.name.c_str()), env);
  return *result;
}

InvocationResult MeasureWarm(PlatformKind kind, const fwlang::FunctionSource& fn,
                             const std::string& type_sig) {
  HostEnv env(EnvConfig());
  if (TraceActive()) {
    env.tracer().Enable();
  }
  auto platform = MakePlatform(kind, env);
  auto install = fwsim::RunSync(env.sim(), platform->Install(fn));
  FW_CHECK_MSG(install.ok(), install.status().ToString().c_str());
  FW_CHECK(fwsim::RunSync(env.sim(), platform->Prewarm(fn.name)).ok());
  InvokeOptions options;
  options.type_sig = type_sig;
  auto result = fwsim::RunSync(env.sim(), platform->Invoke(fn.name, "{}", options));
  FW_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  CollectTrace(StrFormat("%s:%s:warm", PlatformName(kind), fn.name.c_str()), env);
  return *result;
}

namespace {

// The function every cluster scenario calibrates with and installs per app.
fwlang::FunctionSource ScenarioFunction() {
  return fwwork::MakeFaasdom(fwwork::FaasdomBench::kNetLatency, fwlang::Language::kNodeJs);
}

fwsim::Co<void> DriveLoad(fwsim::Simulation& sim, fwcluster::Cluster& cluster,
                          fwwork::LoadGenConfig load, uint64_t count,
                          std::vector<std::string> app_names) {
  fwwork::LoadGen gen(load);
  const fwbase::SimTime start = sim.Now();
  for (uint64_t i = 0; i < count; ++i) {
    const fwwork::Arrival a = gen.Next();
    const fwbase::SimTime due = start + a.offset;
    if (due > sim.Now()) {
      co_await fwsim::Delay(sim, due - sim.Now());
    }
    (void)cluster.Submit(app_names[a.app], "payload");
  }
}

// Host nanoseconds on a monotonic clock with an arbitrary epoch.
int64_t HostNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())  // fwlint:allow(determinism)
      .count();
}

}  // namespace

fwcluster::HostCalibration Calibrate(PlatformKind kind, uint64_t seed) {
  fwcluster::CalibrationOptions options;
  options.seed = seed;
  return fwcluster::CalibratePlatform(
      [kind](HostEnv& env) { return MakePlatform(kind, env); }, ScenarioFunction(), options);
}

void RunLoad(fwsim::Simulation& sim, fwcluster::Cluster& cluster,
             const fwwork::LoadGenConfig& load, uint64_t count) {
  std::vector<std::string> app_names;
  app_names.reserve(load.num_apps);
  for (int i = 0; i < load.num_apps; ++i) {
    fwlang::FunctionSource fn = ScenarioFunction();
    fn.name = StrFormat("app-%03d", i);
    const fwbase::Status s = fwsim::RunSync(sim, cluster.InstallAll(fn));
    FW_CHECK_MSG(s.ok(), s.ToString().c_str());
    app_names.push_back(fn.name);
  }
  sim.Spawn(DriveLoad(sim, cluster, load, count, std::move(app_names)));
  cluster.Drain(count);
}

bool ReplayIsBitIdentical(uint64_t seed, const std::string& runs, uint64_t digest,
                          const std::function<uint64_t()>& replay) {
  const bool identical = replay() == digest;
  std::printf("determinism: two seed-%llu %s are %s (digest %016llx)\n",
              static_cast<unsigned long long>(seed), runs.c_str(),
              identical ? "bit-identical" : "DIFFERENT",
              static_cast<unsigned long long>(digest));
  if (!identical) {
    std::fprintf(stderr, "FAIL: same-seed replay of %s diverged\n", runs.c_str());
  }
  return identical;
}

WallTimer::WallTimer() : start_ns_(HostNanos()) {}

double WallTimer::Seconds() const { return static_cast<double>(HostNanos() - start_ns_) / 1e9; }

double PeakRssMib() {
  rusage usage{};
  FW_CHECK(getrusage(RUSAGE_SELF, &usage) == 0);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

void WriteFileOrDie(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  const bool written = f != nullptr &&
                       std::fwrite(content.data(), 1, content.size(), f) == content.size();
  if (f == nullptr || std::fclose(f) != 0 || !written) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

namespace {

std::string JsonNum(double value) {
  // %.10g round-trips every value a bench reports and renders integers bare.
  return StrFormat("%.10g", value);
}

void AppendObject(std::string& out, const std::map<std::string, std::string>& kv) {
  out += '{';
  bool first = true;
  for (const auto& [key, value] : kv) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += fwbase::JsonQuote(key);
    out += ':';
    out += value;
  }
  out += '}';
}

}  // namespace

BenchReport::BenchReport(std::string scenario) : scenario_(std::move(scenario)) {}

void BenchReport::AddConfig(const std::string& key, const std::string& value) {
  config_[key] = fwbase::JsonQuote(value);
}

void BenchReport::AddConfig(const std::string& key, const char* value) {
  AddConfig(key, std::string(value));
}

void BenchReport::AddConfig(const std::string& key, double value) {
  config_[key] = JsonNum(value);
}

void BenchReport::AddConfig(const std::string& key, uint64_t value) {
  config_[key] = StrFormat("%llu", static_cast<unsigned long long>(value));
}

void BenchReport::AddConfig(const std::string& key, int value) {
  config_[key] = StrFormat("%d", value);
}

void BenchReport::AddMetric(const std::string& name, double value) { metrics_[name] = value; }

void BenchReport::AddGuardedMetric(const std::string& name, double value, const char* better) {
  FW_CHECK_MSG(std::strcmp(better, "lower") == 0 || std::strcmp(better, "higher") == 0,
               "guard direction must be 'lower' or 'higher'");
  metrics_[name] = value;
  guards_[name] = better;
}

void BenchReport::SetDigest(uint64_t digest) {
  digest_ = StrFormat("%016llx", static_cast<unsigned long long>(digest));
}

std::string BenchReport::ToJson() const {
  std::string out = "{\"schema\":\"fwbench/1\",\"scenario\":";
  out += fwbase::JsonQuote(scenario_);
  out += ",\"config\":";
  AppendObject(out, config_);
  out += ",\"metrics\":";
  std::map<std::string, std::string> metrics;
  for (const auto& [name, value] : metrics_) {
    metrics[name] = JsonNum(value);
  }
  AppendObject(out, metrics);
  out += ",\"guards\":";
  std::map<std::string, std::string> guards;
  for (const auto& [name, better] : guards_) {
    guards[name] = fwbase::JsonQuote(better);
  }
  AppendObject(out, guards);
  if (!digest_.empty()) {
    out += ",\"digest\":";
    out += fwbase::JsonQuote(digest_);
  }
  out += "}\n";
  return out;
}

void BenchReport::WriteTo(const std::string& path) const {
  WriteFileOrDie(path, ToJson());
  std::printf("\nwrote %s report to %s (schema fwbench/1)\n", scenario_.c_str(), path.c_str());
}

Table::Table(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {}

void Table::AddRow(std::vector<std::string> cells) {
  FW_CHECK(cells.size() == columns_.size());
  rows_.push_back(std::move(cells));
}

void Table::AddSeparator() { rows_.emplace_back(); }

void Table::Print() const {
  std::vector<size_t> widths(columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    widths[i] = columns_[i].size();
  }
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  size_t total = 0;
  for (size_t w : widths) {
    total += w + 3;
  }

  std::printf("\n%s\n", title_.c_str());
  for (size_t i = 0; i < total; ++i) {
    std::putchar('=');
  }
  std::putchar('\n');
  for (size_t i = 0; i < columns_.size(); ++i) {
    std::printf("%-*s", static_cast<int>(widths[i] + 3), columns_[i].c_str());
  }
  std::putchar('\n');
  for (size_t i = 0; i < total; ++i) {
    std::putchar('-');
  }
  std::putchar('\n');
  for (const auto& row : rows_) {
    if (row.empty()) {
      for (size_t i = 0; i < total; ++i) {
        std::putchar('-');
      }
      std::putchar('\n');
      continue;
    }
    for (size_t i = 0; i < row.size(); ++i) {
      std::printf("%-*s", static_cast<int>(widths[i] + 3), row[i].c_str());
    }
    std::putchar('\n');
  }
  std::fflush(stdout);
}

std::string Ms(Duration d) {
  const double ms = d.millis();
  if (ms < 1.0) {
    return StrFormat("%.3f ms", ms);
  }
  if (ms < 100.0) {
    return StrFormat("%.2f ms", ms);
  }
  return StrFormat("%.1f ms", ms);
}

std::string Ratio(double r) { return StrFormat("%.1fx", r); }

std::string MiB(double bytes) {
  return StrFormat("%.1f MiB", bytes / (1024.0 * 1024.0));
}

std::vector<std::string> BreakdownRow(const std::string& label, const InvocationResult& r) {
  return {label, Ms(r.startup), Ms(r.exec), Ms(r.others), Ms(r.total)};
}

}  // namespace fwbench
