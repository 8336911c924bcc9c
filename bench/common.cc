#include "bench/common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/base/check.h"
#include "src/base/strings.h"
#include "src/fault/fault.h"
#include "src/obs/export.h"

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

// One merged-trace process per measured run (each run is a fresh HostEnv whose
// sim clock starts at t=0, so they must not share a pid timeline).
void CollectTrace(const std::string& label, HostEnv& env) {
  if (!g_trace_path.empty()) {
    g_trace_builder.AddProcess(label, env.tracer());
  }
}

}  // namespace

void InitBenchmark(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--trace=", 8) == 0) {
      g_trace_path = arg + 8;
      if (g_trace_path.empty()) {
        std::fprintf(stderr, "--trace needs a file path\n");
        std::exit(2);
      }
    } else if (std::strncmp(arg, "--faults=", 9) == 0) {
      auto plan = fwfault::FaultPlan::Parse(arg + 9);
      if (!plan.ok()) {
        std::fprintf(stderr, "bad --faults spec: %s\n",
                     plan.status().ToString().c_str());
        std::exit(2);
      }
      g_fault_plan = *plan;
    } else {
      std::fprintf(stderr,
                   "unknown flag %s (supported: --trace=<file>, --faults=<spec>)\n", arg);
      std::exit(2);
    }
  }
}

bool TraceActive() { return !g_trace_path.empty(); }

void FinishBenchmark() {
  if (g_trace_path.empty()) {
    return;
  }
  std::FILE* f = std::fopen(g_trace_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open trace file %s\n", g_trace_path.c_str());
    std::exit(1);
  }
  const std::string json = g_trace_builder.ToJson();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
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
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open report file %s\n", path.c_str());
    std::exit(1);
  }
  const std::string json = ToJson();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
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
