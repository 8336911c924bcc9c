#include "src/obs/export.h"

#include <algorithm>

#include "src/base/strings.h"

namespace fwobs {

void ChromeTraceBuilder::AddProcess(const std::string& name, const Tracer& tracer) {
  const int pid = next_pid_++;
  events_.push_back(fwbase::StrFormat(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":1,\"args\":{\"name\":%s}}",
      pid, fwbase::JsonQuote(name).c_str()));
  for (const Span& span : tracer.spans()) {
    if (!span.finished()) {
      continue;  // Open spans have no extent; they only arise on error paths.
    }
    std::string args;
    for (const auto& [key, value] : span.attributes()) {
      args += fwbase::StrFormat("%s%s:%s", args.empty() ? "" : ",",
                                fwbase::JsonQuote(key).c_str(), fwbase::JsonQuote(value).c_str());
    }
    events_.push_back(fwbase::StrFormat(
        "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
        "\"pid\":%d,\"tid\":1,\"args\":{%s}}",
        fwbase::JsonQuote(span.name()).c_str(),
        fwbase::JsonQuote(span.category().empty() ? "sim" : span.category()).c_str(),
        static_cast<double>(span.start().nanos()) / 1e3,
        static_cast<double>(span.duration().nanos()) / 1e3, pid, args.c_str()));
  }
}

std::string ChromeTraceBuilder::ToJson() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < events_.size(); ++i) {
    if (i != 0) {
      out += ',';
    }
    out += "\n  ";
    out += events_[i];
  }
  out += "\n]}\n";
  return out;
}

std::string ChromeTraceJson(const Tracer& tracer, const std::string& process_name) {
  ChromeTraceBuilder builder;
  builder.AddProcess(process_name, tracer);
  return builder.ToJson();
}

namespace {

// Exclusive time per path node in one dimension: total minus direct-child
// totals, clamped at zero (out-of-order exits; see profiler.h).
std::vector<int64_t> SelfNanos(const std::vector<Profiler::PathNode>& nodes, ProfileDim dim) {
  std::vector<int64_t> self(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    self[i] = dim == ProfileDim::kWall ? nodes[i].wall_total_nanos : nodes[i].sim_total_nanos;
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].parent >= 0) {
      self[nodes[i].parent] -=
          dim == ProfileDim::kWall ? nodes[i].wall_total_nanos : nodes[i].sim_total_nanos;
    }
  }
  for (int64_t& v : self) {
    v = std::max<int64_t>(v, 0);
  }
  return self;
}

std::string PathString(const Profiler& profiler, size_t node_index) {
  const auto& nodes = profiler.nodes();
  std::vector<const std::string*> parts;
  for (int32_t i = static_cast<int32_t>(node_index); i >= 0; i = nodes[i].parent) {
    parts.push_back(&profiler.scope_name(nodes[i].scope));
  }
  std::string path;
  for (size_t i = parts.size(); i > 0; --i) {
    if (!path.empty()) {
      path += ';';
    }
    path += *parts[i - 1];
  }
  return path;
}

}  // namespace

std::string ProfilerCollapsed(const Profiler& profiler, ProfileDim dim) {
  const std::vector<int64_t> self = SelfNanos(profiler.nodes(), dim);
  std::vector<std::string> lines;
  for (size_t i = 0; i < self.size(); ++i) {
    if (self[i] <= 0) {
      continue;
    }
    lines.push_back(fwbase::StrFormat("%s %lld\n", PathString(profiler, i).c_str(),
                                      static_cast<long long>(self[i])));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
  }
  return out;
}

std::string ProfilerTopN(const Profiler& profiler, size_t n) {
  std::string out = fwbase::StrFormat("%-36s %12s %14s %14s %14s %14s\n", "scope", "calls",
                                      "wall self", "wall total", "sim self", "sim total");
  for (const Profiler::ScopeTotals& t : profiler.TopN(n)) {
    out += fwbase::StrFormat(
        "%-36s %12llu %14s %14s %14s %14s\n", t.name.c_str(),
        static_cast<unsigned long long>(t.calls),
        fwbase::Duration::Nanos(t.wall_self_nanos).ToString().c_str(),
        fwbase::Duration::Nanos(t.wall_total_nanos).ToString().c_str(),
        fwbase::Duration::Nanos(t.sim_self_nanos).ToString().c_str(),
        fwbase::Duration::Nanos(t.sim_total_nanos).ToString().c_str());
  }
  return out;
}

}  // namespace fwobs
