#include "perfbench/fwperf/traced_host.h"

#include <algorithm>
#include <utility>

#include "src/base/check.h"

namespace fwperf {

HostCallLog::HostCallLog(std::vector<std::string> apps) : apps_(std::move(apps)) {
  for (size_t i = 0; i < apps_.size(); ++i) {
    index_.emplace(apps_[i], static_cast<int>(i));
  }
}

int HostCallLog::AppIndex(const std::string& name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? -1 : it->second;
}

TracedHost::TracedHost(std::unique_ptr<fwcluster::ClusterHost> inner,
                       fwcluster::FullHost* full, fwsim::Simulation& sim, HostCallLog& log)
    : inner_(std::move(inner)), full_(full), sim_(sim), log_(log) {
  FW_CHECK(inner_ != nullptr);
}

void TracedHost::SampleNetns() {
  log_.peak_netns = std::max<uint64_t>(log_.peak_netns, inner_->LiveNetnsCount());
}

fwsim::Co<fwbase::Status> TracedHost::Install(const fwlang::FunctionSource& fn) {
  co_return co_await inner_->Install(fn);
}

fwsim::Co<fwbase::Result<fwcore::InvocationResult>> TracedHost::Invoke(
    const std::string& fn_name, const std::string& args, fwbase::Duration deadline) {
  InvokeRecord rec;
  rec.host = inner_->id();
  rec.app = log_.AppIndex(fn_name);
  rec.start_ns = sim_.Now().nanos();
  SampleNetns();
  fwbase::Result<fwcore::InvocationResult> result =
      co_await inner_->Invoke(fn_name, args, deadline);
  SampleNetns();
  rec.end_ns = sim_.Now().nanos();
  rec.ok = result.ok();
  if (result.ok()) {
    const fwcore::InvocationResult& r = *result;
    rec.startup_ns = r.startup.nanos();
    rec.exec_ns = r.exec.nanos();
    rec.others_ns = r.others.nanos();
    rec.total_ns = r.total.nanos();
    rec.jit_compile_ns = r.exec_stats.jit_compile_time.nanos();
    rec.fault_ns = r.exec_stats.fault_time.nanos();
    rec.deopts = r.exec_stats.deopts;
    rec.root = r.root_span;
    // Which path served the call. The host's warm-hit counter cannot tell:
    // other calls on the same host move it while this one is suspended.
    // A traced FullHost names its root span after the path; a ModelHost
    // reports its restore path as cold.
    rec.warm = r.root_span != nullptr ? r.root_span->name() == "fireworks.invoke_warm" : !r.cold;
  }
  log_.invokes.push_back(rec);
  co_return result;
}

fwsim::Co<fwbase::Status> TracedHost::PrepareClone(const std::string& fn_name) {
  ++log_.prepares;
  const fwbase::SimTime t0 = sim_.Now();
  fwbase::Status s = co_await inner_->PrepareClone(fn_name);
  if (s.ok()) {
    log_.prepare_ms.Add((sim_.Now() - t0).millis());
  }
  SampleNetns();
  co_return s;
}

fwbase::Status TracedHost::DiscardClone(const std::string& fn_name) {
  fwbase::Status s = inner_->DiscardClone(fn_name);
  if (s.ok()) {
    ++log_.discards;
  }
  return s;
}

}  // namespace fwperf
