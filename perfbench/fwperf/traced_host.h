// Forwarding ClusterHost decorator for the traced benchmark run.
//
// Wraps the host a workload would otherwise hand to the Cluster (ModelHost
// or FullHost) and records, per call, what the front end asked of it and
// what came back: simulated start/end of every Invoke, the host's own
// startup/exec/others split, warm-pool activity, and the guest's ExecStats.
// It records simulated time only: the calls span awaits, so wall time across
// them would mix in every interleaved event.
//
// The decorator adds one coroutine frame per call and no simulation events
// (child coroutines start by symmetric transfer), so a decorated run replays
// the undecorated one event for event; the benchmark checks this by digest.
#ifndef FWPERF_TRACED_HOST_H_
#define FWPERF_TRACED_HOST_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/stats.h"
#include "src/cluster/host.h"
#include "src/obs/trace.h"
#include "src/simcore/simulation.h"

namespace fwperf {

// One completed Invoke call on one host.
struct InvokeRecord {
  InvokeRecord() {}

  int host = -1;
  int app = -1;  // Index into HostCallLog::apps.
  bool ok = false;
  bool warm = false;  // Served by a parked clone.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t startup_ns = 0;
  int64_t exec_ns = 0;
  int64_t others_ns = 0;
  int64_t total_ns = 0;
  int64_t jit_compile_ns = 0;
  int64_t fault_ns = 0;
  uint64_t deopts = 0;
  // Root span of the invocation on the host's tracer (FullHost with tracing
  // on); null otherwise.
  const fwobs::Span* root = nullptr;
};

// Everything the decorators of one cluster record, shared by all hosts.
class HostCallLog {
 public:
  explicit HostCallLog(std::vector<std::string> apps);

  HostCallLog(const HostCallLog&) = delete;
  HostCallLog& operator=(const HostCallLog&) = delete;

  int AppIndex(const std::string& name) const;

  std::vector<InvokeRecord> invokes;
  fwbase::SampleStats prepare_ms;  // Successful PrepareClone calls.
  uint64_t prepares = 0;           // PrepareClone calls started.
  uint64_t discards = 0;           // DiscardClone calls that released a clone.
  // Highest per-host live network-namespace count seen at a call boundary.
  uint64_t peak_netns = 0;

 private:
  std::vector<std::string> apps_;
  std::map<std::string, int> index_;
};

class TracedHost : public fwcluster::ClusterHost {
 public:
  // `full` is the FullHost inside `inner`, or null for a ModelHost.
  TracedHost(std::unique_ptr<fwcluster::ClusterHost> inner, fwcluster::FullHost* full,
             fwsim::Simulation& sim, HostCallLog& log);

  int id() const override { return inner_->id(); }
  const char* kind() const override { return inner_->kind(); }

  fwsim::Co<fwbase::Status> Install(const fwlang::FunctionSource& fn) override;
  fwsim::Co<fwbase::Result<fwcore::InvocationResult>> Invoke(const std::string& fn_name,
                                                             const std::string& args,
                                                             fwbase::Duration deadline) override;
  fwsim::Co<fwbase::Status> PrepareClone(const std::string& fn_name) override;
  fwbase::Status DiscardClone(const std::string& fn_name) override;
  size_t PooledClones(const std::string& fn_name) const override {
    return inner_->PooledClones(fn_name);
  }
  size_t TotalPooledClones() const override { return inner_->TotalPooledClones(); }
  double MemoryBytes() const override { return inner_->MemoryBytes(); }
  double PssBytes() const override { return inner_->PssBytes(); }
  size_t LiveVmCount() override { return inner_->LiveVmCount(); }
  size_t LiveNetnsCount() override { return inner_->LiveNetnsCount(); }
  uint64_t warm_hits() const override { return inner_->warm_hits(); }
  void DropWarmPool() override { inner_->DropWarmPool(); }

  // Null for a ModelHost.
  fwcluster::FullHost* full() const { return full_; }

 private:
  void SampleNetns();

  std::unique_ptr<fwcluster::ClusterHost> inner_;
  fwcluster::FullHost* full_;
  fwsim::Simulation& sim_;
  HostCallLog& log_;
};

}  // namespace fwperf

#endif  // FWPERF_TRACED_HOST_H_
