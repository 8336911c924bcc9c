// Platform-neutral serverless machinery: the host environment bundle, the
// invocation result breakdown, and the ServerlessPlatform interface every
// platform (Fireworks and the baselines) implements.
//
// The HostEnv mirrors Fig. 1: one host with physical memory, disk, a message
// bus, networking, a document database (the Cloud data service used by the
// ServerlessBench applications), and a snapshot store.
//
// A HostEnv normally owns its own Simulation, but it can also borrow an
// external one so that several hosts share a single virtual clock and event
// queue — the basis of the cluster layer (src/cluster/), where N hosts run as
// one deterministic simulation.
#ifndef FIREWORKS_SRC_CORE_PLATFORM_H_
#define FIREWORKS_SRC_CORE_PLATFORM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "src/base/status.h"
#include "src/base/units.h"
#include "src/fault/fault.h"
#include "src/lang/function_ir.h"
#include "src/lang/guest_process.h"
#include "src/mem/host_memory.h"
#include "src/msgbus/broker.h"
#include "src/net/network.h"
#include "src/obs/observability.h"
#include "src/simcore/simulation.h"
#include "src/storage/block_device.h"
#include "src/storage/document_db.h"
#include "src/storage/filesystem.h"
#include "src/storage/snapshot_store.h"

namespace fwcore {

using fwbase::Duration;
using fwbase::Result;
using fwbase::Status;

// One simulated host machine with every shared service on it. Platforms under
// comparison run against the same HostEnv class (separate instances per
// experiment run so measurements never interfere).
class HostEnv {
 public:
  struct Config {
    Config() {}
    uint64_t snapshot_store_bytes = 1024 * fwbase::kGiB;
    uint64_t seed = 42;
    // Fault injection (default: empty plan, which is inert — runs are
    // bit-identical to a host without an injector). The fault seed is its own
    // stream so enabling faults never perturbs the simulation's RNG.
    fwfault::FaultPlan fault_plan;
    uint64_t fault_seed = 4242;
  };

  HostEnv() : HostEnv(Config()) {}
  explicit HostEnv(const Config& config);
  // Borrows `sim` instead of owning one: the host schedules on the shared
  // clock, and `config.seed` is ignored (the borrowed simulation's RNG is the
  // stream of record). `sim` must outlive the HostEnv.
  HostEnv(fwsim::Simulation& sim, const Config& config);

  fwsim::Simulation& sim() { return sim_; }
  // Host-wide observability: one tracer + metrics registry on the sim clock,
  // shared by every subsystem and platform running against this host.
  fwobs::Observability& obs() { return obs_; }
  fwobs::Tracer& tracer() { return obs_.tracer(); }
  fwobs::MetricsRegistry& metrics() { return obs_.metrics(); }
  fwmem::HostMemory& memory() { return memory_; }
  fwstore::BlockDevice& disk() { return disk_; }
  fwstore::SnapshotStore& snapshot_store() { return snapshot_store_; }
  fwnet::HostNetwork& network() { return network_; }
  fwbus::Broker& broker() { return broker_; }
  fwstore::Filesystem& host_fs() { return host_fs_; }
  fwstore::DocumentDb& db() { return db_; }
  // Host-wide fault injector; every subsystem takes it at construction
  // (platforms pass it to the hypervisors/engines they own).
  fwfault::FaultInjector& fault_injector() { return fault_injector_; }

 private:
  HostEnv(std::unique_ptr<fwsim::Simulation> owned, fwsim::Simulation* borrowed,
          const Config& config);

  // Null when the simulation is borrowed. Declared before sim_ so the
  // reference can bind to it during construction.
  std::unique_ptr<fwsim::Simulation> owned_sim_;
  fwsim::Simulation& sim_;
  fwobs::Observability obs_;  // Before the subsystems that register metrics.
  fwfault::FaultInjector fault_injector_;  // Before the subsystems it faults.
  fwmem::HostMemory memory_;
  fwstore::BlockDevice disk_;
  fwstore::SnapshotStore snapshot_store_;
  fwnet::HostNetwork network_;
  fwbus::Broker broker_;
  fwstore::Filesystem host_fs_;
  fwstore::DocumentDb db_;
};

// End-to-end latency breakdown of one invocation, matching the Fig. 6/7
// stacking: start-up (request arrival → function entry), execution (the
// function body), and everything else (parameter passing, response path).
struct InvocationResult {
  InvocationResult() = default;

  Duration startup;
  Duration exec;
  Duration others;
  Duration total;
  bool cold = false;
  // Recovery bookkeeping: how many attempts the invocation took (1 = no
  // retry) and whether the platform degraded to a full cold boot after the
  // snapshot path was exhausted.
  int attempts = 1;
  bool cold_boot_fallback = false;
  fwlang::ExecStats exec_stats;
  // Root span of this invocation when the host's tracer was enabled (null
  // otherwise). Points into the HostEnv's tracer: valid until the tracer is
  // cleared or the HostEnv is destroyed. Benches and tests walk its children
  // to assert the latency breakdown instead of trusting the summed fields.
  const fwobs::Span* root_span = nullptr;

  InvocationResult& operator+=(const InvocationResult& o);
};
static_assert(!std::is_aggregate_v<InvocationResult>);

// Result of installing (deploying) a function.
struct InstallResult {
  InstallResult() = default;

  Duration total;           // Whole install: packages, boot, load, JIT, snapshot.
  Duration jit_time;        // Time spent JIT-compiling during installation.
  Duration snapshot_time;   // Creating + persisting the snapshot itself.
  uint64_t snapshot_bytes = 0;
};
static_assert(!std::is_aggregate_v<InstallResult>);

struct InvokeOptions {
  InvokeOptions() = default;

  // Force a cold start even if a warm sandbox is available.
  bool force_cold = false;
  // Keep the sandbox running after the invocation (consolidation
  // experiments). Released with ReleaseInstances().
  bool keep_instance = false;
  // Model the kept instance as long-running: its guest converges to the
  // steady-state resident set (guest page cache, slab, GC-churned heap).
  // Only meaningful with keep_instance (Fig 10's continuously-running VMs).
  bool steady_state = false;
  // Argument type signature; a mismatch with the JIT-profiled signature
  // triggers de-optimisation (§6).
  std::string type_sig = "default";
  // Per-invocation latency budget: bounds internal retries + backoff. Zero
  // means the platform's own default deadline applies. Cluster fronts
  // pass the request's remaining deadline here so a nearly-expired request
  // does not burn a full default timeout on a doomed host.
  Duration deadline = Duration::Zero();
};
static_assert(!std::is_aggregate_v<InvokeOptions>);

class ServerlessPlatform {
 public:
  virtual ~ServerlessPlatform() = default;

  virtual std::string name() const = 0;

  // Deploys a function. Must be called before Invoke.
  virtual fwsim::Co<Result<InstallResult>> Install(const fwlang::FunctionSource& fn) = 0;

  // Invokes a deployed function with `args`.
  virtual fwsim::Co<Result<InvocationResult>> Invoke(const std::string& fn_name,
                                                     const std::string& args,
                                                     const InvokeOptions& options) = 0;

  // Whether the platform can execute chains of functions (§5.1: only
  // OpenWhisk and Fireworks can; sandbox managers cannot).
  virtual bool SupportsChains() const { return false; }

  // Invokes a chain of functions sequentially, piping each function's output
  // to the next. Returns the per-stage results.
  virtual fwsim::Co<Result<std::vector<InvocationResult>>> InvokeChain(
      const std::vector<std::string>& fn_names, const std::string& args,
      const InvokeOptions& options);

  // Prepares a warm sandbox for `fn_name` per the paper's §5.1 methodology:
  // launch the sandbox, install the application on it, pause it in memory.
  // The next Invoke (without force_cold) is then a warm start. Platforms
  // without a warm/cold distinction (Fireworks) return OK and do nothing.
  virtual fwsim::Co<Status> Prewarm(const std::string& fn_name);

  // Total PSS of the platform's live sandboxes (smem methodology, §5.4).
  virtual double MeasurePssBytes() const { return 0.0; }
  // Tears down kept instances / warm sandboxes.
  virtual void ReleaseInstances() {}
};

}  // namespace fwcore

#endif  // FIREWORKS_SRC_CORE_PLATFORM_H_
