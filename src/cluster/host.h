// Cluster host abstraction: the unit the front-end scheduler dispatches to.
//
// Two implementations share the interface:
//
//   * FullHost — a complete simulated Fireworks machine: its own HostEnv
//     (borrowing the cluster's shared Simulation so all hosts advance on one
//     clock), hypervisor, snapshot store, NAT network, broker, and a
//     FireworksPlatform with its parked-clone warm pool. Full per-page and
//     per-subsystem fidelity; ~tens of thousands of simulation events per
//     invocation. Used by tests, chaos runs, and small benches.
//
//   * ModelHost — a calibrated host model for fleet-scale runs (≥1M
//     invocations across ≥32 hosts): per-invocation latency and memory are
//     drawn from a HostCalibration measured on full-fidelity probe runs
//     (see calibrate.h), with vCPU contention modelled by a FIFO semaphore so
//     queueing delays emerge under burst. A handful of events per invocation.
//
// Both are deterministic: ModelHost's jitter comes from an RNG stream forked
// from the shared simulation at construction time.
#ifndef FIREWORKS_SRC_CLUSTER_HOST_H_
#define FIREWORKS_SRC_CLUSTER_HOST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/base/units.h"
#include "src/core/fireworks.h"
#include "src/core/platform.h"
#include "src/simcore/primitives.h"
#include "src/simcore/simulation.h"

namespace fwcluster {

using fwbase::Duration;
using fwbase::Result;
using fwbase::Status;

class ClusterHost {
 public:
  virtual ~ClusterHost() = default;

  virtual int id() const = 0;
  virtual const char* kind() const = 0;  // "full" | "model"

  virtual fwsim::Co<Status> Install(const fwlang::FunctionSource& fn) = 0;

  // One end-to-end invocation on this host: a warm-pool hit when a parked
  // clone of `fn_name` exists, the snapshot-restore path otherwise.
  // `deadline` is the request's remaining latency budget (zero = the
  // platform's own default timeout applies).
  virtual fwsim::Co<Result<fwcore::InvocationResult>> Invoke(const std::string& fn_name,
                                                             const std::string& args,
                                                             Duration deadline) = 0;

  // Warm-pool control (driven by the cluster's autoscaler).
  virtual fwsim::Co<Status> PrepareClone(const std::string& fn_name) = 0;
  virtual Status DiscardClone(const std::string& fn_name) = 0;
  virtual size_t PooledClones(const std::string& fn_name) const = 0;
  virtual size_t TotalPooledClones() const = 0;

  // Memory + liveness accounting for the density report and leak checks.
  // MemoryBytes is the host's physical capacity; PssBytes/MemoryBytes is the
  // pressure fraction hosts report in their heartbeats (brownout signal).
  virtual double MemoryBytes() const = 0;
  virtual double PssBytes() const = 0;
  virtual size_t LiveVmCount() = 0;
  virtual size_t LiveNetnsCount() = 0;

  // Warm-pool hits served so far (for the rollup).
  virtual uint64_t warm_hits() const = 0;

  // Crash cleanup: parked clones vanish with the host's memory. In-flight
  // invocations are not cancelled — they drain as zombies whose results the
  // cluster discards (see Cluster::CrashHost).
  virtual void DropWarmPool() = 0;
};

// ---------------------------------------------------------------------------
// FullHost
// ---------------------------------------------------------------------------

class FullHost : public ClusterHost {
 public:
  struct Config {
    Config() {}
    fwcore::HostEnv::Config env;
    fwcore::FireworksPlatform::Config fw;
  };

  FullHost(fwsim::Simulation& sim, int id, const Config& config);

  int id() const override { return id_; }
  const char* kind() const override { return "full"; }

  fwsim::Co<Status> Install(const fwlang::FunctionSource& fn) override;
  fwsim::Co<Result<fwcore::InvocationResult>> Invoke(const std::string& fn_name,
                                                     const std::string& args,
                                                     Duration deadline) override;
  fwsim::Co<Status> PrepareClone(const std::string& fn_name) override;
  Status DiscardClone(const std::string& fn_name) override;
  double MemoryBytes() const override;
  double PssBytes() const override;
  size_t PooledClones(const std::string& fn_name) const override;
  size_t TotalPooledClones() const override;
  size_t LiveVmCount() override;
  size_t LiveNetnsCount() override;
  uint64_t warm_hits() const override { return warm_invoked_.value(); }
  void DropWarmPool() override;

  fwcore::HostEnv& env() { return env_; }
  fwcore::FireworksPlatform& platform() { return platform_; }

 private:
  int id_;
  fwcore::HostEnv env_;  // Borrows the cluster's shared Simulation.
  double memory_bytes_;  // Physical capacity of env_'s memory.
  fwcore::FireworksPlatform platform_;
  // The platform's fw.warmpool.invoked.count: every parked-clone invocation
  // that succeeded, which is exactly a warm hit.
  const fwobs::Counter& warm_invoked_;
};

// ---------------------------------------------------------------------------
// ModelHost
// ---------------------------------------------------------------------------

// Per-invocation costs distilled from full-fidelity probe runs (calibrate.h).
// cold_* describe the platform's regular path (for Fireworks: the snapshot
// restore path — there is no semantic cold/warm distinction), warm_* the
// parked-clone / prewarmed path.
struct HostCalibration {
  HostCalibration() {}

  Duration cold_startup;
  Duration cold_exec;
  Duration cold_others;
  Duration warm_startup;
  Duration warm_exec;
  Duration warm_others;
  // Wall time of preparing one parked clone (off the latency path).
  Duration prepare_cost;
  // Marginal PSS of one running instance / one parked clone (CoW sharing
  // against the snapshot image makes these far smaller than RSS).
  double instance_pss_bytes = 0.0;
  double pooled_clone_pss_bytes = 0.0;
  // Multiplicative latency jitter: each phase is scaled by a uniform draw
  // from [1 - jitter, 1 + jitter].
  double jitter = 0.04;
};

class ModelHost : public ClusterHost {
 public:
  struct Config {
    Config() {}
    int vcpus = 16;
    // Modelled physical memory (denominator of the pressure fraction).
    double memory_bytes = 8.0 * (1ull << 30);
    HostCalibration calibration;
  };

  // Forks a jitter RNG stream from `sim`'s generator (deterministic given
  // construction order).
  ModelHost(fwsim::Simulation& sim, int id, const Config& config);

  int id() const override { return id_; }
  const char* kind() const override { return "model"; }

  fwsim::Co<Status> Install(const fwlang::FunctionSource& fn) override;
  fwsim::Co<Result<fwcore::InvocationResult>> Invoke(const std::string& fn_name,
                                                     const std::string& args,
                                                     Duration deadline) override;
  fwsim::Co<Status> PrepareClone(const std::string& fn_name) override;
  Status DiscardClone(const std::string& fn_name) override;
  double MemoryBytes() const override { return config_.memory_bytes; }
  double PssBytes() const override;
  size_t PooledClones(const std::string& fn_name) const override;
  size_t TotalPooledClones() const override;
  size_t LiveVmCount() override;
  size_t LiveNetnsCount() override;
  uint64_t warm_hits() const override { return warm_hits_; }
  void DropWarmPool() override;

 private:
  Duration Jitter(Duration d);

  // The installed function's slot in parked_, or nullptr when `fn_name` is
  // not installed: the one hashed lookup each call makes.
  const size_t* SlotOf(const std::string& fn_name) const;

  int id_;
  fwsim::Simulation& sim_;
  Config config_;
  fwbase::Rng rng_;
  fwsim::Resource cpu_;
  // Installed function name -> slot; a slot exists exactly when the function
  // is installed (nothing iterates this map).
  std::unordered_map<std::string, size_t> slot_of_;
  std::vector<size_t> parked_;  // Parked-clone count per slot.
  size_t pooled_total_ = 0;
  size_t inflight_vms_ = 0;
  uint64_t warm_hits_ = 0;
};

}  // namespace fwcluster

#endif  // FIREWORKS_SRC_CLUSTER_HOST_H_
