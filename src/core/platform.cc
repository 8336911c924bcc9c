#include "src/core/platform.h"

#include <memory>
#include <utility>

namespace fwcore {

namespace {

// Host RAM of the paper's testbed (§5.1).
constexpr uint64_t kHostMemoryBytes = 128 * fwbase::kGiB;

}  // namespace

HostEnv::HostEnv(const Config& config)
    : HostEnv(std::make_unique<fwsim::Simulation>(config.seed), nullptr, config) {}

HostEnv::HostEnv(fwsim::Simulation& sim, const Config& config)
    : HostEnv(nullptr, &sim, config) {}

HostEnv::HostEnv(std::unique_ptr<fwsim::Simulation> owned, fwsim::Simulation* borrowed,
                 const Config& config)
    : owned_sim_(std::move(owned)),
      sim_(owned_sim_ != nullptr ? *owned_sim_ : *borrowed),
      obs_([this] { return sim_.Now(); }),
      fault_injector_(sim_, config.fault_plan, config.fault_seed),
      memory_(kHostMemoryBytes, obs_),
      disk_(sim_, fwstore::BlockDevice::Config{}, fault_injector_),
      snapshot_store_(sim_, disk_, config.snapshot_store_bytes, obs_, fault_injector_),
      network_(sim_, fault_injector_),
      broker_(sim_, obs_, fault_injector_),
      host_fs_(sim_, disk_, fwstore::FsKind::kHostDirect),
      db_(sim_, host_fs_) {
  fault_injector_.set_observability(&obs_);
  if (owned_sim_ != nullptr) {
    // This env is the simulation's only tenant: attribute kernel dispatch to
    // its profiler. A borrowed sim (multi-host cluster) keeps whatever its
    // owner installed.
    owned_sim_->set_profiler(&obs_.profiler());
  }
}

InvocationResult& InvocationResult::operator+=(const InvocationResult& o) {
  startup += o.startup;
  exec += o.exec;
  others += o.others;
  total += o.total;
  cold = cold || o.cold;
  attempts += o.attempts - 1;  // Accumulate retries; 1 stays 1.
  cold_boot_fallback = cold_boot_fallback || o.cold_boot_fallback;
  exec_stats += o.exec_stats;
  return *this;
}

fwsim::Co<Status> ServerlessPlatform::Prewarm(const std::string& fn_name) {
  co_return Status::Ok();
}

fwsim::Co<Result<std::vector<InvocationResult>>> ServerlessPlatform::InvokeChain(
    const std::vector<std::string>& fn_names, const std::string& args,
    const InvokeOptions& options) {
  if (!SupportsChains()) {
    co_return Status::FailedPrecondition(name() + " cannot process a chain of functions");
  }
  std::vector<InvocationResult> results;
  std::string payload = args;
  for (const auto& fn_name : fn_names) {
    Result<InvocationResult> r = co_await Invoke(fn_name, payload, options);
    if (!r.ok()) {
      co_return r.status();
    }
    results.push_back(*r);
    // The processed data is piped to the next function (Fig 8).
    payload = args + "|via:" + fn_name;
  }
  co_return results;
}

}  // namespace fwcore
