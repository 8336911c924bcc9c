#include "src/cluster/host.h"

#include <algorithm>
#include <utility>

#include "src/base/check.h"

namespace fwcluster {

// ---------------------------------------------------------------------------
// FullHost
// ---------------------------------------------------------------------------

FullHost::FullHost(fwsim::Simulation& sim, int id, const Config& config)
    : id_(id),
      env_(sim, config.env),
      memory_bytes_(static_cast<double>(env_.memory().total_bytes())),
      platform_(env_, config.fw),
      warm_invoked_(env_.metrics().GetCounter("fw.warmpool.invoked.count")) {}

fwsim::Co<Status> FullHost::Install(const fwlang::FunctionSource& fn) {
  auto r = co_await platform_.Install(fn);
  co_return r.status();
}

fwsim::Co<Result<fwcore::InvocationResult>> FullHost::Invoke(const std::string& fn_name,
                                                             const std::string& args,
                                                             Duration deadline) {
  fwcore::InvokeOptions options;
  options.deadline = deadline;
  co_return co_await platform_.Invoke(fn_name, args, options);
}

fwsim::Co<Status> FullHost::PrepareClone(const std::string& fn_name) {
  auto r = co_await platform_.PrepareClone(fn_name);
  co_return r.status();
}

Status FullHost::DiscardClone(const std::string& fn_name) {
  return platform_.DiscardClone(fn_name);
}

size_t FullHost::PooledClones(const std::string& fn_name) const {
  return platform_.PooledCloneCount(fn_name);
}

size_t FullHost::TotalPooledClones() const { return platform_.TotalPooledClones(); }

double FullHost::MemoryBytes() const { return memory_bytes_; }

double FullHost::PssBytes() const { return platform_.MeasurePssBytes(); }

size_t FullHost::LiveVmCount() { return platform_.hypervisor().live_vm_count(); }

size_t FullHost::LiveNetnsCount() { return env_.network().namespace_count(); }

void FullHost::DropWarmPool() {
  // ReleaseInstances also clears kept instances; the cluster never keeps any,
  // so this only drains the parked-clone pool.
  platform_.ReleaseInstances();
}

// ---------------------------------------------------------------------------
// ModelHost
// ---------------------------------------------------------------------------

ModelHost::ModelHost(fwsim::Simulation& sim, int id, const Config& config)
    : id_(id), sim_(sim), config_(config), rng_(sim.rng().Fork()), cpu_(sim, config.vcpus) {
  FW_CHECK(config.vcpus > 0);
}

Duration ModelHost::Jitter(Duration d) {
  const double j = config_.calibration.jitter;
  const double scale = rng_.UniformDouble(1.0 - j, 1.0 + j);
  return Duration::Nanos(static_cast<int64_t>(static_cast<double>(d.nanos()) * scale));
}

const size_t* ModelHost::SlotOf(const std::string& fn_name) const {
  auto it = slot_of_.find(fn_name);
  return it == slot_of_.end() ? nullptr : &it->second;
}

fwsim::Co<Status> ModelHost::Install(const fwlang::FunctionSource& fn) {
  if (slot_of_.try_emplace(fn.name, parked_.size()).second) {
    parked_.push_back(0);
  }
  co_return Status::Ok();
}

fwsim::Co<Result<fwcore::InvocationResult>> ModelHost::Invoke(const std::string& fn_name,
                                                              const std::string& args,
                                                              Duration deadline) {
  // The calibrated model has no internal retry loop for a deadline to bound;
  // the cluster already sheds requests whose budget cannot be met.
  (void)deadline;
  const size_t* slot = SlotOf(fn_name);
  if (slot == nullptr) {
    co_return Status::NotFound("function " + fn_name + " is not installed");
  }
  // Claim a parked clone up front: a burst drains the pool even while its
  // requests are still queueing for vCPUs, as on a real host.
  bool warm = false;
  if (parked_[*slot] > 0) {
    warm = true;
    --parked_[*slot];
    --pooled_total_;
    ++warm_hits_;
  }
  const fwbase::SimTime t0 = sim_.Now();
  co_await cpu_.Acquire();
  ++inflight_vms_;
  const HostCalibration& cal = config_.calibration;
  const Duration startup = Jitter(warm ? cal.warm_startup : cal.cold_startup);
  const Duration exec = Jitter(warm ? cal.warm_exec : cal.cold_exec);
  const Duration others = Jitter(warm ? cal.warm_others : cal.cold_others);
  co_await fwsim::Delay(sim_, startup);
  co_await fwsim::Delay(sim_, exec);
  co_await fwsim::Delay(sim_, others);
  --inflight_vms_;
  cpu_.Release();

  fwcore::InvocationResult result;
  result.startup = startup;
  result.exec = exec;
  // Queueing delay (vCPU wait) lands in `others`, as response-path time.
  result.total = sim_.Now() - t0;
  result.others = result.total - startup - exec;
  result.cold = !warm;
  co_return result;
}

fwsim::Co<Status> ModelHost::PrepareClone(const std::string& fn_name) {
  const size_t* slot = SlotOf(fn_name);
  if (slot == nullptr) {
    co_return Status::NotFound("function " + fn_name + " is not installed");
  }
  // An index, not a reference into parked_: installs may grow it meanwhile.
  const size_t index = *slot;
  co_await fwsim::Delay(sim_, Jitter(config_.calibration.prepare_cost));
  ++parked_[index];
  ++pooled_total_;
  co_return Status::Ok();
}

Status ModelHost::DiscardClone(const std::string& fn_name) {
  const size_t* slot = SlotOf(fn_name);
  if (slot == nullptr || parked_[*slot] == 0) {
    return Status::NotFound("no parked clone for " + fn_name);
  }
  --parked_[*slot];
  --pooled_total_;
  return Status::Ok();
}

size_t ModelHost::PooledClones(const std::string& fn_name) const {
  const size_t* slot = SlotOf(fn_name);
  return slot == nullptr ? 0 : parked_[*slot];
}

size_t ModelHost::TotalPooledClones() const { return pooled_total_; }

double ModelHost::PssBytes() const {
  return static_cast<double>(inflight_vms_) * config_.calibration.instance_pss_bytes +
         static_cast<double>(pooled_total_) * config_.calibration.pooled_clone_pss_bytes;
}

size_t ModelHost::LiveVmCount() { return inflight_vms_ + pooled_total_; }

size_t ModelHost::LiveNetnsCount() { return inflight_vms_ + pooled_total_; }

void ModelHost::DropWarmPool() {
  std::fill(parked_.begin(), parked_.end(), 0);
  pooled_total_ = 0;
}

}  // namespace fwcluster
