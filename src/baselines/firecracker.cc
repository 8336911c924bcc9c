#include "src/baselines/firecracker.h"

#include <utility>

#include "src/base/check.h"
#include "src/base/strings.h"
#include "src/baselines/util.h"

namespace fwbaselines {

using fwbase::SimTime;
using fwlang::ExecEnv;
using fwlang::GuestProcess;
using fwvmm::MicroVm;

namespace {

// A sandbox manager is driven directly; minimal per-request handling.
constexpr Duration kRequestCost = Duration::Micros(250);

}  // namespace

FirecrackerPlatform::FirecrackerPlatform(HostEnv& env) : FirecrackerPlatform(env, Config()) {}

FirecrackerPlatform::FirecrackerPlatform(HostEnv& env, const Config& config)
    : env_(env),
      config_(config),
      hv_(env.sim(), env.memory(), env.snapshot_store(), env.obs(), env.fault_injector()),
      tracer_(&env.tracer()) {}

FirecrackerPlatform::~FirecrackerPlatform() { ReleaseInstances(); }

fwlang::GuestProcess::FaultCharger FirecrackerPlatform::ChargerFor(MicroVm* vm) {
  return [this, vm](const fwmem::FaultCounts& faults) {
    return hv_.FaultServiceTime(*vm, faults);
  };
}

fwsim::Co<Result<InstallResult>> FirecrackerPlatform::Install(
    const fwlang::FunctionSource& fn) {
  if (installed_.count(fn.name) != 0) {
    co_return Status::AlreadyExists("function " + fn.name + " already installed");
  }
  const SimTime t0 = env_.sim().Now();
  InstalledFunction record;
  record.source = std::make_unique<fwlang::FunctionSource>(fn);

  // Dependencies (npm/pip) are baked into the function's rootfs at deploy
  // time; cold starts only pay boot + load.
  if (fn.package_bytes > 0) {
    const double mib = static_cast<double>(fn.package_bytes) / static_cast<double>(fwbase::kMiB);
    co_await fwsim::Delay(env_.sim(),
                          fwlang::RuntimeCosts::For(fn.language).package_install_cost_per_mib *
                              mib);
    co_await env_.host_fs().WriteFile(fn.package_bytes);
  }

  if (config_.mode == FirecrackerMode::kOsSnapshot) {
    // Snapshot right after the guest OS finishes booting (§5.5).
    MicroVm* vm = co_await hv_.CreateMicroVm("fcos-install-" + fn.name);
    Status booted = co_await hv_.BootGuestOs(*vm);
    if (!booted.ok()) {
      FW_CHECK(hv_.Destroy(*vm).ok());
      co_return booted;
    }
    auto image = co_await hv_.CreateSnapshot(*vm, "fcos-" + fn.name);
    if (!image.ok()) {
      // Persisting the OS snapshot failed: release the install VM before
      // surfacing the error.
      FW_CHECK(hv_.Destroy(*vm).ok());
      co_return image.status();
    }
    (void)env_.snapshot_store().Pin("fcos-" + fn.name);
    FW_CHECK(hv_.Destroy(*vm).ok());
    record.os_snapshot_taken = true;
  }

  InstallResult result;
  result.total = env_.sim().Now() - t0;
  installed_.emplace(fn.name, std::move(record));
  co_return result;
}

fwsim::Co<Result<std::unique_ptr<FirecrackerPlatform::Sandbox>>>
FirecrackerPlatform::LaunchSandbox(const InstalledFunction& fn,
                                   const std::string& sandbox_name) {
  auto sandbox = std::make_unique<Sandbox>();
  if (config_.mode == FirecrackerMode::kOsSnapshot) {
    FW_CHECK(fn.os_snapshot_taken);
    auto restored = co_await hv_.RestoreMicroVm("fcos-" + fn.source->name, sandbox_name);
    if (restored.ok()) {
      sandbox->vm = *restored;
      // Post-restore guest-kernel activity, as in Fireworks.
      auto& space = sandbox->vm->address_space();
      const fwmem::FaultCounts faults = fwvmm::GuestOsPageActivity(
          space, space.SegmentByName(fwvmm::kSegGuestKernel),
          space.SegmentByName(fwvmm::kSegGuestOs), fwvmm::kGuestOsResumeTouchFraction,
          fwvmm::kGuestOsResumeDirtyFraction, 3000 + next_instance_, 4000 + next_instance_);
      co_await hv_.ServiceFaults(*sandbox->vm, faults);
    } else {
      // Snapshot path failed (restore crash, corrupted or evicted image):
      // degrade to a full guest-OS boot.
      env_.metrics().GetCounter("fc.coldboot_fallback.count").Increment();
      sandbox->vm = co_await hv_.CreateMicroVm(sandbox_name);
      Status booted = co_await hv_.BootGuestOs(*sandbox->vm);
      if (!booted.ok()) {
        co_return booted;
      }
    }
  } else {
    sandbox->vm = co_await hv_.CreateMicroVm(sandbox_name);
    Status booted = co_await hv_.BootGuestOs(*sandbox->vm);
    if (!booted.ok()) {
      co_return booted;
    }
  }
  sandbox->fs = std::make_unique<fwstore::Filesystem>(env_.sim(), env_.disk(),
                                                      fwstore::FsKind::kVirtio);
  ExecEnv guest_env(sandbox->fs.get(), &env_.db(), DirectNetSend(env_),
                    fwbase::Duration::Micros(400));
  sandbox->process =
      std::make_unique<GuestProcess>(env_.sim(), fn.source->language,
                                     sandbox->vm->address_space(), guest_env,
                                     ChargerFor(sandbox->vm));
  sandbox->process->set_mem_salt(next_instance_);
  co_await sandbox->process->BootRuntime();
  co_await sandbox->process->LoadApplication(*fn.source);
  co_return sandbox;
}

fwsim::Co<Status> FirecrackerPlatform::Prewarm(const std::string& fn_name) {
  auto it = installed_.find(fn_name);
  if (it == installed_.end()) {
    co_return Status::NotFound("function " + fn_name + " is not installed");
  }
  if (it->second.warm != nullptr) {
    co_return Status::Ok();
  }
  auto sandbox = co_await LaunchSandbox(
      it->second, fwbase::StrFormat("fc-warm-%s", fn_name.c_str()));
  if (!sandbox.ok()) {
    co_return sandbox.status();
  }
  // §5.1: pause the sandbox to keep it warm in memory.
  Status paused = co_await hv_.Pause(*(*sandbox)->vm);
  if (!paused.ok()) {
    co_return paused;
  }
  // Re-acquire after the suspensions above: holding `it` across a co_await
  // is only safe while no code path erases installed_ entries; re-finding
  // keeps that invariant local. Runtime impact: one extra map lookup per
  // prewarm; behaviour is unchanged while the entry still exists.
  it = installed_.find(fn_name);
  if (it == installed_.end()) {
    co_return Status::NotFound("function " + fn_name + " removed during prewarm");
  }
  StashWarm(it->second, *std::move(sandbox));
  co_return Status::Ok();
}

fwsim::Co<Result<InvocationResult>> FirecrackerPlatform::Invoke(const std::string& fn_name,
                                                                const std::string& args,
                                                                const InvokeOptions& options) {
  auto it = installed_.find(fn_name);
  if (it == installed_.end()) {
    co_return Status::NotFound("function " + fn_name + " is not installed");
  }
  InstalledFunction& fn = it->second;
  InvocationResult result;
  const SimTime t0 = env_.sim().Now();
  fwobs::ScopedSpan root(tracer_, "firecracker.invoke", "invoke");
  root.SetAttribute("function", fn_name);
  fwobs::ScopedSpan startup_span(tracer_, "invoke.startup", "invoke");
  co_await fwsim::Delay(env_.sim(), kRequestCost);

  std::unique_ptr<Sandbox> sandbox;
  // installed_ is a node-based map and no code path erases entries, so the
  // fn reference stays valid across suspensions.
  if (fn.warm != nullptr && !options.force_cold) {  // fwlint:allow(iterator-invalidation)
    // Warm start: resume the paused sandbox.
    result.cold = false;
    sandbox = std::move(fn.warm);
    Status resumed = co_await hv_.Resume(*sandbox->vm);
    if (!resumed.ok()) {
      // The VMM process died resuming the warm sandbox: discard the dead
      // sandbox and degrade to a cold start.
      env_.metrics().GetCounter("fc.warm_resume_crash.count").Increment();
      DestroySandbox(*sandbox);
      sandbox.reset();
      result.cold = true;
      result.attempts = 2;
      result.cold_boot_fallback = true;
    }
  } else {
    result.cold = true;
  }
  if (sandbox == nullptr) {
    auto launched = co_await LaunchSandbox(
        fn, fwbase::StrFormat("fc-%s-%llu", fn_name.c_str(),
                              static_cast<unsigned long long>(next_instance_)));
    if (!launched.ok()) {
      co_return launched.status();
    }
    sandbox = *std::move(launched);
  }
  ++next_instance_;
  root.SetAttribute("cold", result.cold ? "true" : "false");
  startup_span.End();
  co_await FinishInvocation(env_, *sandbox->process, *fn.source, args.size(), options, t0, root,
                            result);

  if (options.keep_instance) {
    if (options.steady_state && config_.mode == FirecrackerMode::kOsSnapshot) {
      // Steady-state guest residency for long-running restored instances.
      auto& space = sandbox->vm->address_space();
      const fwmem::FaultCounts faults = fwvmm::GuestOsPageActivity(
          space, space.SegmentByName(fwvmm::kSegGuestKernel),
          space.SegmentByName(fwvmm::kSegGuestOs), fwvmm::kGuestOsSteadyTouchFraction,
          fwvmm::kGuestOsSteadyDirtyFraction, 5000 + next_instance_, 6000 + next_instance_);
      co_await hv_.ServiceFaults(*sandbox->vm, faults);
    }
    kept_.push_back(std::move(sandbox));
  } else {
    // The sandbox stays warm for the next request (§2.2 keep-alive).
    Status paused = co_await hv_.Pause(*sandbox->vm);
    FW_CHECK(paused.ok());
    StashWarm(fn, std::move(sandbox));
  }
  co_return result;
}

void FirecrackerPlatform::DestroySandbox(Sandbox& sandbox) {
  if (sandbox.vm != nullptr) {
    FW_CHECK(hv_.Destroy(*sandbox.vm).ok());
    sandbox.vm = nullptr;
  }
}

void FirecrackerPlatform::StashWarm(InstalledFunction& fn, std::unique_ptr<Sandbox> sandbox) {
  if (fn.warm != nullptr) {
    DestroySandbox(*fn.warm);
  }
  fn.warm = std::move(sandbox);
}

void FirecrackerPlatform::ReleaseInstances() {
  for (auto& sandbox : kept_) {
    DestroySandbox(*sandbox);
  }
  kept_.clear();
  for (auto& [name, fn] : installed_) {
    if (fn.warm != nullptr) {
      DestroySandbox(*fn.warm);
      fn.warm.reset();
    }
  }
}

double FirecrackerPlatform::MeasurePssBytes() const {
  double total = 0.0;
  for (const auto& sandbox : kept_) {
    if (sandbox->vm != nullptr) {
      total += sandbox->vm->address_space().pss_bytes();
    }
  }
  for (const auto& [name, fn] : installed_) {
    if (fn.warm != nullptr && fn.warm->vm != nullptr) {
      total += fn.warm->vm->address_space().pss_bytes();
    }
  }
  return total;
}

bool FirecrackerPlatform::HasWarmSandbox(const std::string& fn_name) const {
  auto it = installed_.find(fn_name);
  return it != installed_.end() && it->second.warm != nullptr;
}

}  // namespace fwbaselines
