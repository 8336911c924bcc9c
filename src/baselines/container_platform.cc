#include "src/baselines/container_platform.h"

#include <utility>

#include "src/base/check.h"
#include "src/base/strings.h"
#include "src/baselines/util.h"

namespace fwbaselines {

using fwbase::SimTime;
using fwbox::Container;
using fwbox::ContainerConfig;
using fwlang::ExecEnv;
using fwlang::GuestProcess;

ContainerPlatform::ContainerPlatform(HostEnv& env, const Params& params)
    : env_(env),
      params_(params),
      engine_(env.sim(), env.memory(), env.snapshot_store(), env.fault_injector(),
              params.engine_config),
      tracer_(&env.tracer()) {}

ContainerPlatform::~ContainerPlatform() {
  *alive_ = false;  // Disarm in-flight keep-alive expiry events.
  ReleaseInstances();
}

std::shared_ptr<fwmem::SnapshotImage> ContainerPlatform::RootfsFor(fwlang::Language language) {
  auto it = rootfs_images_.find(language);
  if (it != rootfs_images_.end()) {
    return it->second;
  }
  auto image = BuildRuntimeRootfs(env_, language);
  rootfs_images_.emplace(language, image);
  return image;
}

fwlang::GuestProcess::FaultCharger ContainerPlatform::ChargerFor(Container* container) {
  return [this, container](const fwmem::FaultCounts& faults) {
    return fwmem::FaultServiceTime(container->address_space(), faults);
  };
}

fwsim::Co<Result<InstallResult>> ContainerPlatform::Install(const fwlang::FunctionSource& fn) {
  if (installed_.count(fn.name) != 0) {
    co_return Status::AlreadyExists("function " + fn.name + " already installed");
  }
  const SimTime t0 = env_.sim().Now();
  InstalledFunction record;
  record.source = std::make_unique<fwlang::FunctionSource>(fn);
  // Building the action image resolves the rootfs layers and bakes the
  // dependency payload in, so cold starts only pay boot + load.
  RootfsFor(fn.language);
  co_await fwsim::Delay(env_.sim(), fwbox::ContainerEngine::kImageResolveCost);
  if (fn.package_bytes > 0) {
    const double mib = static_cast<double>(fn.package_bytes) / static_cast<double>(fwbase::kMiB);
    co_await fwsim::Delay(env_.sim(),
                          fwlang::RuntimeCosts::For(fn.language).package_install_cost_per_mib *
                              mib);
    co_await env_.host_fs().WriteFile(fn.package_bytes);
  }
  if (params_.checkpoint_starts) {
    // Catalyzer-style: prepare a container (runtime + app) once, checkpoint
    // it, and serve every start from the checkpoint.
    auto prepared = co_await LaunchSandbox(record, params_.platform_name + "-ckpt-" + fn.name);
    if (!prepared.ok()) {
      co_return prepared.status();
    }
    const std::string checkpoint_name = params_.platform_name + "-" + fn.name;
    auto image = co_await engine_.Checkpoint(*(*prepared)->container, checkpoint_name);
    if (!image.ok()) {
      // Persisting the checkpoint failed: release the prepared container
      // before surfacing the error.
      DestroySandbox(**prepared);
      co_return image.status();
    }
    (void)env_.snapshot_store().Pin(checkpoint_name);
    record.checkpoint_name = checkpoint_name;
    record.process_state = (*prepared)->process->ExtractState();
    DestroySandbox(**prepared);
  }
  InstallResult result;
  result.total = env_.sim().Now() - t0;
  installed_.emplace(fn.name, std::move(record));
  co_return result;
}

fwsim::Co<Result<std::unique_ptr<ContainerPlatform::Sandbox>>> ContainerPlatform::LaunchSandbox(
    const InstalledFunction& fn, const std::string& sandbox_name) {
  auto sandbox = std::make_unique<Sandbox>();
  Container* container = co_await engine_.CreateContainer(
      sandbox_name, ContainerConfig(params_.runtime), RootfsFor(fn.source->language));
  sandbox->container = container;
  sandbox->fs = std::make_unique<fwstore::Filesystem>(
      env_.sim(), env_.disk(), fwbox::ContainerEngine::FsKindFor(params_.runtime));
  ExecEnv guest_env(sandbox->fs.get(), &env_.db(), DirectNetSend(env_),
                    fwbase::Duration::Micros(350));
  sandbox->process = std::make_unique<GuestProcess>(
      env_.sim(), fn.source->language, container->address_space(), guest_env,
      ChargerFor(container), engine_.ComputeScale(params_.runtime));
  sandbox->process->set_mem_salt(next_instance_);
  co_await sandbox->process->BootRuntime();
  co_await sandbox->process->LoadApplication(*fn.source);
  co_return sandbox;
}

fwsim::Co<Result<std::unique_ptr<ContainerPlatform::Sandbox>>>
ContainerPlatform::RestoreSandbox(const InstalledFunction& fn,
                                  const std::string& sandbox_name) {
  FW_CHECK_MSG(!fn.checkpoint_name.empty(), "no checkpoint for this function");
  auto restored = co_await engine_.RestoreCheckpoint(fn.checkpoint_name, sandbox_name,
                                                     ContainerConfig(params_.runtime));
  if (!restored.ok()) {
    co_return restored.status();
  }
  auto sandbox = std::make_unique<Sandbox>();
  sandbox->container = *restored;
  sandbox->fs = std::make_unique<fwstore::Filesystem>(
      env_.sim(), env_.disk(), fwbox::ContainerEngine::FsKindFor(params_.runtime));
  ExecEnv guest_env(sandbox->fs.get(), &env_.db(), DirectNetSend(env_),
                    fwbase::Duration::Micros(350));
  sandbox->process = GuestProcess::FromState(fn.process_state, env_.sim(),
                                             sandbox->container->address_space(), guest_env,
                                             ChargerFor(sandbox->container),
                                             engine_.ComputeScale(params_.runtime));
  sandbox->process->set_mem_salt(next_instance_);
  co_return sandbox;
}

fwsim::Co<Status> ContainerPlatform::Prewarm(const std::string& fn_name) {
  auto it = installed_.find(fn_name);
  if (it == installed_.end()) {
    co_return Status::NotFound("function " + fn_name + " is not installed");
  }
  if (it->second.warm != nullptr) {
    co_return Status::Ok();
  }
  auto sandbox = co_await LaunchSandbox(
      it->second, fwbase::StrFormat("%s-warm-%s", params_.platform_name.c_str(),
                                    fn_name.c_str()));
  if (!sandbox.ok()) {
    co_return sandbox.status();
  }
  Status paused = co_await engine_.Pause(*(*sandbox)->container);
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
  StashWarm(it->second, *std::move(sandbox), fn_name);
  co_return Status::Ok();
}

void ContainerPlatform::StashWarm(InstalledFunction& fn, std::unique_ptr<Sandbox> sandbox,
                                  const std::string& fn_name) {
  if (fn.warm != nullptr) {
    DestroySandbox(*fn.warm);
  }
  fn.warm = std::move(sandbox);
  const uint64_t generation = ++fn.warm_generation;
  if (params_.keep_alive == Duration::Max()) {
    return;
  }
  std::shared_ptr<bool> alive = alive_;
  env_.sim().Schedule(params_.keep_alive, [this, alive, fn_name, generation] {
    if (!*alive) {
      return;  // The platform is gone.
    }
    auto it = installed_.find(fn_name);
    if (it == installed_.end() || it->second.warm == nullptr ||
        it->second.warm_generation != generation) {
      return;  // Reused or replaced since: a fresh window is armed.
    }
    DestroySandbox(*it->second.warm);
    it->second.warm.reset();
  });
}

fwsim::Co<Result<InvocationResult>> ContainerPlatform::Invoke(const std::string& fn_name,
                                                              const std::string& args,
                                                              const InvokeOptions& options) {
  auto it = installed_.find(fn_name);
  if (it == installed_.end()) {
    co_return Status::NotFound("function " + fn_name + " is not installed");
  }
  InstalledFunction& fn = it->second;
  InvocationResult result;
  const SimTime t0 = env_.sim().Now();
  fwobs::ScopedSpan root(tracer_, params_.platform_name + ".invoke", "invoke");
  root.SetAttribute("function", fn_name);
  fwobs::ScopedSpan startup_span(tracer_, "invoke.startup", "invoke");

  std::unique_ptr<Sandbox> sandbox;
  if (fn.warm != nullptr && !options.force_cold) {
    result.cold = false;
    // Claim the warm sandbox *before* suspending: a concurrent invocation
    // must not grab the same container.
    sandbox = std::move(fn.warm);
    co_await fwsim::Delay(env_.sim(), params_.warm_controller_cost);
    Status resumed = co_await engine_.Unpause(*sandbox->container);
    if (!resumed.ok()) {
      // The sandbox died on unpause: discard it and degrade to a cold start.
      env_.metrics()
          .GetCounter(params_.platform_name + ".warm_crash.count")
          .Increment();
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
    co_await fwsim::Delay(env_.sim(), params_.cold_controller_cost);
    const std::string sandbox_name =
        fwbase::StrFormat("%s-%s-%llu", params_.platform_name.c_str(), fn_name.c_str(),
                          static_cast<unsigned long long>(next_instance_));
    // Note: not a conditional expression — GCC 12 miscompiles `c ? co_await a
    // : co_await b` (sibling of the aggregate-copy bug, see simcore/coro.h).
    Result<std::unique_ptr<Sandbox>> launched = Status::Internal("unreachable");
    if (params_.checkpoint_starts) {
      // installed_ is a node-based map and no code path erases entries, so the
      // fn reference stays valid across suspensions.
      launched = co_await RestoreSandbox(fn, sandbox_name);  // fwlint:allow(iterator-invalidation)
      if (!launched.ok()) {
        // Checkpoint path failed (restore crash, corrupted or evicted
        // checkpoint): degrade to a full container launch.
        env_.metrics()
            .GetCounter(params_.platform_name + ".coldboot_fallback.count")
            .Increment();
        result.cold_boot_fallback = true;
        launched = co_await LaunchSandbox(fn, sandbox_name);
      }
    } else {
      launched = co_await LaunchSandbox(fn, sandbox_name);
    }
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
    kept_.push_back(std::move(sandbox));
  } else {
    // Keep-alive: the container stays warm for the next request.
    Status paused = co_await engine_.Pause(*sandbox->container);
    FW_CHECK(paused.ok());
    StashWarm(fn, std::move(sandbox), fn_name);
  }
  co_return result;
}

void ContainerPlatform::DestroySandbox(Sandbox& sandbox) {
  if (sandbox.container != nullptr) {
    FW_CHECK(engine_.Destroy(*sandbox.container).ok());
    sandbox.container = nullptr;
  }
}

void ContainerPlatform::ReleaseInstances() {
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

double ContainerPlatform::MeasurePssBytes() const {
  double total = 0.0;
  for (const auto& sandbox : kept_) {
    if (sandbox->container != nullptr) {
      total += sandbox->container->address_space().pss_bytes();
    }
  }
  for (const auto& [name, fn] : installed_) {
    if (fn.warm != nullptr && fn.warm->container != nullptr) {
      total += fn.warm->container->address_space().pss_bytes();
    }
  }
  return total;
}

bool ContainerPlatform::HasWarmContainer(const std::string& fn_name) const {
  auto it = installed_.find(fn_name);
  return it != installed_.end() && it->second.warm != nullptr;
}

ContainerPlatform::Params OpenWhiskPlatform::MakeParams() {
  Params params;
  params.platform_name = "openwhisk";
  params.runtime = fwbox::ContainerRuntime::kRunc;
  params.cold_controller_cost = Duration::Millis(420);
  params.warm_controller_cost = Duration::Millis(55);
  params.supports_chains = true;
  return params;
}

ContainerPlatform::Params GvisorPlatform::MakeParams() {
  Params params;
  params.platform_name = "gvisor";
  params.runtime = fwbox::ContainerRuntime::kGvisor;
  // A sandbox manager driven directly: negligible controller.
  params.cold_controller_cost = Duration::MillisF(0.3);
  params.warm_controller_cost = Duration::MillisF(0.3);
  params.supports_chains = false;
  // runsc boots a user-space kernel per sandbox; its cold start exceeds
  // OpenWhisk's container creation (§5.2.1).
  params.engine_config.sentry_spawn_cost = Duration::Millis(460);
  params.engine_config.gofer_spawn_cost = Duration::Millis(130);
  // Resuming a checkpointed/paused Sentry is far heavier than docker unpause.
  params.engine_config.unpause_cost = Duration::Millis(52);
  return params;
}

ContainerPlatform::Params GvisorSnapshotPlatform::MakeParams() {
  Params params;
  params.platform_name = "gvisor-snapshot";
  params.runtime = fwbox::ContainerRuntime::kGvisor;
  params.cold_controller_cost = Duration::MillisF(0.3);
  params.warm_controller_cost = Duration::MillisF(0.3);
  params.supports_chains = false;
  params.checkpoint_starts = true;
  params.engine_config.sentry_spawn_cost = Duration::Millis(460);
  params.engine_config.gofer_spawn_cost = Duration::Millis(130);
  params.engine_config.unpause_cost = Duration::Millis(52);
  return params;
}

}  // namespace fwbaselines
