#include "src/baselines/container_platform.h"

namespace fwbaselines {

using fwbox::Container;
using fwbox::ContainerConfig;
using fwlang::ExecEnv;
using fwlang::GuestProcess;

namespace {

SandboxLifecycle LifecycleFor(const ContainerPlatform::Params& params) {
  SandboxLifecycle lifecycle;
  lifecycle.name = params.platform_name;
  lifecycle.span_name = params.platform_name + ".invoke";
  lifecycle.sandbox_prefix = params.platform_name;
  lifecycle.warm = params.warm_controller_cost;
  lifecycle.cold = params.cold_controller_cost;
  lifecycle.keep_alive = params.keep_alive;
  return lifecycle;
}

}  // namespace

ContainerPlatform::ContainerPlatform(HostEnv& env, const Params& params)
    : WarmSandboxPlatform(env, LifecycleFor(params)),
      env_(env),
      params_(params),
      engine_(env.sim(), env.memory(), env.snapshot_store(), env.fault_injector(),
              params.engine_config),
      rootfs_(env) {}

ContainerPlatform::~ContainerPlatform() { ReleaseInstances(); }

fwlang::GuestProcess::FaultCharger ContainerPlatform::ChargerFor(Container* container) {
  return [container](const fwmem::FaultCounts& faults) {
    return fwmem::FaultServiceTime(container->address_space(), faults);
  };
}

ExecEnv ContainerPlatform::MountGuestEnv(Sandbox& sandbox) {
  sandbox.fs = std::make_unique<fwstore::Filesystem>(
      env_.sim(), env_.disk(), fwbox::ContainerEngine::FsKindFor(params_.runtime));
  return ExecEnv(sandbox.fs.get(), &env_.db(), DirectNetSend(env_),
                 fwbase::Duration::Micros(350));
}

fwsim::Co<Status> ContainerPlatform::Deploy(const fwlang::FunctionSource& source) {
  // Building the action image resolves the rootfs layers and bakes the
  // dependency payload in, so cold starts only pay boot + load.
  rootfs_.For(source.language);
  co_await fwsim::Delay(env_.sim(), fwbox::ContainerEngine::kImageResolveCost);
  co_await ChargePackages(source);
  if (!params_.checkpoint_starts) {
    co_return Status::Ok();
  }
  // Catalyzer-style: prepare a container (runtime + app) once, checkpoint
  // it, and serve every start from the checkpoint.
  auto prepared =
      co_await LaunchSandbox(source, params_.platform_name + "-ckpt-" + source.name);
  if (!prepared.ok()) {
    co_return prepared.status();
  }
  const std::string checkpoint_name = CheckpointName(source.name);
  auto image = co_await engine_.Checkpoint(*(*prepared)->instance, checkpoint_name);
  if (!image.ok()) {
    // Persisting the checkpoint failed: release the prepared container
    // before surfacing the error.
    DestroySandbox(**prepared);
    co_return image.status();
  }
  (void)env_.snapshot_store().Pin(checkpoint_name);
  checkpoint_states_.emplace(source.name, (*prepared)->process->ExtractState());
  DestroySandbox(**prepared);
  co_return Status::Ok();
}

fwsim::Co<ContainerPlatform::SandboxResult> ContainerPlatform::LaunchSandbox(
    const fwlang::FunctionSource& source, const std::string& sandbox_name) {
  auto sandbox = std::make_unique<Sandbox>();
  sandbox->instance = co_await engine_.CreateContainer(
      sandbox_name, ContainerConfig(params_.runtime), rootfs_.For(source.language));
  sandbox->process = std::make_unique<GuestProcess>(
      env_.sim(), source.language, sandbox->instance->address_space(), MountGuestEnv(*sandbox),
      ChargerFor(sandbox->instance), engine_.ComputeScale(params_.runtime));
  sandbox->process->set_mem_salt(next_instance());
  co_await sandbox->process->BootRuntime();
  co_await sandbox->process->LoadApplication(source);
  co_return sandbox;
}

fwsim::Co<ContainerPlatform::SandboxResult> ContainerPlatform::RestoreSandbox(
    const fwlang::FunctionSource& source, const std::string& sandbox_name) {
  auto restored = co_await engine_.RestoreCheckpoint(CheckpointName(source.name), sandbox_name,
                                                     ContainerConfig(params_.runtime));
  if (!restored.ok()) {
    co_return restored.status();
  }
  auto state = checkpoint_states_.find(source.name);
  FW_CHECK_MSG(state != checkpoint_states_.end(), "no checkpoint for this function");
  auto sandbox = std::make_unique<Sandbox>();
  sandbox->instance = *restored;
  sandbox->process = GuestProcess::FromState(
      state->second, env_.sim(), sandbox->instance->address_space(), MountGuestEnv(*sandbox),
      ChargerFor(sandbox->instance), engine_.ComputeScale(params_.runtime));
  sandbox->process->set_mem_salt(next_instance());
  co_return sandbox;
}

fwsim::Co<ContainerPlatform::SandboxResult> ContainerPlatform::StartSandbox(
    const fwlang::FunctionSource& source, const std::string& sandbox_name, bool& fell_back) {
  if (params_.checkpoint_starts) {
    auto restored = co_await RestoreSandbox(source, sandbox_name);
    if (restored.ok()) {
      co_return restored;
    }
    // Checkpoint path failed (restore crash, corrupted or evicted
    // checkpoint): degrade to a full container launch.
    fell_back = true;
  }
  co_return co_await LaunchSandbox(source, sandbox_name);
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
