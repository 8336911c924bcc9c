#include "src/baselines/firecracker.h"

namespace fwbaselines {

using fwlang::ExecEnv;
using fwlang::GuestProcess;
using fwvmm::MicroVm;

namespace {

SandboxLifecycle LifecycleFor(const FirecrackerPlatform::Config& config) {
  SandboxLifecycle lifecycle;
  lifecycle.name = config.mode == FirecrackerMode::kNoSnapshot ? "firecracker"
                                                                : "firecracker+os-snapshot";
  lifecycle.span_name = "firecracker.invoke";
  lifecycle.sandbox_prefix = "fc";
  // A sandbox manager is driven directly; minimal per-request handling.
  lifecycle.request = Duration::Micros(250);
  return lifecycle;
}

std::string OsSnapshotName(const std::string& fn_name) { return "fcos-" + fn_name; }

}  // namespace

FirecrackerPlatform::FirecrackerPlatform(HostEnv& env) : FirecrackerPlatform(env, Config()) {}

FirecrackerPlatform::FirecrackerPlatform(HostEnv& env, const Config& config)
    : WarmSandboxPlatform(env, LifecycleFor(config)),
      env_(env),
      config_(config),
      hv_(env.sim(), env.memory(), env.snapshot_store(), env.obs(), env.fault_injector()) {}

FirecrackerPlatform::~FirecrackerPlatform() { ReleaseInstances(); }

fwsim::Co<Status> FirecrackerPlatform::Deploy(const fwlang::FunctionSource& source) {
  co_await ChargePackages(source);
  if (config_.mode != FirecrackerMode::kOsSnapshot) {
    co_return Status::Ok();
  }
  // Snapshot right after the guest OS finishes booting (§5.5).
  MicroVm* vm = co_await hv_.CreateMicroVm("fcos-install-" + source.name);
  Status booted = co_await hv_.BootGuestOs(*vm);
  if (!booted.ok()) {
    DestroyInstance(*vm);
    co_return booted;
  }
  auto image = co_await hv_.CreateSnapshot(*vm, OsSnapshotName(source.name));
  if (!image.ok()) {
    // Persisting the OS snapshot failed: release the install VM before
    // surfacing the error.
    DestroyInstance(*vm);
    co_return image.status();
  }
  (void)env_.snapshot_store().Pin(OsSnapshotName(source.name));
  DestroyInstance(*vm);
  co_return Status::Ok();
}

fwsim::Co<FirecrackerPlatform::SandboxResult> FirecrackerPlatform::StartSandbox(
    const fwlang::FunctionSource& source, const std::string& sandbox_name, bool& fell_back) {
  auto sandbox = std::make_unique<Sandbox>();
  if (config_.mode == FirecrackerMode::kOsSnapshot) {
    auto restored = co_await hv_.RestoreMicroVm(OsSnapshotName(source.name), sandbox_name);
    if (restored.ok()) {
      sandbox->instance = *restored;
      // Post-restore guest-kernel activity, as in Fireworks.
      auto& space = sandbox->instance->address_space();
      const fwmem::FaultCounts faults = fwvmm::GuestOsPageActivity(
          space, space.SegmentByName(fwvmm::kSegGuestKernel),
          space.SegmentByName(fwvmm::kSegGuestOs), fwvmm::kGuestOsResumeTouchFraction,
          fwvmm::kGuestOsResumeDirtyFraction, 3000 + next_instance(), 4000 + next_instance());
      co_await hv_.ServiceFaults(*sandbox->instance, faults);
    } else {
      // Snapshot path failed (restore crash, corrupted or evicted image):
      // degrade to a full guest-OS boot.
      fell_back = true;
    }
  }
  if (sandbox->instance == nullptr) {
    sandbox->instance = co_await hv_.CreateMicroVm(sandbox_name);
    Status booted = co_await hv_.BootGuestOs(*sandbox->instance);
    if (!booted.ok()) {
      co_return booted;
    }
  }
  MicroVm* vm = sandbox->instance;
  sandbox->fs = std::make_unique<fwstore::Filesystem>(env_.sim(), env_.disk(),
                                                      fwstore::FsKind::kVirtio);
  ExecEnv guest_env(sandbox->fs.get(), &env_.db(), DirectNetSend(env_),
                    fwbase::Duration::Micros(400));
  sandbox->process = std::make_unique<GuestProcess>(
      env_.sim(), source.language, vm->address_space(), guest_env,
      [this, vm](const fwmem::FaultCounts& faults) { return hv_.FaultServiceTime(*vm, faults); });
  sandbox->process->set_mem_salt(next_instance());
  co_await sandbox->process->BootRuntime();
  co_await sandbox->process->LoadApplication(source);
  co_return sandbox;
}

fwsim::Co<void> FirecrackerPlatform::KeepInstance(Sandbox& sandbox,
                                                  const InvokeOptions& options) {
  if (!options.steady_state || config_.mode != FirecrackerMode::kOsSnapshot) {
    co_return;
  }
  // Steady-state guest residency for long-running restored instances.
  auto& space = sandbox.instance->address_space();
  const fwmem::FaultCounts faults = fwvmm::GuestOsPageActivity(
      space, space.SegmentByName(fwvmm::kSegGuestKernel), space.SegmentByName(fwvmm::kSegGuestOs),
      fwvmm::kGuestOsSteadyTouchFraction, fwvmm::kGuestOsSteadyDirtyFraction,
      5000 + next_instance(), 6000 + next_instance());
  co_await hv_.ServiceFaults(*sandbox.instance, faults);
}

}  // namespace fwbaselines
