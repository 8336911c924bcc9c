#include "src/sandbox/container.h"

#include <utility>

#include "src/base/check.h"
#include "src/base/logging.h"
#include "src/fault/fault.h"

namespace fwbox {

namespace {

constexpr Duration kNamespaceSetupCost = Duration::Millis(24);  // netns + mounts.
constexpr Duration kCgroupSetupCost = Duration::Millis(7);
constexpr Duration kRuncSpawnCost = Duration::Millis(38);  // runc + container init.
constexpr Duration kPauseCost = Duration::Millis(2);
constexpr Duration kCheckpointStateCost = Duration::Millis(20);
constexpr Duration kRestoreStateCost = Duration::Millis(12);
// gVisor compute penalty (Sentry platform overhead on user code).
constexpr double kGvisorComputeScale = 1.18;

}  // namespace

const char* ContainerRuntimeName(ContainerRuntime runtime) {
  switch (runtime) {
    case ContainerRuntime::kRunc:
      return "runc";
    case ContainerRuntime::kGvisor:
      return "gvisor";
  }
  return "?";
}

Container::Container(uint64_t id, std::string name, const ContainerConfig& config,
                     std::unique_ptr<fwmem::AddressSpace> space)
    : id_(id), name_(std::move(name)), config_(config), space_(std::move(space)) {}

ContainerEngine::ContainerEngine(fwsim::Simulation& sim, fwmem::HostMemory& host_memory,
                                 fwstore::SnapshotStore& checkpoint_store,
                                 fwfault::FaultInjector& injector, const Config& config)
    : sim_(sim),
      host_memory_(host_memory),
      checkpoint_store_(checkpoint_store),
      config_(config),
      injector_(injector) {}

fwsim::Co<Container*> ContainerEngine::CreateContainer(
    const std::string& name, const ContainerConfig& config,
    std::shared_ptr<fwmem::SnapshotImage> base_image) {
  Duration setup = kImageResolveCost + kNamespaceSetupCost + kCgroupSetupCost;
  if (config.runtime == ContainerRuntime::kRunc) {
    setup += kRuncSpawnCost;
  } else {
    setup += config_.sentry_spawn_cost + config_.gofer_spawn_cost;
  }
  co_await fwsim::Delay(sim_, setup);
  std::unique_ptr<fwmem::AddressSpace> space;
  if (base_image != nullptr) {
    space = std::make_unique<fwmem::AddressSpace>(host_memory_, std::move(base_image));
  } else {
    space = std::make_unique<fwmem::AddressSpace>(host_memory_);
  }
  const uint64_t id = next_id_++;
  auto container = std::make_unique<Container>(id, name, config, std::move(space));
  container->set_state(ContainerState::kRunning);
  Container* raw = container.get();
  containers_.emplace(id, std::move(container));
  ++containers_created_;
  FW_LOG(kDebug) << "created " << ContainerRuntimeName(config.runtime) << " container " << name;
  co_return raw;
}

fwsim::Co<Status> ContainerEngine::Pause(Container& c) {
  if (c.state() != ContainerState::kRunning) {
    co_return Status::FailedPrecondition("pause requires a running container");
  }
  co_await fwsim::Delay(sim_, kPauseCost);
  c.set_state(ContainerState::kPaused);
  co_return Status::Ok();
}

fwsim::Co<Status> ContainerEngine::Unpause(Container& c) {
  if (c.state() != ContainerState::kPaused) {
    co_return Status::FailedPrecondition("unpause requires a paused container");
  }
  co_await fwsim::Delay(sim_, config_.unpause_cost);
  if (injector_.Trip(fwfault::FaultKind::kSandboxCrash)) {
    c.set_state(ContainerState::kDead);
    co_return Status::Unavailable("sandbox " + c.name() + " crashed on unpause");
  }
  c.set_state(ContainerState::kRunning);
  co_return Status::Ok();
}

fwsim::Co<Result<std::shared_ptr<fwmem::SnapshotImage>>> ContainerEngine::Checkpoint(
    Container& c, const std::string& checkpoint_name) {
  if (c.config().runtime != ContainerRuntime::kGvisor) {
    co_return Status::FailedPrecondition("checkpoint requires the gVisor runtime");
  }
  if (c.state() != ContainerState::kRunning && c.state() != ContainerState::kPaused) {
    co_return Status::FailedPrecondition("checkpoint requires a live container");
  }
  if (c.state() == ContainerState::kRunning) {
    Status paused = co_await Pause(c);
    if (!paused.ok()) {
      co_return paused;
    }
  }
  co_await fwsim::Delay(sim_, kCheckpointStateCost);
  auto image = c.address_space().TakeSnapshot(checkpoint_name);
  Status saved = co_await checkpoint_store_.Save(image);
  if (!saved.ok()) {
    co_return saved;
  }
  ++checkpoints_taken_;
  co_return image;
}

fwsim::Co<Result<Container*>> ContainerEngine::RestoreCheckpoint(
    const std::string& checkpoint_name, const std::string& container_name,
    const ContainerConfig& config) {
  if (config.runtime != ContainerRuntime::kGvisor) {
    co_return Status::FailedPrecondition("restore requires the gVisor runtime");
  }
  auto image = checkpoint_store_.Get(checkpoint_name);
  if (!image.ok()) {
    co_return image.status();
  }
  co_await fwsim::Delay(sim_, kNamespaceSetupCost + kCgroupSetupCost + config_.sentry_spawn_cost +
                                  config_.gofer_spawn_cost + kRestoreStateCost);
  if (injector_.Trip(fwfault::FaultKind::kSandboxCrash)) {
    // The Sentry died before the container was registered: nothing to clean up.
    co_return Status::Unavailable("sandbox crashed restoring " + checkpoint_name);
  }
  auto space = std::make_unique<fwmem::AddressSpace>(host_memory_, *image);
  const uint64_t id = next_id_++;
  auto container = std::make_unique<Container>(id, container_name, config, std::move(space));
  container->set_state(ContainerState::kRunning);
  Container* raw = container.get();
  containers_.emplace(id, std::move(container));
  co_return raw;
}

Status ContainerEngine::Destroy(Container& c) {
  auto it = containers_.find(c.id());
  if (it == containers_.end()) {
    return Status::NotFound("no such container");
  }
  c.address_space().Unmap();
  c.set_state(ContainerState::kDead);
  containers_.erase(it);
  return Status::Ok();
}

fwstore::FsKind ContainerEngine::FsKindFor(ContainerRuntime runtime) {
  switch (runtime) {
    case ContainerRuntime::kRunc:
      return fwstore::FsKind::kOverlayFs;
    case ContainerRuntime::kGvisor:
      return fwstore::FsKind::kGofer;
  }
  return fwstore::FsKind::kOverlayFs;
}

double ContainerEngine::ComputeScale(ContainerRuntime runtime) const {
  return runtime == ContainerRuntime::kGvisor ? kGvisorComputeScale : 1.0;
}

}  // namespace fwbox
