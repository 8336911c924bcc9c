// Container sandbox substrate: the execution vehicle of the OpenWhisk and
// gVisor baselines.
//
// Two runtime classes are modelled:
//   * runc-like: namespaces + cgroups + chroot/OverlayFS. Fast I/O (§5.2.1:
//     OpenWhisk's I/O beats microVMs because it hits the host FS directly)
//     but kernel-sharing isolation only.
//   * gVisor: adds the Sentry (user-space kernel intercepting syscalls) and
//     Gofer (file proxy). Slowest I/O path, extra compute overhead, but a
//     stronger (still sub-VM) isolation boundary. Supports checkpoint /
//     restore, which Catalyzer-style warm starts and the gVisor baseline's
//     snapshot mode build on.
//
// Containers may be created from a shared base image (the runtime rootfs):
// read-only pages (runtime binary text) are then shared across containers via
// the host page cache, like real containers sharing image layers.
#ifndef FIREWORKS_SRC_SANDBOX_CONTAINER_H_
#define FIREWORKS_SRC_SANDBOX_CONTAINER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "src/base/status.h"
#include "src/base/units.h"
#include "src/mem/address_space.h"
#include "src/mem/host_memory.h"
#include "src/simcore/simulation.h"
#include "src/storage/filesystem.h"
#include "src/storage/snapshot_store.h"

namespace fwfault {
class FaultInjector;
}  // namespace fwfault

namespace fwbox {

using fwbase::Duration;
using fwbase::Result;
using fwbase::Status;

enum class ContainerRuntime { kRunc, kGvisor };

const char* ContainerRuntimeName(ContainerRuntime runtime);

enum class ContainerState { kCreated, kRunning, kPaused, kDead };

struct ContainerConfig {
  ContainerConfig() = default;
  explicit ContainerConfig(ContainerRuntime runtime) : runtime(runtime) {}

  ContainerRuntime runtime = ContainerRuntime::kRunc;
};

class Container {
 public:
  Container(uint64_t id, std::string name, const ContainerConfig& config,
            std::unique_ptr<fwmem::AddressSpace> space);

  Container(const Container&) = delete;
  Container& operator=(const Container&) = delete;

  uint64_t id() const { return id_; }
  const std::string& name() const { return name_; }
  const ContainerConfig& config() const { return config_; }
  ContainerState state() const { return state_; }
  fwmem::AddressSpace& address_space() { return *space_; }
  const fwmem::AddressSpace& address_space() const { return *space_; }

 private:
  friend class ContainerEngine;

  void set_state(ContainerState s) { state_ = s; }

  uint64_t id_;
  std::string name_;
  ContainerConfig config_;
  std::unique_ptr<fwmem::AddressSpace> space_;
  ContainerState state_ = ContainerState::kCreated;
};

class ContainerEngine {
 public:
  struct Config {
    Config() {}

    Duration sentry_spawn_cost = Duration::Millis(70);    // gVisor Sentry boot.
    Duration gofer_spawn_cost = Duration::Millis(25);     // gVisor Gofer proxy.
    Duration unpause_cost = Duration::Millis(3);
  };

  // Cached image-layer lookup, paid per container and per action image.
  static constexpr Duration kImageResolveCost = Duration::Millis(22);

  // `injector` may crash a sandbox on unpause and checkpoint restore; a
  // crashed container transitions to kDead and still needs Destroy(). It
  // must outlive the engine.
  ContainerEngine(fwsim::Simulation& sim, fwmem::HostMemory& host_memory,
                  fwstore::SnapshotStore& checkpoint_store, fwfault::FaultInjector& injector,
                  const Config& config = Config());

  // Creates and starts a container. `base_image` (may be null) is the runtime
  // rootfs; its read-only pages are shared across containers.
  fwsim::Co<Container*> CreateContainer(const std::string& name, const ContainerConfig& config,
                                        std::shared_ptr<fwmem::SnapshotImage> base_image);

  fwsim::Co<Status> Pause(Container& c);
  fwsim::Co<Status> Unpause(Container& c);

  // gVisor checkpoint/restore (unsupported on runc in this model, as in the
  // paper's baseline set).
  fwsim::Co<Result<std::shared_ptr<fwmem::SnapshotImage>>> Checkpoint(
      Container& c, const std::string& checkpoint_name);
  fwsim::Co<Result<Container*>> RestoreCheckpoint(const std::string& checkpoint_name,
                                                  const std::string& container_name,
                                                  const ContainerConfig& config);

  Status Destroy(Container& c);

  // Which filesystem personality a container's file I/O goes through.
  static fwstore::FsKind FsKindFor(ContainerRuntime runtime);
  // Multiplier on in-container compute time.
  double ComputeScale(ContainerRuntime runtime) const;

  uint64_t containers_created() const { return containers_created_; }
  uint64_t checkpoints_taken() const { return checkpoints_taken_; }
  size_t live_container_count() const { return containers_.size(); }

 private:
  fwsim::Simulation& sim_;
  fwmem::HostMemory& host_memory_;
  fwstore::SnapshotStore& checkpoint_store_;
  Config config_;
  std::map<uint64_t, std::unique_ptr<Container>> containers_;
  uint64_t next_id_ = 1;
  uint64_t containers_created_ = 0;
  uint64_t checkpoints_taken_ = 0;
  fwfault::FaultInjector& injector_;
};

}  // namespace fwbox

#endif  // FIREWORKS_SRC_SANDBOX_CONTAINER_H_
