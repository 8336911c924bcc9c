// ContainerPlatform: shared machinery of the container-based baselines
// (OpenWhisk on runc, gVisor as a sandbox manager).
//
// Cold start: controller handling → container create (runc or Sentry+Gofer)
// → runtime boot inside the container (binary text shared via the rootfs
// image) → application load → execution (profile-driven JIT only). Warm
// start: the container is kept alive/paused after use (§2.2) and only pays
// controller + execution.
#ifndef FIREWORKS_SRC_BASELINES_CONTAINER_PLATFORM_H_
#define FIREWORKS_SRC_BASELINES_CONTAINER_PLATFORM_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/platform.h"
#include "src/sandbox/container.h"

namespace fwbaselines {

using fwcore::Duration;
using fwcore::HostEnv;
using fwcore::InstallResult;
using fwcore::InvocationResult;
using fwcore::InvokeOptions;
using fwcore::Result;
using fwcore::Status;

class ContainerPlatform : public fwcore::ServerlessPlatform {
 public:
  struct Params {
    Params() {}

    std::string platform_name;
    fwbox::ContainerRuntime runtime = fwbox::ContainerRuntime::kRunc;
    // Controller request handling. OpenWhisk's cold path performs
    // authentication and message-queue initialisation (§5.2.1); a plain
    // sandbox manager has almost none.
    Duration cold_controller_cost = Duration::Millis(420);
    Duration warm_controller_cost = Duration::Millis(14);
    bool supports_chains = false;
    // gVisor checkpoint/restore starts (Table 1's "Medium (snapshot)" grade,
    // the Catalyzer-style path): Install checkpoints a prepared container
    // (runtime booted, app loaded); every start restores the checkpoint
    // instead of cold-booting. Requires the gVisor runtime.
    bool checkpoint_starts = false;
    // Keep-alive window for warm sandboxes (§2.2): a paused container unused
    // for this long is terminated to reclaim its memory. Duration::Max()
    // disables expiry.
    Duration keep_alive = Duration::Max();
    fwbox::ContainerEngine::Config engine_config;
  };

  ContainerPlatform(HostEnv& env, const Params& params);
  ~ContainerPlatform() override;

  std::string name() const override { return params_.platform_name; }

  fwsim::Co<Result<InstallResult>> Install(const fwlang::FunctionSource& fn) override;
  fwsim::Co<Result<InvocationResult>> Invoke(const std::string& fn_name,
                                             const std::string& args,
                                             const InvokeOptions& options) override;
  fwsim::Co<Status> Prewarm(const std::string& fn_name) override;
  bool SupportsChains() const override { return params_.supports_chains; }

  double MeasurePssBytes() const override;
  void ReleaseInstances() override;

  bool HasWarmContainer(const std::string& fn_name) const;
  fwbox::ContainerEngine& engine() { return engine_; }

 private:
  struct Sandbox {
    fwbox::Container* container = nullptr;
    std::unique_ptr<fwstore::Filesystem> fs;
    std::unique_ptr<fwlang::GuestProcess> process;
  };
  struct InstalledFunction {
    std::unique_ptr<fwlang::FunctionSource> source;
    std::unique_ptr<Sandbox> warm;
    // Bumped whenever the warm slot changes; expiry events compare it so a
    // reused-and-re-stashed sandbox gets a fresh window.
    uint64_t warm_generation = 0;
    // checkpoint_starts mode: the checkpoint name and the process state to
    // re-attach on restore.
    std::string checkpoint_name;
    fwlang::GuestProcess::State process_state;
  };

  fwsim::Co<Result<std::unique_ptr<Sandbox>>> LaunchSandbox(const InstalledFunction& fn,
                                                            const std::string& sandbox_name);
  fwsim::Co<Result<std::unique_ptr<Sandbox>>> RestoreSandbox(const InstalledFunction& fn,
                                                             const std::string& sandbox_name);
  fwlang::GuestProcess::FaultCharger ChargerFor(fwbox::Container* container);
  void DestroySandbox(Sandbox& sandbox);
  // Stashes a warm sandbox, destroying the sandbox it displaces (an
  // overlapping invocation's), and (if keep_alive is finite) arms its expiry.
  void StashWarm(InstalledFunction& fn, std::unique_ptr<Sandbox> sandbox,
                 const std::string& fn_name);
  std::shared_ptr<fwmem::SnapshotImage> RootfsFor(fwlang::Language language);

  HostEnv& env_;
  Params params_;
  fwbox::ContainerEngine engine_;
  fwobs::Tracer* tracer_;
  std::map<std::string, InstalledFunction> installed_;
  std::map<fwlang::Language, std::shared_ptr<fwmem::SnapshotImage>> rootfs_images_;
  std::vector<std::unique_ptr<Sandbox>> kept_;
  uint64_t next_instance_ = 1;
  // Guards keep-alive expiry callbacks against outliving the platform.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

// OpenWhisk: container-based platform with full controller machinery and
// chain support (the only baseline able to run ServerlessBench apps, §5.3).
class OpenWhiskPlatform : public ContainerPlatform {
 public:
  explicit OpenWhiskPlatform(HostEnv& env) : ContainerPlatform(env, MakeParams()) {}

  // Exposed so experiments can tweak individual knobs (e.g. keep-alive).
  static Params MakeParams();
};

// gVisor: sandbox manager on the gVisor runtime (Sentry/Gofer I/O path,
// compute penalty, no chain support).
class GvisorPlatform : public ContainerPlatform {
 public:
  explicit GvisorPlatform(HostEnv& env) : ContainerPlatform(env, MakeParams()) {}

 private:
  static Params MakeParams();
};

// gVisor with checkpoint/restore starts: Table 1's snapshot-graded gVisor.
class GvisorSnapshotPlatform : public ContainerPlatform {
 public:
  explicit GvisorSnapshotPlatform(HostEnv& env) : ContainerPlatform(env, MakeParams()) {}

 private:
  static Params MakeParams();
};

}  // namespace fwbaselines

#endif  // FIREWORKS_SRC_BASELINES_CONTAINER_PLATFORM_H_
