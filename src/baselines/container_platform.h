// ContainerPlatform: the container-based baselines (OpenWhisk on runc,
// gVisor as a sandbox manager, and gVisor with checkpoint/restore starts).
//
// Cold start: controller handling → container create (runc or Sentry+Gofer)
// → runtime boot inside the container (binary text shared via the rootfs
// image) → application load → execution (profile-driven JIT only). Warm
// start: the container is kept alive/paused after use (§2.2) and only pays
// controller + execution.
#ifndef FIREWORKS_SRC_BASELINES_CONTAINER_PLATFORM_H_
#define FIREWORKS_SRC_BASELINES_CONTAINER_PLATFORM_H_

#include <map>
#include <string>

#include "src/baselines/warm_sandbox.h"
#include "src/sandbox/container.h"

namespace fwbaselines {

class ContainerPlatform : public WarmSandboxPlatform<fwbox::Container> {
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

  bool SupportsChains() const override { return params_.supports_chains; }

  fwbox::ContainerEngine& engine() { return engine_; }

 private:
  fwsim::Co<Status> Deploy(const fwlang::FunctionSource& source) override;
  // checkpoint_starts: restores the function's checkpoint, degrading to a
  // full launch if that fails.
  fwsim::Co<SandboxResult> StartSandbox(const fwlang::FunctionSource& source,
                                        const std::string& sandbox_name,
                                        bool& fell_back) override;
  fwsim::Co<Status> PauseInstance(fwbox::Container& c) override { return engine_.Pause(c); }
  fwsim::Co<Status> ResumeInstance(fwbox::Container& c) override { return engine_.Unpause(c); }
  void DestroyInstance(fwbox::Container& c) override { FW_CHECK(engine_.Destroy(c).ok()); }

  // Creates a container and boots the runtime and application in it: what
  // Deploy checkpoints and what a failed restore falls back to.
  fwsim::Co<SandboxResult> LaunchSandbox(const fwlang::FunctionSource& source,
                                         const std::string& sandbox_name);
  fwsim::Co<SandboxResult> RestoreSandbox(const fwlang::FunctionSource& source,
                                          const std::string& sandbox_name);
  // Mounts a fresh filesystem in `sandbox` and returns the environment its
  // guest process runs in.
  fwlang::ExecEnv MountGuestEnv(Sandbox& sandbox);
  fwlang::GuestProcess::FaultCharger ChargerFor(fwbox::Container* container);
  std::string CheckpointName(const std::string& fn_name) const {
    return params_.platform_name + "-" + fn_name;
  }

  HostEnv& env_;
  Params params_;
  fwbox::ContainerEngine engine_;
  RootfsCache rootfs_;
  // checkpoint_starts: the guest process state each function's checkpoint
  // holds, re-attached on restore.
  std::map<std::string, fwlang::GuestProcess::State> checkpoint_states_;
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
