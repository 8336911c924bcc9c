// FirecrackerPlatform: plain Firecracker as a sandbox manager (§2.3, §5.1),
// plus the "+VM-level OS snapshot" factor of the §5.5 ablation.
//
// Modes:
//   * kNoSnapshot — the paper's "Firecracker" baseline. Cold start boots the
//     VM, guest OS, language runtime and loads the function; warm start
//     resumes a paused, pre-installed sandbox (Prewarm implements the §5.1
//     methodology). No source annotation: JIT happens only when the runtime's
//     own profiler triggers it.
//   * kOsSnapshot — installs by snapshotting right after the guest OS boots;
//     invocation restores that snapshot and still pays runtime launch +
//     application load + profile-driven JIT (Fig 11/12 middle factor).
#ifndef FIREWORKS_SRC_BASELINES_FIRECRACKER_H_
#define FIREWORKS_SRC_BASELINES_FIRECRACKER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/platform.h"
#include "src/vmm/hypervisor.h"

namespace fwbaselines {

using fwcore::Duration;
using fwcore::HostEnv;
using fwcore::InstallResult;
using fwcore::InvocationResult;
using fwcore::InvokeOptions;
using fwcore::Result;
using fwcore::Status;

enum class FirecrackerMode { kNoSnapshot, kOsSnapshot };

class FirecrackerPlatform : public fwcore::ServerlessPlatform {
 public:
  struct Config {
    Config() {}

    FirecrackerMode mode = FirecrackerMode::kNoSnapshot;
  };

  explicit FirecrackerPlatform(HostEnv& env);
  FirecrackerPlatform(HostEnv& env, const Config& config);
  ~FirecrackerPlatform() override;

  std::string name() const override {
    return config_.mode == FirecrackerMode::kNoSnapshot ? "firecracker"
                                                        : "firecracker+os-snapshot";
  }

  fwsim::Co<Result<InstallResult>> Install(const fwlang::FunctionSource& fn) override;
  fwsim::Co<Result<InvocationResult>> Invoke(const std::string& fn_name,
                                             const std::string& args,
                                             const InvokeOptions& options) override;
  fwsim::Co<Status> Prewarm(const std::string& fn_name) override;

  double MeasurePssBytes() const override;
  void ReleaseInstances() override;

  bool HasWarmSandbox(const std::string& fn_name) const;
  fwvmm::Hypervisor& hypervisor() { return hv_; }

 private:
  struct Sandbox {
    fwvmm::MicroVm* vm = nullptr;
    std::unique_ptr<fwstore::Filesystem> fs;
    std::unique_ptr<fwlang::GuestProcess> process;
  };
  struct InstalledFunction {
    std::unique_ptr<fwlang::FunctionSource> source;
    std::unique_ptr<Sandbox> warm;       // Paused warm sandbox, if any.
    bool os_snapshot_taken = false;
  };

  // Boots a fresh sandbox up to "application loaded" (the §5.1 warm point).
  fwsim::Co<Result<std::unique_ptr<Sandbox>>> LaunchSandbox(const InstalledFunction& fn,
                                                            const std::string& sandbox_name);
  fwlang::GuestProcess::FaultCharger ChargerFor(fwvmm::MicroVm* vm);
  void DestroySandbox(Sandbox& sandbox);
  // Stashes a paused sandbox as the function's warm one, destroying the
  // sandbox it displaces (an overlapping invocation's).
  void StashWarm(InstalledFunction& fn, std::unique_ptr<Sandbox> sandbox);

  HostEnv& env_;
  Config config_;
  fwvmm::Hypervisor hv_;
  fwobs::Tracer* tracer_;
  std::map<std::string, InstalledFunction> installed_;
  std::vector<std::unique_ptr<Sandbox>> kept_;
  uint64_t next_instance_ = 1;
};

}  // namespace fwbaselines

#endif  // FIREWORKS_SRC_BASELINES_FIRECRACKER_H_
