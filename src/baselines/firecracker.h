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

#include <string>

#include "src/baselines/warm_sandbox.h"
#include "src/vmm/hypervisor.h"

namespace fwbaselines {

enum class FirecrackerMode { kNoSnapshot, kOsSnapshot };

class FirecrackerPlatform : public WarmSandboxPlatform<fwvmm::MicroVm> {
 public:
  struct Config {
    Config() {}

    FirecrackerMode mode = FirecrackerMode::kNoSnapshot;
  };

  explicit FirecrackerPlatform(HostEnv& env);
  FirecrackerPlatform(HostEnv& env, const Config& config);
  ~FirecrackerPlatform() override;

  fwvmm::Hypervisor& hypervisor() { return hv_; }

 private:
  fwsim::Co<Status> Deploy(const fwlang::FunctionSource& source) override;
  fwsim::Co<SandboxResult> StartSandbox(const fwlang::FunctionSource& source,
                                        const std::string& sandbox_name,
                                        bool& fell_back) override;
  fwsim::Co<Status> PauseInstance(fwvmm::MicroVm& vm) override { return hv_.Pause(vm); }
  fwsim::Co<Status> ResumeInstance(fwvmm::MicroVm& vm) override { return hv_.Resume(vm); }
  void DestroyInstance(fwvmm::MicroVm& vm) override { FW_CHECK(hv_.Destroy(vm).ok()); }
  fwsim::Co<void> KeepInstance(Sandbox& sandbox, const InvokeOptions& options) override;

  HostEnv& env_;
  Config config_;
  fwvmm::Hypervisor hv_;
};

}  // namespace fwbaselines

#endif  // FIREWORKS_SRC_BASELINES_FIRECRACKER_H_
