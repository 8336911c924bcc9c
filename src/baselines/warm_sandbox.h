// WarmSandboxPlatform: the keep-alive lifecycle every sandbox-manager
// baseline shares, Firecracker's microVMs and OpenWhisk's and gVisor's
// containers alike. A sandbox is launched, loaded with the function and
// paused (§5.1); the next invocation claims and resumes it, or starts cold
// if there is none or the resume crashed; every invocation ends by pausing
// its sandbox and stashing it as the function's warm one until keep-alive
// lapses (§2.2).
//
// A platform supplies its sandbox type (`Instance`), how it starts, pauses,
// resumes and destroys one, its install-time work, and its costs and names
// (SandboxLifecycle). The lifecycle itself never asks which platform it
// serves.
#ifndef FIREWORKS_SRC_BASELINES_WARM_SANDBOX_H_
#define FIREWORKS_SRC_BASELINES_WARM_SANDBOX_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/check.h"
#include "src/base/strings.h"
#include "src/baselines/util.h"
#include "src/core/platform.h"

namespace fwbaselines {

using fwcore::Duration;
using fwcore::HostEnv;
using fwcore::InstallResult;
using fwcore::InvocationResult;
using fwcore::InvokeOptions;
using fwcore::Result;
using fwcore::Status;

// What a platform charges per invocation and how it names what it makes.
struct SandboxLifecycle {
  SandboxLifecycle() {}

  // The platform's name(), and the prefix of its recovery counters
  // "<name>.warm_crash.count" and "<name>.coldboot_fallback.count".
  std::string name;
  std::string span_name;  // Root span of each invocation.
  // Sandboxes are named "<prefix>-warm-<fn>" (Prewarm) and "<prefix>-<fn>-<n>".
  std::string sandbox_prefix;
  // Controller costs: every invocation pays `request` before it looks for a
  // warm sandbox; a warm start pays `warm` after claiming it, a cold start
  // `cold` before starting one. A zero cost takes no simulated event, so it
  // cannot let a same-instant invocation claim the warm sandbox first.
  Duration request;
  Duration warm;
  Duration cold;
  // A stashed sandbox unused for this long is destroyed to reclaim its
  // memory; Duration::Max() keeps it forever.
  Duration keep_alive = Duration::Max();
};

template <typename Instance>
class WarmSandboxPlatform : public fwcore::ServerlessPlatform {
 public:
  ~WarmSandboxPlatform() override { *alive_ = false; }  // Disarms keep-alive expiries.
  WarmSandboxPlatform(const WarmSandboxPlatform&) = delete;
  WarmSandboxPlatform& operator=(const WarmSandboxPlatform&) = delete;

  std::string name() const override { return lifecycle_.name; }

  fwsim::Co<Result<InstallResult>> Install(const fwlang::FunctionSource& source) override;
  fwsim::Co<Result<InvocationResult>> Invoke(const std::string& fn_name,
                                             const std::string& args,
                                             const InvokeOptions& options) override;
  fwsim::Co<Status> Prewarm(const std::string& fn_name) override;

  double MeasurePssBytes() const override {
    double total = 0.0;
    for (const auto& sandbox : kept_) {
      if (sandbox->instance != nullptr) {
        total += sandbox->instance->address_space().pss_bytes();
      }
    }
    for (const auto& [name, fn] : installed_) {
      if (fn.warm != nullptr && fn.warm->instance != nullptr) {
        total += fn.warm->instance->address_space().pss_bytes();
      }
    }
    return total;
  }

  void ReleaseInstances() override {
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

  bool HasWarmSandbox(const std::string& fn_name) const {
    auto it = installed_.find(fn_name);
    return it != installed_.end() && it->second.warm != nullptr;
  }

 protected:
  struct Sandbox {
    Instance* instance = nullptr;  // Null once destroyed.
    std::unique_ptr<fwstore::Filesystem> fs;
    std::unique_ptr<fwlang::GuestProcess> process;
  };
  using SandboxResult = Result<std::unique_ptr<Sandbox>>;

  WarmSandboxPlatform(HostEnv& env, const SandboxLifecycle& lifecycle)
      : env_(env),
        lifecycle_(lifecycle),
        warm_crash_(env.metrics().GetCounter(lifecycle.name + ".warm_crash.count")),
        coldboot_fallback_(
            env.metrics().GetCounter(lifecycle.name + ".coldboot_fallback.count")) {}

  // Install-time work once the function is recorded: at least the package
  // charge (ChargePackages), plus any image, snapshot or checkpoint.
  virtual fwsim::Co<Status> Deploy(const fwlang::FunctionSource& source) = 0;
  // Starts a sandbox of `source` up to the §5.1 warm point (runtime booted,
  // application loaded), for a prewarm and a cold invocation alike: from the
  // platform's install-time image if it keeps one. Sets `fell_back` when
  // that image failed to restore and the sandbox was booted in full instead.
  virtual fwsim::Co<SandboxResult> StartSandbox(const fwlang::FunctionSource& source,
                                                const std::string& sandbox_name,
                                                bool& fell_back) = 0;
  virtual fwsim::Co<Status> PauseInstance(Instance& instance) = 0;
  virtual fwsim::Co<Status> ResumeInstance(Instance& instance) = 0;
  // A subclass's destructor calls ReleaseInstances() while the hypervisor or
  // engine this needs is still alive.
  virtual void DestroyInstance(Instance& instance) = 0;
  // Work a kept instance does before it is held; none by default.
  virtual fwsim::Co<void> KeepInstance(Sandbox& sandbox, const InvokeOptions& options) {
    co_return;
  }

  // Charges installing `source`'s dependencies (npm/pip), which are baked
  // into its image at deploy time so cold starts only pay boot + load.
  fwsim::Co<void> ChargePackages(const fwlang::FunctionSource& source) {
    if (source.package_bytes == 0) {
      co_return;
    }
    const double mib =
        static_cast<double>(source.package_bytes) / static_cast<double>(fwbase::kMiB);
    co_await fwsim::Delay(
        env_.sim(), fwlang::RuntimeCosts::For(source.language).package_install_cost_per_mib * mib);
    co_await env_.host_fs().WriteFile(source.package_bytes);
  }

  void DestroySandbox(Sandbox& sandbox) {
    if (sandbox.instance != nullptr) {
      DestroyInstance(*sandbox.instance);
      sandbox.instance = nullptr;
    }
  }

  // Numbers sandboxes and salts their memory; advances once per invocation.
  uint64_t next_instance() const { return next_instance_; }

 private:
  struct Function {
    std::unique_ptr<fwlang::FunctionSource> source;
    std::unique_ptr<Sandbox> warm;  // Paused warm sandbox, if any.
    // Bumped whenever the warm slot changes; expiry events compare it so a
    // reused-and-re-stashed sandbox gets a fresh window.
    uint64_t warm_generation = 0;
  };

  fwsim::Co<void> Charge(Duration cost) {
    if (cost > Duration::Zero()) {
      co_await fwsim::Delay(env_.sim(), cost);
    }
  }

  // Stashes a paused sandbox as the function's warm one, destroying the
  // sandbox it displaces (an overlapping invocation's), and arms its expiry.
  void StashWarm(const std::string& fn_name, Function& fn, std::unique_ptr<Sandbox> sandbox) {
    if (fn.warm != nullptr) {
      DestroySandbox(*fn.warm);
    }
    fn.warm = std::move(sandbox);
    const uint64_t generation = ++fn.warm_generation;
    if (lifecycle_.keep_alive == Duration::Max()) {
      return;
    }
    std::shared_ptr<bool> alive = alive_;
    env_.sim().Schedule(lifecycle_.keep_alive, [this, alive, fn_name, generation] {
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

  HostEnv& env_;
  const SandboxLifecycle lifecycle_;
  fwobs::Counter& warm_crash_;
  fwobs::Counter& coldboot_fallback_;
  std::map<std::string, Function> installed_;
  std::vector<std::unique_ptr<Sandbox>> kept_;
  uint64_t next_instance_ = 1;
  // Guards keep-alive expiry callbacks against outliving the platform.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

template <typename Instance>
fwsim::Co<Result<InstallResult>> WarmSandboxPlatform<Instance>::Install(
    const fwlang::FunctionSource& source) {
  if (installed_.count(source.name) != 0) {
    co_return Status::AlreadyExists("function " + source.name + " already installed");
  }
  const fwbase::SimTime t0 = env_.sim().Now();
  Function fn;
  fn.source = std::make_unique<fwlang::FunctionSource>(source);
  Status deployed = co_await Deploy(*fn.source);
  if (!deployed.ok()) {
    co_return deployed;
  }
  InstallResult result;
  result.total = env_.sim().Now() - t0;
  installed_.emplace(fn.source->name, std::move(fn));
  co_return result;
}

template <typename Instance>
fwsim::Co<Status> WarmSandboxPlatform<Instance>::Prewarm(const std::string& fn_name) {
  auto it = installed_.find(fn_name);
  if (it == installed_.end()) {
    co_return Status::NotFound("function " + fn_name + " is not installed");
  }
  if (it->second.warm != nullptr) {
    co_return Status::Ok();
  }
  bool fell_back = false;
  auto sandbox = co_await StartSandbox(
      *it->second.source,
      fwbase::StrFormat("%s-warm-%s", lifecycle_.sandbox_prefix.c_str(), fn_name.c_str()),
      fell_back);
  if (fell_back) {
    coldboot_fallback_.Increment();
  }
  if (!sandbox.ok()) {
    co_return sandbox.status();
  }
  Status paused = co_await PauseInstance(*(*sandbox)->instance);
  if (!paused.ok()) {
    co_return paused;
  }
  // Re-acquire after the suspensions above: holding `it` across a co_await
  // is only safe while no code path erases installed_ entries; re-finding
  // keeps that invariant local.
  it = installed_.find(fn_name);
  if (it == installed_.end()) {
    co_return Status::NotFound("function " + fn_name + " removed during prewarm");
  }
  StashWarm(fn_name, it->second, *std::move(sandbox));
  co_return Status::Ok();
}

template <typename Instance>
fwsim::Co<Result<InvocationResult>> WarmSandboxPlatform<Instance>::Invoke(
    const std::string& fn_name, const std::string& args, const InvokeOptions& options) {
  auto it = installed_.find(fn_name);
  if (it == installed_.end()) {
    co_return Status::NotFound("function " + fn_name + " is not installed");
  }
  // installed_ is a node-based map and no code path erases entries, so `fn`
  // stays valid across the suspensions below.
  Function& fn = it->second;
  InvocationResult result;
  const fwbase::SimTime t0 = env_.sim().Now();
  fwobs::ScopedSpan root(&env_.tracer(), lifecycle_.span_name, "invoke");
  root.SetAttribute("function", fn_name);
  fwobs::ScopedSpan startup_span(&env_.tracer(), "invoke.startup", "invoke");
  co_await Charge(lifecycle_.request);

  std::unique_ptr<Sandbox> sandbox;
  if (fn.warm != nullptr && !options.force_cold) {  // fwlint:allow(iterator-invalidation)
    result.cold = false;
    // Claim the warm sandbox *before* suspending: a concurrent invocation
    // must not grab the same one.
    sandbox = std::move(fn.warm);
    co_await Charge(lifecycle_.warm);
    Status resumed = co_await ResumeInstance(*sandbox->instance);
    if (!resumed.ok()) {
      // The sandbox died resuming: discard it and degrade to a cold start.
      warm_crash_.Increment();
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
    co_await Charge(lifecycle_.cold);
    bool fell_back = false;
    auto started = co_await StartSandbox(
        *fn.source,
        fwbase::StrFormat("%s-%s-%llu", lifecycle_.sandbox_prefix.c_str(), fn_name.c_str(),
                          static_cast<unsigned long long>(next_instance_)),
        fell_back);
    if (fell_back) {
      // The install-time image failed to restore: a full launch stood in.
      coldboot_fallback_.Increment();
      result.cold_boot_fallback = true;
    }
    if (!started.ok()) {
      co_return started.status();
    }
    sandbox = *std::move(started);
  }
  ++next_instance_;
  root.SetAttribute("cold", result.cold ? "true" : "false");
  startup_span.End();
  co_await FinishInvocation(env_, *sandbox->process, *fn.source, args.size(), options, t0, root,
                            result);

  if (options.keep_instance) {
    co_await KeepInstance(*sandbox, options);
    kept_.push_back(std::move(sandbox));
  } else {
    // Keep-alive: the sandbox stays warm for the next request.
    Status paused = co_await PauseInstance(*sandbox->instance);
    FW_CHECK(paused.ok());
    StashWarm(fn_name, fn, std::move(sandbox));
  }
  co_return result;
}

}  // namespace fwbaselines

#endif  // FIREWORKS_SRC_BASELINES_WARM_SANDBOX_H_
