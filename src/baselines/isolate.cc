#include "src/baselines/isolate.h"

#include <utility>

#include "src/base/check.h"

namespace fwbaselines {

using fwbase::SimTime;
using fwcore::InstallResult;
using fwcore::InvocationResult;
using fwcore::InvokeOptions;
using fwcore::Result;
using fwcore::Status;
using fwlang::ExecEnv;
using fwlang::GuestProcess;

IsolatePlatform::IsolatePlatform(fwcore::HostEnv& env) : env_(env), runtime_images_(env) {}

IsolatePlatform::~IsolatePlatform() { ReleaseInstances(); }

fwsim::Co<Result<InstallResult>> IsolatePlatform::Install(const fwlang::FunctionSource& fn) {
  if (installed_.count(fn.name) != 0) {
    co_return Status::AlreadyExists("function " + fn.name + " already installed");
  }
  const SimTime t0 = env_.sim().Now();
  InstalledFunction record;
  record.source = std::make_unique<fwlang::FunctionSource>(fn);
  runtime_images_.For(fn.language);
  // Script upload/validation at the edge.
  co_await fwsim::Delay(env_.sim(), fwbase::Duration::Millis(8));
  InstallResult result;
  result.total = env_.sim().Now() - t0;
  installed_.emplace(fn.name, std::move(record));
  co_return result;
}

fwsim::Co<Result<InvocationResult>> IsolatePlatform::Invoke(const std::string& fn_name,
                                                            const std::string& args,
                                                            const InvokeOptions& options) {
  auto it = installed_.find(fn_name);
  if (it == installed_.end()) {
    co_return Status::NotFound("function " + fn_name + " is not installed");
  }
  InstalledFunction& fn = it->second;
  InvocationResult result;
  const SimTime t0 = env_.sim().Now();
  fwobs::ScopedSpan root(&env_.tracer(), "isolate.invoke", "invoke");
  root.SetAttribute("function", fn_name);
  fwobs::ScopedSpan startup_span(&env_.tracer(), "invoke.startup", "invoke");
  co_await fwsim::Delay(env_.sim(), fwbase::Duration::Micros(120));  // Router.

  std::shared_ptr<Isolate> isolate;
  // installed_ is a node-based map and no code path erases entries, so the
  // fn reference stays valid across suspensions.
  if (fn.isolate == nullptr || options.force_cold) {  // fwlint:allow(iterator-invalidation)
    fn.isolate.reset();
    result.cold = true;
    isolate = std::make_shared<Isolate>();
    isolate->space = std::make_unique<fwmem::AddressSpace>(
        env_.memory(), runtime_images_.For(fn.source->language));
    isolate->fs = std::make_unique<fwstore::Filesystem>(env_.sim(), env_.disk(),
                                                        fwstore::FsKind::kHostDirect);
    fwmem::AddressSpace* space = isolate->space.get();
    auto charger = [](const fwmem::FaultCounts& faults) {
      // In-process faults: page-cache minors and fresh anon pages only.
      return fwbase::Duration::Nanos(1100) * static_cast<int64_t>(faults.Faults());
    };
    ExecEnv guest_env(isolate->fs.get(), &env_.db(), DirectNetSend(env_),
                      fwbase::Duration::Micros(350));
    isolate->process = std::make_unique<GuestProcess>(env_.sim(), fn.source->language, *space,
                                                      guest_env, charger);
    isolate->process->set_mem_salt(next_instance_++);
    co_await isolate->process->AttachRuntime();
    co_await isolate->process->LoadApplication(*fn.source);
    fn.isolate = isolate;
  } else {
    result.cold = false;
    isolate = fn.isolate;
  }
  root.SetAttribute("cold", result.cold ? "true" : "false");
  startup_span.End();
  co_await FinishInvocation(env_, *isolate->process, *fn.source, args.size(), options, t0, root,
                            result);
  co_return result;
}

void IsolatePlatform::ReleaseInstances() {
  for (auto& [name, fn] : installed_) {
    fn.isolate.reset();
  }
}

double IsolatePlatform::MeasurePssBytes() const {
  double total = 0.0;
  for (const auto& [name, fn] : installed_) {
    if (fn.isolate != nullptr) {
      total += fn.isolate->space->pss_bytes();
    }
  }
  return total;
}

bool IsolatePlatform::HasIsolate(const std::string& fn_name) const {
  auto it = installed_.find(fn_name);
  return it != installed_.end() && it->second.isolate != nullptr;
}

}  // namespace fwbaselines
