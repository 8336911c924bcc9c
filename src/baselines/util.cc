#include "src/baselines/util.h"

#include "src/base/check.h"

namespace fwbaselines {

std::function<fwsim::Co<void>(uint64_t)> DirectNetSend(fwcore::HostEnv& env) {
  fwcore::HostEnv* env_ptr = &env;
  return [env_ptr](uint64_t bytes) -> fwsim::Co<void> {
    co_await fwsim::Delay(env_ptr->sim(), fwnet::HostNetwork::WireTime(bytes));
  };
}

std::shared_ptr<fwmem::SnapshotImage> RootfsCache::For(fwlang::Language language) {
  std::shared_ptr<fwmem::SnapshotImage>& image = images_[language];
  if (image == nullptr) {
    const fwlang::RuntimeCosts costs = fwlang::RuntimeCosts::For(language);
    fwmem::AddressSpace builder(env_.memory());
    const fwmem::SegmentId text = builder.AddSegment(fwlang::kSegRuntimeText,
                                                     costs.runtime_text_bytes);
    builder.DirtyBytes(text, costs.runtime_text_bytes);
    image = builder.TakeSnapshot(std::string("rootfs-") + fwlang::LanguageName(language));
    image->set_cache_warm(true);
  }
  return image;
}

fwsim::Co<void> FinishInvocation(fwcore::HostEnv& env, fwlang::GuestProcess& process,
                                 const fwlang::FunctionSource& source, uint64_t args_bytes,
                                 const fwcore::InvokeOptions& options, fwbase::SimTime t0,
                                 fwobs::ScopedSpan& root, fwcore::InvocationResult& result) {
  const fwbase::SimTime t_ready = env.sim().Now();

  fwobs::ScopedSpan params_span(&env.tracer(), "invoke.params", "invoke");
  co_await fwsim::Delay(env.sim(), fwnet::HostNetwork::WireTime(args_bytes));
  params_span.End();
  const fwbase::SimTime t_args = env.sim().Now();

  fwobs::ScopedSpan exec_span(&env.tracer(), "invoke.exec", "invoke");
  result.exec_stats = co_await process.CallMethod(source.entry_method, options.type_sig);
  exec_span.End();
  const fwbase::SimTime t_exec_done = env.sim().Now();

  fwobs::ScopedSpan response_span(&env.tracer(), "invoke.response", "invoke");
  co_await fwsim::Delay(env.sim(), fwnet::HostNetwork::WireTime(579));
  response_span.End();
  const fwbase::SimTime t_done = env.sim().Now();

  result.startup = t_ready - t0;
  result.exec = t_exec_done - t_args;
  result.others = (t_args - t_ready) + (t_done - t_exec_done);
  result.total = t_done - t0;
  root.End();
  result.root_span = root.get();
}

}  // namespace fwbaselines
