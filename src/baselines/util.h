// Shared helpers for the baseline platforms.
#ifndef FIREWORKS_SRC_BASELINES_UTIL_H_
#define FIREWORKS_SRC_BASELINES_UTIL_H_

#include <functional>
#include <memory>

#include "src/core/platform.h"
#include "src/lang/runtime_model.h"
#include "src/mem/address_space.h"
#include "src/obs/trace.h"

namespace fwbaselines {

// Egress for sandboxes without per-clone NAT: wire latency + transfer only.
std::function<fwsim::Co<void>(uint64_t)> DirectNetSend(fwcore::HostEnv& env);

// Builds (and caches in the page cache) the rootfs image of a language
// runtime: the binary text containers share across instances. The returned
// image contains a fully-populated `runtime_text` segment.
std::shared_ptr<fwmem::SnapshotImage> BuildRuntimeRootfs(fwcore::HostEnv& env,
                                                         fwlang::Language language);

// The tail every baseline invocation shares once its instance is ready: the
// arguments reach it over the network, the entry method runs, and the
// 579-byte HTTP response (§5.2.1's 79-byte body + 500-byte header shape) goes
// back out, each in its own span. Fills `result`'s exec stats and its
// startup/exec/others/total windows, with startup counted from `t0` to this
// call, and closes `root` at the end of the response, before any keep-alive
// work the caller does next. `instance` holds the sandbox or isolate whose
// `process` runs the method; it is read only once the arguments have arrived,
// because a concurrent cold start may replace an isolate in the meantime.
template <typename Instance>
fwsim::Co<void> FinishInvocation(fwcore::HostEnv& env, const std::unique_ptr<Instance>& instance,
                                 const fwlang::FunctionSource& source, uint64_t args_bytes,
                                 const fwcore::InvokeOptions& options, fwbase::SimTime t0,
                                 fwobs::ScopedSpan& root, fwcore::InvocationResult& result) {
  const fwbase::SimTime t_ready = env.sim().Now();

  fwobs::ScopedSpan params_span(&env.tracer(), "invoke.params", "invoke");
  co_await fwsim::Delay(env.sim(), fwbase::Duration::Micros(60) +
                                       env.network().TransferTime(args_bytes));
  params_span.End();
  const fwbase::SimTime t_args = env.sim().Now();

  fwobs::ScopedSpan exec_span(&env.tracer(), "invoke.exec", "invoke");
  result.exec_stats = co_await instance->process->CallMethod(source.entry_method, options.type_sig);
  exec_span.End();
  const fwbase::SimTime t_exec_done = env.sim().Now();

  fwobs::ScopedSpan response_span(&env.tracer(), "invoke.response", "invoke");
  co_await fwsim::Delay(env.sim(), fwbase::Duration::Micros(60) +
                                       env.network().TransferTime(579));
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

#endif  // FIREWORKS_SRC_BASELINES_UTIL_H_
