// Shared helpers for the baseline platforms.
#ifndef FIREWORKS_SRC_BASELINES_UTIL_H_
#define FIREWORKS_SRC_BASELINES_UTIL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "src/core/platform.h"
#include "src/lang/runtime_model.h"
#include "src/mem/address_space.h"
#include "src/obs/trace.h"

namespace fwbaselines {

// Egress for sandboxes without per-clone NAT: wire latency + transfer only.
std::function<fwsim::Co<void>(uint64_t)> DirectNetSend(fwcore::HostEnv& env);

// The rootfs image of each language runtime, built on first use and kept in
// the page cache: the binary text a platform's containers (or isolates)
// share across instances.
class RootfsCache {
 public:
  explicit RootfsCache(fwcore::HostEnv& env) : env_(env) {}

  // `language`'s image, with a fully-populated `runtime_text` segment.
  std::shared_ptr<fwmem::SnapshotImage> For(fwlang::Language language);

 private:
  fwcore::HostEnv& env_;
  std::map<fwlang::Language, std::shared_ptr<fwmem::SnapshotImage>> images_;
};

// The tail every baseline invocation shares once its instance is ready: the
// arguments reach it over the network, `process` runs the entry method, and
// the 579-byte HTTP response (§5.2.1's 79-byte body + 500-byte header shape)
// goes back out, each in its own span. Fills `result`'s exec stats and its
// startup/exec/others/total windows, with startup counted from `t0` to this
// call, and closes `root` at the end of the response, before any keep-alive
// work the caller does next. The caller keeps the sandbox or isolate that
// owns `process` alive until this returns, even if a concurrent start
// replaces it as the function's warm instance meanwhile.
fwsim::Co<void> FinishInvocation(fwcore::HostEnv& env, fwlang::GuestProcess& process,
                                 const fwlang::FunctionSource& source, uint64_t args_bytes,
                                 const fwcore::InvokeOptions& options, fwbase::SimTime t0,
                                 fwobs::ScopedSpan& root, fwcore::InvocationResult& result);

}  // namespace fwbaselines

#endif  // FIREWORKS_SRC_BASELINES_UTIL_H_
