#include "src/core/frontend.h"

#include <utility>

#include "src/base/check.h"

namespace fwcore {

namespace {

// API-gateway request handling (auth, routing) per request.
constexpr Duration kGatewayCost = Duration::Micros(150);

}  // namespace

Frontend::Frontend(HostEnv& env, ServerlessPlatform& platform)
    : Frontend(env, platform, Config()) {}

Frontend::Frontend(HostEnv& env, ServerlessPlatform& platform, const Config& config)
    : env_(env), platform_(platform), config_(config), queue_(env.sim()) {
  FW_CHECK(config_.invoker_workers > 0);
  for (int i = 0; i < config_.invoker_workers; ++i) {
    env_.sim().Spawn(Worker());
  }
}

fwsim::Future<Result<InvocationResult>> Frontend::Submit(const std::string& fn_name,
                                                         const std::string& args,
                                                         const InvokeOptions& options) {
  ++submitted_;
  fwsim::SharedPromise<Result<InvocationResult>> promise(env_.sim());
  fwsim::Future<Result<InvocationResult>> future = promise.GetFuture();
  queue_.Send(Request(fn_name, args, options, std::move(promise), env_.sim().Now()));
  return future;
}

fwsim::Co<void> Frontend::Worker() {
  // Workers live for the whole simulation; the Simulation reclaims their
  // frames at teardown.
  for (;;) {
    Request request = co_await queue_.Recv();
    co_await fwsim::Delay(env_.sim(), kGatewayCost);
    Result<InvocationResult> result =
        co_await platform_.Invoke(request.fn_name, request.args, request.options);
    if (result.ok()) {
      ++completed_;
      latency_ms_.Add((env_.sim().Now() - request.submitted).millis());
    } else {
      ++failed_;
    }
    request.promise.Set(std::move(result));
  }
}

}  // namespace fwcore
