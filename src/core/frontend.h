// Frontend: the user-facing side of Fig 1 — user interface, API gateway and
// controller dispatch. Requests are queued and served by a bounded pool of
// invoker workers, which is what lets a platform absorb bursts: the paper's
// motivation for short start-up is precisely that every queued request may
// need a fresh sandbox.
#ifndef FIREWORKS_SRC_CORE_FRONTEND_H_
#define FIREWORKS_SRC_CORE_FRONTEND_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/base/stats.h"
#include "src/core/platform.h"
#include "src/simcore/primitives.h"

namespace fwcore {

class Frontend {
 public:
  struct Config {
    Config() {}
    // Number of concurrent invoker workers (per-host dispatch parallelism).
    int invoker_workers = 32;
  };

  Frontend(HostEnv& env, ServerlessPlatform& platform);
  Frontend(HostEnv& env, ServerlessPlatform& platform, const Config& config);

  // Enqueues a user request; the future resolves when the invocation (or its
  // failure) completes. Latency measured from submission, queueing included.
  fwsim::Future<Result<InvocationResult>> Submit(const std::string& fn_name,
                                                 const std::string& args,
                                                 const InvokeOptions& options);

  uint64_t submitted() const { return submitted_; }
  uint64_t completed() const { return completed_; }
  uint64_t failed() const { return failed_; }
  size_t queue_depth() const { return queue_.size(); }
  // End-to-end (submission → completion) latency of successful requests, ms.
  const fwbase::SampleStats& latency_ms() const { return latency_ms_; }

 private:
  struct Request {
    Request(std::string fn_name, std::string args, InvokeOptions options,
            fwsim::SharedPromise<Result<InvocationResult>> promise, fwbase::SimTime submitted)
        : fn_name(std::move(fn_name)),
          args(std::move(args)),
          options(std::move(options)),
          promise(std::move(promise)),
          submitted(submitted) {}

    std::string fn_name;
    std::string args;
    InvokeOptions options;
    fwsim::SharedPromise<Result<InvocationResult>> promise;
    fwbase::SimTime submitted;
  };
  static_assert(!std::is_aggregate_v<Request>);

  fwsim::Co<void> Worker();

  HostEnv& env_;
  ServerlessPlatform& platform_;
  Config config_;
  fwsim::Channel<Request> queue_;
  uint64_t submitted_ = 0;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
  fwbase::SampleStats latency_ms_;
};

}  // namespace fwcore

#endif  // FIREWORKS_SRC_CORE_FRONTEND_H_
