// IsolatePlatform: a Cloudflare-Workers-style runtime-sandbox platform
// (§2.3, Table 1). One long-running V8 process hosts hundreds of isolates;
// a function's first invocation creates its isolate and loads the script,
// later invocations run directly. High performance and memory sharing, but
// only runtime-level isolation (all functions share one OS process).
#ifndef FIREWORKS_SRC_BASELINES_ISOLATE_H_
#define FIREWORKS_SRC_BASELINES_ISOLATE_H_

#include <map>
#include <memory>
#include <string>

#include "src/baselines/util.h"
#include "src/core/platform.h"

namespace fwbaselines {

class IsolatePlatform : public fwcore::ServerlessPlatform {
 public:
  explicit IsolatePlatform(fwcore::HostEnv& env);
  ~IsolatePlatform() override;

  std::string name() const override { return "isolate"; }

  fwsim::Co<fwcore::Result<fwcore::InstallResult>> Install(
      const fwlang::FunctionSource& fn) override;
  fwsim::Co<fwcore::Result<fwcore::InvocationResult>> Invoke(
      const std::string& fn_name, const std::string& args,
      const fwcore::InvokeOptions& options) override;

  double MeasurePssBytes() const override;
  void ReleaseInstances() override;

  bool HasIsolate(const std::string& fn_name) const;

 private:
  struct Isolate {
    std::unique_ptr<fwmem::AddressSpace> space;
    std::unique_ptr<fwstore::Filesystem> fs;
    std::unique_ptr<fwlang::GuestProcess> process;
  };
  struct InstalledFunction {
    std::unique_ptr<fwlang::FunctionSource> source;
    // Created lazily on first invocation. Every invocation holds the isolate
    // it runs in, so a replacement (a force_cold start) never destroys a
    // running isolate: a displaced one goes when its last invocation ends.
    std::shared_ptr<Isolate> isolate;
  };

  fwcore::HostEnv& env_;
  std::map<std::string, InstalledFunction> installed_;
  RootfsCache runtime_images_;
  uint64_t next_instance_ = 1;
};

}  // namespace fwbaselines

#endif  // FIREWORKS_SRC_BASELINES_ISOLATE_H_
