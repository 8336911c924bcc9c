// FireworksPlatform: the paper's contribution (§3).
//
// Install phase (Fig 2 ①–④): annotate the function source, create a microVM,
// boot the guest, install packages, launch the runtime, load the annotated
// application, run __fireworks_jit (compiling every user method), let the
// guest request the snapshot (__fireworks_snapshot), and persist the post-JIT
// VM snapshot. The install VM is then destroyed — only the snapshot remains.
//
// Invoke phase (Fig 2 ⑤–⑦): set up a fresh network namespace with NAT and a
// tap device (every clone keeps the identical in-snapshot network identity,
// §3.5), produce the arguments into the instance's Kafka topic (§3.6),
// restore the snapshot into a new microVM (guest pages fault in lazily from
// the shared image, CoW on write), let the resumed guest read its fcID from
// MMDS, consume its parameters, execute the (already JITted) entry method,
// and send the response. There is no cold/warm distinction (§5.1).
#ifndef FIREWORKS_SRC_CORE_FIREWORKS_H_
#define FIREWORKS_SRC_CORE_FIREWORKS_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/annotator.h"
#include "src/core/platform.h"
#include "src/vmm/hypervisor.h"

namespace fwcore {

class FireworksPlatform : public ServerlessPlatform {
 public:
  struct Config {
    Config() {}

    // REAP-style working-set prefetch before resume (ablation, §7). The
    // first successful invocation of a function always records the image
    // pages it faulted in as the snapshot's working set; with a recorded set
    // this prefetches only those pages instead of the whole snapshot file
    // (Ustiugov et al., REAP).
    bool prefetch_on_restore = false;
    // Pin snapshots of installed functions in the store (§6 discussion: keep
    // frequently-accessed snapshots). Off for the eviction ablation.
    bool pin_snapshots = true;
    // --- Recovery ----------------------------------------------------------
    // Base of the exponential backoff between snapshot-path attempts, with
    // jitter drawn from the simulation RNG (failure paths only, so fault-free
    // runs stay bit-identical).
    Duration retry_backoff = Duration::Millis(10);
    // Degrade to a full cold boot (create + boot + load, no snapshot) once
    // the snapshot path is exhausted.
    bool cold_boot_fallback = true;
    // --- Uniqueness restoration (DESIGN.md §15) -----------------------------
    // vmgenid-style resume protocol on every snapshot restore: the hypervisor
    // notifies the resumed guest of its new generation and the guest reseeds
    // its RNG from fresh host entropy + rebases its monotonic clock before
    // serving traffic. Off = the raw collision (clones share RNG streams,
    // request ids and timestamps) — kept togglable so the detector tests can
    // demonstrate the bug and the bench can price the fix.
    bool restore_uniqueness = true;
  };

  // Bounded retry of the snapshot invoke path.
  static constexpr int kMaxInvokeAttempts = 3;

  explicit FireworksPlatform(HostEnv& env);
  FireworksPlatform(HostEnv& env, const Config& config);
  ~FireworksPlatform() override;

  std::string name() const override { return "fireworks"; }

  fwsim::Co<Result<InstallResult>> Install(const fwlang::FunctionSource& fn) override;
  // The one invoke path. The oldest parked clone of `fn_name` (PrepareClone)
  // takes attempt 1 unless its generation is stale; every later attempt
  // restores a fresh clone. Failed attempts back off and retry until the
  // deadline, then fall back to a cold boot.
  fwsim::Co<Result<InvocationResult>> Invoke(const std::string& fn_name,
                                             const std::string& args,
                                             const InvokeOptions& options) override;
  bool SupportsChains() const override { return true; }

  // --- Warm pool (cluster layer) ------------------------------------------
  // PrepareClone runs the off-critical-path half of an invocation: netns +
  // NAT wiring, parameter-topic creation, snapshot restore, the post-resume
  // kernel page activity, and the guest's MMDS identity read. The clone is
  // then parked, blocked on its (still empty) parameter topic — exactly the
  // state a real Fireworks clone idles in between restore and parameter
  // consumption (§3.6). Returns the clone's fcID.
  fwsim::Co<Result<uint64_t>> PrepareClone(const std::string& fn_name);
  // Tears down the oldest parked clone (warm-pool shrink). kNotFound if the
  // pool for `fn_name` is empty.
  Status DiscardClone(const std::string& fn_name);
  size_t PooledCloneCount(const std::string& fn_name) const;
  size_t TotalPooledClones() const;

  // §6 mitigation for snapshot entropy/ASLR staleness: resumes the current
  // snapshot, lets the guest re-randomise its address-space layout, and
  // replaces the stored image with a fresh version. New invocations use the
  // new image; instances already running keep the old one.
  fwsim::Co<Status> RegenerateSnapshot(const std::string& fn_name);
  // Monotonic snapshot version (1 after install). 0 if not installed.
  int SnapshotVersion(const std::string& fn_name) const;

  // PSS of kept instances and parked clones.
  double MeasurePssBytes() const override;
  void ReleaseInstances() override;

  // The annotated source of an installed function (for tests / inspection).
  const fwlang::FunctionSource* AnnotatedSource(const std::string& fn_name) const;
  // The post-JIT snapshot image of an installed function (ablations chill or
  // prefetch the page cache through this handle).
  std::shared_ptr<fwmem::SnapshotImage> SnapshotImageOf(const std::string& fn_name) const;
  const InstallResult* InstallInfo(const std::string& fn_name) const;
  size_t live_instance_count() const { return instances_.size(); }
  fwvmm::Hypervisor& hypervisor() { return hv_; }

 private:
  struct InstalledFunction {
    // unique_ptr: GuestProcess::State points at the FunctionSource, so its
    // address must be stable for the lifetime of the installation.
    std::unique_ptr<fwlang::FunctionSource> annotated;
    std::shared_ptr<fwmem::SnapshotImage> image;
    fwlang::GuestProcess::State process_state;
    InstallResult install;
    std::string snapshot_name;
    int version = 1;
  };

  // One microVM the platform runs: the install VM, a cold-boot VM, a
  // snapshot clone, a parked clone or the VM RegenerateSnapshot resumes.
  // Each step that acquires something records it here at once, and
  // Teardown is the only release.
  struct Instance {
    fwvmm::MicroVm* vm = nullptr;
    std::unique_ptr<fwstore::Filesystem> fs;
    std::unique_ptr<fwlang::GuestProcess> process;
    uint64_t netns_id = 0;
    std::string topic;
    uint64_t fc_id = 0;
    // The clone's guest kernel and OS segments, resolved once at resume.
    fwmem::SegmentId guest_kernel = fwmem::kNoSegment;
    fwmem::SegmentId guest_os = fwmem::kNoSegment;
  };

  // Timestamps of one snapshot-path attempt, for the latency breakdown.
  struct AttemptTimes {
    AttemptTimes() {}
    fwbase::SimTime attempt_start;
    fwbase::SimTime net_done;
    fwbase::SimTime params_queued;
    fwbase::SimTime restored;
    fwbase::SimTime params_read;
    fwbase::SimTime exec_done;
    fwbase::SimTime done;
  };

  // Wires a namespace + tap + NAT + external IP into `instance`.
  fwsim::Co<Status> WireNetwork(Instance& instance);
  // Mounts a fresh virtio filesystem in `instance` and returns the
  // environment its guest process runs in, egressing through its namespace.
  fwlang::ExecEnv MountGuest(Instance& instance);
  fwlang::GuestProcess::FaultCharger ChargerFor(fwvmm::MicroVm* vm);
  // Destroys the instance's VM and namespace and deletes its topic.
  void Teardown(Instance& instance);

  // Boots a fresh guest of `source` into `instance`: create the VM, boot
  // the guest OS, wire its network, then start the runtime (with fresh boot
  // entropy, DESIGN.md §15) and load the application. With `steps`, each
  // step runs in its own install.* span.
  fwsim::Co<Status> BootGuest(const fwlang::FunctionSource& source, const std::string& vm_name,
                              fwobs::Tracer* steps, Instance& instance);

  // vmgenid resume protocol for a freshly restored clone (DESIGN.md §15):
  // generation-change notification, guest RNG reseed from host entropy, and
  // monotonic-clock rebase — charged on the restore critical path, emitted
  // as guest_reseed/clock_rebase child spans of the caller's restore span.
  fwsim::Co<void> RestoreUniqueness(fwlang::GuestProcess& process, fwvmm::MicroVm& vm);

  // Page faults of the post-resume guest-kernel activity of a freshly
  // restored clone (page tables, slab, timers re-arming), identical on the
  // invoke and warm-pool paths; salts are keyed by fc_id, so clones never
  // collide. Resolves the clone's guest kernel and OS segments into
  // `instance`.
  fwmem::FaultCounts GuestResumeFaults(Instance& instance);

  // The clone start shared by the snapshot invoke path and PrepareClone, in
  // two steps so the invoke path can produce its arguments between them.
  // Each fills `instance` as it goes, so the caller can tear down whatever
  // partial state a failure left behind. OpenClone wires the clone's network
  // namespace (§3.5), assigns its fcID and creates its parameter topic.
  fwsim::Co<Status> OpenClone(Instance& instance);
  // ResumeClone restores the post-JIT snapshot into a fresh microVM (with
  // the REAP prefetch when enabled), services the post-resume guest faults,
  // attaches the guest runtime and runs the vmgenid protocol.
  fwsim::Co<Status> ResumeClone(const InstalledFunction& fn, const std::string& fn_name,
                                Instance& instance);
  // Removes and returns the oldest parked clone of `fn_name`; null when the
  // pool is empty.
  std::unique_ptr<Instance> PopClone(const std::string& fn_name);

  // One attempt of the snapshot invoke path (netns → produce → restore →
  // consume → exec → response). Fills `instance` incrementally so the caller
  // can tear down whatever partial state a failed attempt left behind. An
  // instance that already holds a VM is a parked clone: PrepareClone ran its
  // netns, restore and MMDS read, so the attempt starts at the produce.
  fwsim::Co<Status> InvokeAttempt(const InstalledFunction& fn, const std::string& fn_name,
                                  const std::string& args, const InvokeOptions& options,
                                  Instance& instance, AttemptTimes& times,
                                  InvocationResult& result);
  // Recovery for a corrupted snapshot image: re-persist the in-memory image
  // under the same name (and re-pin it).
  fwsim::Co<Status> ReinstallSnapshot(const InstalledFunction& fn);
  // Graceful degradation once the snapshot path is exhausted: cold-create a
  // VM, boot the guest, load the app, and run the entry method.
  fwsim::Co<Status> ColdBootInvoke(const InstalledFunction& fn, const std::string& fn_name,
                                   const InvokeOptions& options, fwbase::SimTime t0,
                                   InvocationResult& result);

  HostEnv& env_;
  Config config_;
  fwvmm::Hypervisor hv_;
  fwobs::Tracer* tracer_;
  // Handles to the fixed-name fw.* counters, resolved once by the
  // constructor so the request paths bump them without a registry lookup.
  fwobs::Counter* egress_retransmit_counter_ = nullptr;
  fwobs::Counter* corruption_repairs_counter_ = nullptr;
  fwobs::Counter* deadline_counter_ = nullptr;
  fwobs::Counter* retry_counter_ = nullptr;
  fwobs::Counter* reinstall_counter_ = nullptr;
  fwobs::Counter* coldboot_counter_ = nullptr;
  fwobs::Counter* reseed_counter_ = nullptr;
  fwobs::Counter* stale_clone_counter_ = nullptr;
  fwobs::Counter* prepared_counter_ = nullptr;
  fwobs::Counter* invoked_counter_ = nullptr;
  fwobs::Counter* discarded_counter_ = nullptr;
  // The guest reseed's profiler scope, resolved once like the counters.
  fwobs::ProfScopeId reseed_scope_ = 0;
  std::map<std::string, InstalledFunction> installed_;
  std::vector<std::unique_ptr<Instance>> instances_;  // Kept instances.
  // Parked clones per function, oldest first (ordered map: release order must
  // not depend on hash order).
  std::map<std::string, std::deque<std::unique_ptr<Instance>>> pool_;
  uint64_t next_fc_id_ = 1;
};

// The fixed in-snapshot guest network identity (A.A.A.A / tap0 in Fig 5).
inline constexpr fwnet::IpAddr kGuestIp = fwnet::IpAddr::FromOctets(172, 16, 0, 2);
inline constexpr char kGuestTapName[] = "tap0";

}  // namespace fwcore

#endif  // FIREWORKS_SRC_CORE_FIREWORKS_H_
