#include "src/core/fireworks.h"

#include <utility>

#include "src/base/check.h"
#include "src/base/logging.h"
#include "src/base/strings.h"

namespace fwcore {

using fwbase::SimTime;
using fwlang::ExecEnv;
using fwlang::GuestProcess;
using fwvmm::MicroVm;

namespace {

// Frontend + controller processing per request (Fig 1).
constexpr Duration kControllerCost = Duration::Micros(900);
// ip netns add + veth pair + iptables DNAT/SNAT rules (§3.5).
constexpr Duration kNetnsSetupCost = Duration::MillisF(2.2);
// Long-running GC churn over the runtime heap (V8 old-space turnover), part
// of a kept instance's steady-state residency.
constexpr double kSteadyRuntimeHeapDirtyFraction = 0.65;
// Overall per-invocation deadline measured from request arrival; crossing it
// fails the invocation with kDeadlineExceeded instead of retrying.
constexpr Duration kInvokeTimeout = Duration::Millis(30000);
// Deadline for the guest's parameter fetch: bounds the wait when a broker
// fault drops the args record (the guest would otherwise hang forever).
constexpr Duration kParamsConsumeTimeout = Duration::Millis(500);

}  // namespace

FireworksPlatform::FireworksPlatform(HostEnv& env) : FireworksPlatform(env, Config()) {}

FireworksPlatform::FireworksPlatform(HostEnv& env, const Config& config)
    : env_(env),
      config_(config),
      hv_(env.sim(), env.memory(), env.snapshot_store(), env.obs(), env.fault_injector()),
      tracer_(&env.tracer()) {
  fwobs::MetricsRegistry& metrics = env.metrics();
  egress_retransmit_counter_ = &metrics.GetCounter("fw.net.egress_retransmit.count");
  corruption_repairs_counter_ = &metrics.GetCounter("fw.snapshot.corruption_repairs.count");
  deadline_counter_ = &metrics.GetCounter("fw.invoke.deadline.count");
  retry_counter_ = &metrics.GetCounter("fw.invoke.retry.count");
  reinstall_counter_ = &metrics.GetCounter("fw.invoke.snapshot_reinstall.count");
  coldboot_counter_ = &metrics.GetCounter("fw.invoke.coldboot.count");
  reseed_counter_ = &metrics.GetCounter("fw.uniqueness.reseed.count");
  stale_clone_counter_ = &metrics.GetCounter("fw.uniqueness.stale_clone_discarded.count");
  prepared_counter_ = &metrics.GetCounter("fw.warmpool.prepared.count");
  invoked_counter_ = &metrics.GetCounter("fw.warmpool.invoked.count");
  discarded_counter_ = &metrics.GetCounter("fw.warmpool.discarded.count");
  reseed_scope_ = env.obs().profiler().RegisterScope("fw.guest_reseed");
}

FireworksPlatform::~FireworksPlatform() { ReleaseInstances(); }

fwsim::Co<Status> FireworksPlatform::WireNetwork(Instance& instance) {
  co_await fwsim::Delay(env_.sim(), kNetnsSetupCost);
  fwnet::NetworkNamespace& ns = env_.network().CreateNamespace();
  // Recorded at once: a half-wired namespace (e.g. after injected NAT
  // exhaustion) is released by the caller's Teardown.
  instance.netns_id = ns.id();
  Status tap = ns.AttachTap({kGuestTapName, kGuestIp, fwnet::MacAddr(0xFA57F00D)});
  if (!tap.ok()) {
    co_return tap;
  }
  const fwnet::IpAddr external = env_.network().AllocateExternalIp();
  Status nat = ns.AddNatRule({external, kGuestIp});
  if (!nat.ok()) {
    co_return nat;
  }
  co_return env_.network().BindExternalIp(external, ns.id());
}

ExecEnv FireworksPlatform::MountGuest(Instance& instance) {
  instance.fs = std::make_unique<fwstore::Filesystem>(env_.sim(), env_.disk(),
                                                      fwstore::FsKind::kVirtio);
  auto net_send = [this, netns_id = instance.netns_id](uint64_t bytes) -> fwsim::Co<void> {
    // Lost packets are retransmitted (bounded, TCP-style). A link that stays
    // down drops this egress — an application-visible effect, never a host
    // crash. Each attempt charges its own wire time.
    for (int attempt = 0; attempt < 8; ++attempt) {
      auto sent = co_await env_.network().SendOutbound(netns_id, kGuestIp, bytes);
      if (sent.ok()) {
        co_return;
      }
      egress_retransmit_counter_->Increment();
    }
    FW_LOG(kWarning) << "fireworks: guest egress dropped after retransmit budget";
  };
  return ExecEnv(instance.fs.get(), &env_.db(), std::move(net_send), Duration::Micros(400));
}

GuestProcess::FaultCharger FireworksPlatform::ChargerFor(MicroVm* vm) {
  return [this, vm](const fwmem::FaultCounts& faults) {
    return hv_.FaultServiceTime(*vm, faults);
  };
}

fwsim::Co<Result<InstallResult>> FireworksPlatform::Install(const fwlang::FunctionSource& fn) {
  if (installed_.count(fn.name) != 0) {
    co_return Status::AlreadyExists("function " + fn.name + " already installed");
  }
  const SimTime t0 = env_.sim().Now();
  fwobs::ScopedSpan root(tracer_, "fireworks.install", "install");
  root.SetAttribute("function", fn.name);

  // ② Annotate the user source (Fig 3).
  fwobs::ScopedSpan annotate_span(tracer_, "install.annotate", "install");
  Result<fwlang::FunctionSource> annotated = Annotate(fn);
  if (!annotated.ok()) {
    co_return annotated.status();
  }
  InstalledFunction record;
  record.annotated = std::make_unique<fwlang::FunctionSource>(*std::move(annotated));
  annotate_span.End();

  // ① Create a microVM and boot it, wire its network (the snapshot request
  // needs egress), and ③ launch the runtime and load the annotated function.
  Instance instance;
  Status booted =
      co_await BootGuest(*record.annotated, "fw-install-" + fn.name, tracer_, instance);
  if (!booted.ok()) {
    Teardown(instance);
    co_return booted;
  }
  GuestProcess& process = *instance.process;

  // ④ __fireworks_jit: JIT-compile every user method (one default-params
  // execution of the whole application).
  const SimTime jit_t0 = env_.sim().Now();
  fwobs::ScopedSpan jit_span(tracer_, "install.jit", "install");
  fwlang::ExecStats jit_stats =
      co_await process.CallMethod(fwlang::kFireworksJitMethod, "default");
  record.install.jit_time = env_.sim().Now() - jit_t0;
  jit_span.SetAttribute("jit_compiles", jit_stats.jit_compiles);
  jit_span.End();

  // __fireworks_snapshot: the guest asks the host for a snapshot...
  fwobs::ScopedSpan snap_span(tracer_, "install.snapshot", "install");
  co_await process.CallMethod(fwlang::kFireworksSnapshotMethod, "default");
  // ...and the host takes it right before the original entry point.
  const SimTime snap_t0 = env_.sim().Now();
  auto image = co_await hv_.CreateSnapshot(*instance.vm, "fw-" + fn.name);
  if (!image.ok()) {
    Teardown(instance);
    co_return image.status();
  }
  record.install.snapshot_time = env_.sim().Now() - snap_t0;
  snap_span.SetAttribute("snapshot_bytes", (*image)->file_bytes());
  snap_span.End();
  record.install.snapshot_bytes = (*image)->file_bytes();
  record.image = *image;
  record.snapshot_name = "fw-" + fn.name;
  if (config_.pin_snapshots) {
    // Hot functions keep their snapshots pinned in the store.
    (void)env_.snapshot_store().Pin("fw-" + fn.name);
  }

  record.process_state = process.ExtractState();

  // The install VM is no longer needed; clones resume from the image.
  Teardown(instance);

  record.install.total = env_.sim().Now() - t0;
  FW_LOG(kInfo) << "fireworks: installed " << fn.name << " in "
                << record.install.total.ToString() << " (snapshot "
                << fwbase::BytesToString(record.install.snapshot_bytes) << ", jit "
                << record.install.jit_time.ToString() << ", " << jit_stats.jit_compiles
                << " compiles)";
  InstallResult result = record.install;
  installed_.emplace(fn.name, std::move(record));
  co_return result;
}

fwsim::Co<Status> FireworksPlatform::BootGuest(const fwlang::FunctionSource& source,
                                               const std::string& vm_name, fwobs::Tracer* steps,
                                               Instance& instance) {
  fwobs::ScopedSpan create_span(steps, "install.create_vm", "install");
  instance.vm = co_await hv_.CreateMicroVm(vm_name);
  create_span.End();
  fwobs::ScopedSpan boot_span(steps, "install.boot", "install");
  Status booted = co_await hv_.BootGuestOs(*instance.vm);
  if (!booted.ok()) {
    co_return booted;
  }
  boot_span.End();

  fwobs::ScopedSpan netns_span(steps, "install.netns", "install");
  Status wired = co_await WireNetwork(instance);
  if (!wired.ok()) {
    co_return wired;
  }
  instance.vm->set_netns_id(instance.netns_id);
  instance.vm->set_tap_name(kGuestTapName);
  netns_span.End();

  fwobs::ScopedSpan load_span(steps, "install.load", "install");
  instance.process =
      std::make_unique<GuestProcess>(env_.sim(), source.language, instance.vm->address_space(),
                                     MountGuest(instance), ChargerFor(instance.vm));
  // One virtio-rng read at runtime start seeds the guest RNG (DESIGN.md §15).
  instance.process->set_boot_entropy(hv_.DrawGuestEntropy());
  co_await instance.process->InstallPackages(source);
  co_await instance.process->BootRuntime();
  co_await instance.process->LoadApplication(source);
  co_return Status::Ok();
}

fwsim::Co<Result<InvocationResult>> FireworksPlatform::Invoke(const std::string& fn_name,
                                                              const std::string& args,
                                                              const InvokeOptions& options) {
  auto it = installed_.find(fn_name);
  if (it == installed_.end()) {
    co_return Status::NotFound("function " + fn_name + " is not installed");
  }
  const InstalledFunction& fn = it->second;
  // The oldest parked clone, if any, serves attempt 1: a restore that ran
  // before its request arrived (§3.6).
  std::unique_ptr<Instance> parked = PopClone(fn_name);
  if (parked != nullptr && config_.restore_uniqueness &&
      parked->process->observed_generation() != parked->vm->generation()) {
    // The clone's resume protocol never completed (e.g. a crash between
    // restore and reseed-acknowledge): it still carries snapshot-duplicated
    // identity and must not serve user traffic. Discard it; attempt 1
    // restores a fresh, reseeded clone instead.
    stale_clone_counter_->Increment();
    Teardown(*parked);
    parked = nullptr;
  }
  InvocationResult result;
  result.cold = false;  // Fireworks has no cold/warm distinction (§5.1).
  const SimTime t0 = env_.sim().Now();
  const SimTime deadline =
      t0 + (options.deadline.nanos() > 0 ? options.deadline : kInvokeTimeout);
  // The invoke children are contiguous windows: each child ends exactly where
  // the next begins, so their durations sum to the root span's (= total).
  fwobs::ScopedSpan root(tracer_, parked != nullptr ? "fireworks.invoke_warm" : "fireworks.invoke",
                         "invoke");
  root.SetAttribute("function", fn_name);

  // Controller processing (Fig 1); paid once, not per attempt.
  fwobs::ScopedSpan frontend_span(tracer_, "invoke.frontend", "invoke");
  co_await fwsim::Delay(env_.sim(), kControllerCost);
  frontend_span.End();
  const SimTime t_frontend_done = env_.sim().Now();

  Status last_error = Status::Ok();
  for (int attempt = 1; attempt <= kMaxInvokeAttempts; ++attempt) {
    result.attempts = attempt;
    const bool warm = parked != nullptr;
    std::unique_ptr<Instance> instance =
        warm ? std::exchange(parked, nullptr) : std::make_unique<Instance>();
    AttemptTimes times;
    // installed_ is a node-based map and no code path erases entries, so the
    // fn reference stays valid across suspensions.
    Status attempted = co_await InvokeAttempt(fn, fn_name, args, options, *instance,  // fwlint:allow(iterator-invalidation)
                                              times, result);
    if (attempted.ok()) {
      if (warm) {
        // Startup spans request arrival → function entry; the restore itself
        // happened off-path at PrepareClone time.
        result.startup = times.params_read - t0;
      } else {
        // On attempt 1, times.attempt_start == t_frontend_done, making startup
        // exactly (net_done - t0) + (restored - params_queued) — the original
        // single-shot formula. Retries land their dead time in `others`, so
        // startup + exec + others == total holds on every path.
        result.startup = (t_frontend_done - t0) + (times.net_done - times.attempt_start) +
                         (times.restored - times.params_queued);
      }
      result.exec = times.exec_done - times.params_read;
      result.total = times.done - t0;
      result.others = result.total - result.startup - result.exec;
      // Close the root at t_done, before any keep-instance steady-state work,
      // so the root span covers exactly the measured invocation.
      root.End();
      result.root_span = root.get();

      if (warm) {
        invoked_counter_->Increment();
      } else if (fn.image != nullptr && !fn.image->has_working_set()) {
        // REAP record phase: the pages this first invocation faulted in from
        // the image become the snapshot's working set. Later cold restores
        // prefetch exactly these pages.
        const fwmem::PageSet& touched = instance->vm->address_space().image_touched();
        if (touched.Count() > 0) {
          fn.image->set_working_set(std::make_shared<const fwmem::PageSet>(touched));
        }
      }

      if (options.keep_instance) {
        if (options.steady_state) {
          // A long-running instance converges to its steady-state resident
          // set: guest page cache and slab in the kernel segments, GC-churned
          // pages in the runtime heap. Charged after the latency measurement.
          const uint64_t fc_id = instance->fc_id;
          auto& space = instance->vm->address_space();
          fwmem::FaultCounts faults = fwvmm::GuestOsPageActivity(
              space, instance->guest_kernel, instance->guest_os,
              fwvmm::kGuestOsSteadyTouchFraction, fwvmm::kGuestOsSteadyDirtyFraction,
              5000 + fc_id, 6000 + fc_id);
          faults += space.DirtyRandomFraction(space.SegmentByName(fwlang::kSegRuntimeHeap),
                                              kSteadyRuntimeHeapDirtyFraction, 7000 + fc_id);
          co_await hv_.ServiceFaults(*instance->vm, faults);
        }
        instances_.push_back(std::move(instance));
      } else {
        Teardown(*instance);
      }
      co_return result;
    }

    // The attempt failed: release whatever partial state it created, then
    // decide how (whether) to recover. Everything below is failure-path only.
    last_error = attempted;
    Teardown(*instance);
    env_.metrics()
        .GetCounter("fw.invoke.attempt_failed.count", fwbase::StatusCodeName(attempted.code()))
        .Increment();
    FW_LOG(kDebug) << "fireworks: invoke attempt " << attempt << " of " << fn_name
                   << " failed: " << attempted.ToString();

    if (attempted.code() == fwbase::StatusCode::kDataLoss) {
      // The stored snapshot failed its checksum. Re-persist the in-memory
      // image so the next attempt restores from a fresh file.
      Status reinstalled = co_await ReinstallSnapshot(fn);
      if (reinstalled.ok()) {
        // Distinct from snapshot_reinstall.count (which also counts other
        // reinstall call sites): chaos runs assert on this one to prove the
        // checksum-repair path actually fired, not just that latency moved.
        corruption_repairs_counter_->Increment();
      } else {
        FW_LOG(kWarning) << "fireworks: snapshot re-install for " << fn_name
                      << " failed: " << reinstalled.ToString();
      }
    }

    if (env_.sim().Now() >= deadline) {
      deadline_counter_->Increment();
      co_return Status::DeadlineExceeded("invocation of " + fn_name +
                                         " exceeded its deadline after " +
                                         std::to_string(attempt) + " attempt(s): " +
                                         last_error.ToString());
    }

    if (attempted.code() == fwbase::StatusCode::kNotFound) {
      // The snapshot was evicted from the store: retrying the snapshot path
      // cannot succeed, so go straight to the cold-boot fallback (if any).
      break;
    }

    if (attempt < kMaxInvokeAttempts) {
      // Exponential backoff with jitter from the sim RNG (drawn only here, on
      // the failure path, so fault-free runs never consume it).
      const Duration base = config_.retry_backoff * static_cast<int64_t>(1 << (attempt - 1));
      // Host-side scheduling jitter, never guest-visible state.
      const double jitter =
          1.0 + env_.sim().rng().UniformDouble();  // fwlint:allow(snapshot-captured-identity)
      const Duration backoff = Duration::SecondsF(base.seconds() * jitter);
      fwobs::ScopedSpan retry_span(tracer_, "invoke.retry", "invoke");
      retry_span.SetAttribute("attempt", static_cast<uint64_t>(attempt));
      co_await fwsim::Delay(env_.sim(), backoff);
      retry_counter_->Increment();
    }
  }

  if (config_.cold_boot_fallback) {
    Status cold = co_await ColdBootInvoke(fn, fn_name, options, t0, result);
    if (cold.ok()) {
      root.End();
      result.root_span = root.get();
      co_return result;
    }
    last_error = cold;
  }
  co_return last_error;
}

fwsim::Co<void> FireworksPlatform::RestoreUniqueness(fwlang::GuestProcess& process,
                                                     fwvmm::MicroVm& vm) {
  // vmgenid resume protocol (DESIGN.md §15). The whole exchange sits on the
  // restore critical path: a clone that answered traffic before it would be
  // serving with byte-identical RNG/clock/id state from the snapshot.
  auto& profiler = env_.obs().profiler();
  const uint64_t prof_token = profiler.EnterDetached(reseed_scope_);
  {
    fwobs::ScopedSpan reseed_span(tracer_, "invoke.guest_reseed", "invoke");
    reseed_span.SetAttribute("generation", vm.generation());
    co_await hv_.NotifyGenerationChange(vm);
    co_await process.ReseedFromHostEntropy(vm.generation(), hv_.DrawGuestEntropy());
  }
  {
    fwobs::ScopedSpan rebase_span(tracer_, "invoke.clock_rebase", "invoke");
    co_await process.RebaseMonotonicClock(vm.generation());
  }
  profiler.Exit(prof_token);
  reseed_counter_->Increment();
}

fwmem::FaultCounts FireworksPlatform::GuestResumeFaults(Instance& instance) {
  fwmem::AddressSpace& space = instance.vm->address_space();
  instance.guest_kernel = space.SegmentByName(fwvmm::kSegGuestKernel);
  instance.guest_os = space.SegmentByName(fwvmm::kSegGuestOs);
  return fwvmm::GuestOsPageActivity(space, instance.guest_kernel, instance.guest_os,
                                    fwvmm::kGuestOsResumeTouchFraction,
                                    fwvmm::kGuestOsResumeDirtyFraction,
                                    1000 + instance.fc_id, 2000 + instance.fc_id);
}

fwsim::Co<Status> FireworksPlatform::OpenClone(Instance& instance) {
  Status wired = co_await WireNetwork(instance);
  if (!wired.ok()) {
    co_return wired;
  }
  instance.fc_id = next_fc_id_++;
  const std::string topic =
      fwbase::StrFormat("topic%llu", static_cast<unsigned long long>(instance.fc_id));
  Status topic_status = env_.broker().CreateTopic(topic);
  if (!topic_status.ok()) {
    co_return topic_status;
  }
  instance.topic = topic;
  co_return Status::Ok();
}

fwsim::Co<Status> FireworksPlatform::ResumeClone(const InstalledFunction& fn,
                                                 const std::string& fn_name,
                                                 Instance& instance) {
  auto restored = co_await hv_.RestoreMicroVm(
      fn.snapshot_name, fwbase::StrFormat("fw-%s-%llu", fn_name.c_str(),
                                          static_cast<unsigned long long>(instance.fc_id)));
  if (!restored.ok()) {
    co_return restored.status();
  }
  MicroVm* vm = *restored;
  instance.vm = vm;
  vm->set_netns_id(instance.netns_id);
  vm->set_tap_name(kGuestTapName);
  vm->SetMetadata("fcID", std::to_string(instance.fc_id));
  vm->SetMetadata("topic", instance.topic);

  if (config_.prefetch_on_restore && !fn.image->cache_warm()) {
    // With a recorded working set, prefetch only the pages a first invocation
    // actually touched; otherwise fall back to reading the whole file.
    const uint64_t prefetch_bytes = fn.image->has_working_set()
                                        ? fn.image->working_set_bytes()
                                        : fn.image->file_bytes();
    co_await hv_.PrefetchWorkingSet(*fn.image, prefetch_bytes);
  }

  // Post-resume guest-kernel activity: page tables, slab, timers re-arming.
  const fwmem::FaultCounts resume_faults = GuestResumeFaults(instance);
  co_await hv_.ServiceFaults(*vm, resume_faults);

  // Attach the resumed guest's runtime (free: the process state is a value
  // copy), then restore its uniqueness while still inside the restore window
  // — the clone must not touch user traffic with snapshot-duplicated
  // identity, and a parked clone is one Produce away from it (DESIGN.md §15).
  instance.process = GuestProcess::FromState(fn.process_state, env_.sim(), vm->address_space(),
                                             MountGuest(instance), ChargerFor(vm));
  instance.process->set_mem_salt(instance.fc_id);
  if (config_.restore_uniqueness) {
    co_await RestoreUniqueness(*instance.process, *vm);
  }
  co_return Status::Ok();
}

fwsim::Co<Status> FireworksPlatform::InvokeAttempt(const InstalledFunction& fn,
                                                   const std::string& fn_name,
                                                   const std::string& args,
                                                   const InvokeOptions& options,
                                                   Instance& instance, AttemptTimes& times,
                                                   InvocationResult& result) {
  times.attempt_start = env_.sim().Now();
  const bool parked = instance.vm != nullptr;

  if (!parked) {
    // Per-clone network namespace (§3.5) and parameter topic.
    fwobs::ScopedSpan netns_span(tracer_, "invoke.netns", "invoke");
    Status opened = co_await OpenClone(instance);
    if (!opened.ok()) {
      co_return opened;
    }
  }
  times.net_done = env_.sim().Now();

  // §3.6: put the arguments into the instance's Kafka topic *before* resume.
  fwobs::ScopedSpan produce_span(tracer_, "invoke.params.produce", "invoke");
  auto produced =
      co_await env_.broker().Produce(instance.topic, 0, fwbus::Record("args", args));
  if (!produced.ok()) {
    co_return produced.status();
  }
  produce_span.End();
  times.params_queued = env_.sim().Now();

  if (!parked) {
    // ⑥ Restore the post-JIT snapshot into a fresh microVM.
    fwobs::ScopedSpan restore_span(tracer_, "invoke.restore", "invoke");
    Status resumed = co_await ResumeClone(fn, fn_name, instance);
    if (!resumed.ok()) {
      co_return resumed;
    }
  }
  times.restored = env_.sim().Now();
  fwobs::ScopedSpan consume_span(tracer_, "invoke.params.consume", "invoke");

  // The resumed guest identifies itself via MMDS and fetches its parameters
  // (a parked guest is already blocked on its topic).
  if (!parked) {
    auto fc_id_value = co_await hv_.GuestReadMmds(*instance.vm, "fcID");
    FW_CHECK(fc_id_value.ok());
  }
  // Bounded wait: a dropped args record must surface as kDeadlineExceeded,
  // not a hang. With the record already present (the normal case) the timing
  // is identical to the unbounded ConsumeLast.
  auto params =
      co_await env_.broker().ConsumeLastWithTimeout(instance.topic, 0, kParamsConsumeTimeout);
  if (!params.ok()) {
    co_return params.status();
  }
  consume_span.End();
  times.params_read = env_.sim().Now();

  // ⑦ Execute the original entry point with the fetched parameters.
  if (env_.fault_injector().Trip(fwfault::FaultKind::kVmCrashDuringExec)) {
    co_return Status::Unavailable("guest VM crashed executing " + fn_name);
  }
  fwobs::ScopedSpan exec_span(tracer_, "invoke.exec", "invoke");
  result.exec_stats =
      co_await instance.process->CallMethod(fn.annotated->entry_method, options.type_sig);
  exec_span.End();
  times.exec_done = env_.sim().Now();

  // HTTP response back through NAT.
  fwobs::ScopedSpan response_span(tracer_, "invoke.response", "invoke");
  auto sent = co_await env_.network().SendOutbound(instance.netns_id, kGuestIp, 579);
  if (!sent.ok()) {
    co_return sent.status();
  }
  response_span.End();
  times.done = env_.sim().Now();
  co_return Status::Ok();
}

fwsim::Co<Result<uint64_t>> FireworksPlatform::PrepareClone(const std::string& fn_name) {
  auto it = installed_.find(fn_name);
  if (it == installed_.end()) {
    co_return Status::NotFound("function " + fn_name + " is not installed");
  }
  const InstalledFunction& fn = it->second;
  fwobs::ScopedSpan root(tracer_, "fireworks.prepare_clone", "warmpool");
  root.SetAttribute("function", fn_name);
  auto instance = std::make_unique<Instance>();

  // The invoke path's clone start, without its spans. A crash between
  // restore and the reseed completing leaves the clone's observed generation
  // stale — Invoke refuses to admit it.
  Status started = co_await OpenClone(*instance);
  if (started.ok()) {
    // installed_ is a node-based map and no code path erases entries, so the
    // fn reference stays valid across suspensions.
    started = co_await ResumeClone(fn, fn_name, *instance);  // fwlint:allow(iterator-invalidation)
  }
  if (!started.ok()) {
    Teardown(*instance);
    co_return started;
  }
  auto fc_id_value = co_await hv_.GuestReadMmds(*instance->vm, "fcID");
  FW_CHECK(fc_id_value.ok());

  prepared_counter_->Increment();
  const uint64_t fc_id = instance->fc_id;
  pool_[fn_name].push_back(std::move(instance));
  co_return fc_id;
}

std::unique_ptr<FireworksPlatform::Instance> FireworksPlatform::PopClone(
    const std::string& fn_name) {
  auto pit = pool_.find(fn_name);
  if (pit == pool_.end() || pit->second.empty()) {
    return nullptr;
  }
  std::unique_ptr<Instance> instance = std::move(pit->second.front());
  pit->second.pop_front();
  if (pit->second.empty()) {
    pool_.erase(pit);
  }
  return instance;
}

Status FireworksPlatform::DiscardClone(const std::string& fn_name) {
  std::unique_ptr<Instance> instance = PopClone(fn_name);
  if (instance == nullptr) {
    return Status::NotFound("no parked clone for " + fn_name);
  }
  Teardown(*instance);
  discarded_counter_->Increment();
  return Status::Ok();
}

size_t FireworksPlatform::PooledCloneCount(const std::string& fn_name) const {
  auto pit = pool_.find(fn_name);
  return pit == pool_.end() ? 0 : pit->second.size();
}

size_t FireworksPlatform::TotalPooledClones() const {
  size_t total = 0;
  for (const auto& [name, clones] : pool_) {
    total += clones.size();
  }
  return total;
}

fwsim::Co<Status> FireworksPlatform::ReinstallSnapshot(const InstalledFunction& fn) {
  fwobs::ScopedSpan span(tracer_, "invoke.snapshot_reinstall", "invoke");
  span.SetAttribute("snapshot", fn.snapshot_name);
  // The corrupted entry was dropped at detection; Remove tolerates both cases.
  (void)env_.snapshot_store().Remove(fn.snapshot_name);
  Status saved = co_await env_.snapshot_store().Save(fn.image);
  if (!saved.ok()) {
    co_return saved;
  }
  if (config_.pin_snapshots) {
    (void)env_.snapshot_store().Pin(fn.snapshot_name);
  }
  reinstall_counter_->Increment();
  co_return Status::Ok();
}

fwsim::Co<Status> FireworksPlatform::ColdBootInvoke(const InstalledFunction& fn,
                                                    const std::string& fn_name,
                                                    const InvokeOptions& options,
                                                    SimTime t0, InvocationResult& result) {
  coldboot_counter_->Increment();
  result.cold = true;
  result.cold_boot_fallback = true;

  // Create + boot + wire + load: the slow path the snapshot normally skips.
  // A cold boot is a fresh guest: it reads fresh boot entropy rather than
  // inheriting a snapshot's identity (DESIGN.md §15).
  Instance instance;
  fwobs::ScopedSpan boot_span(tracer_, "invoke.coldboot.boot", "invoke");
  Status booted = co_await BootGuest(*fn.annotated, "fw-coldboot-" + fn_name, nullptr, instance);
  if (!booted.ok()) {
    Teardown(instance);
    co_return booted;
  }
  boot_span.End();
  const SimTime t_ready = env_.sim().Now();

  fwobs::ScopedSpan exec_span(tracer_, "invoke.coldboot.exec", "invoke");
  result.exec_stats =
      co_await instance.process->CallMethod(fn.annotated->entry_method, options.type_sig);
  exec_span.End();
  const SimTime t_exec_done = env_.sim().Now();

  fwobs::ScopedSpan response_span(tracer_, "invoke.coldboot.response", "invoke");
  auto sent = co_await env_.network().SendOutbound(instance.netns_id, kGuestIp, 579);
  response_span.End();
  Teardown(instance);
  if (!sent.ok()) {
    co_return sent.status();
  }
  const SimTime t_done = env_.sim().Now();

  // Startup spans request arrival to function entry — including the failed
  // snapshot attempts that pushed us onto this path. Sum stays == total.
  result.startup = t_ready - t0;
  result.exec = t_exec_done - t_ready;
  result.total = t_done - t0;
  result.others = result.total - result.startup - result.exec;
  co_return Status::Ok();
}

void FireworksPlatform::Teardown(Instance& instance) {
  if (instance.vm != nullptr) {
    FW_CHECK(hv_.Destroy(*instance.vm).ok());
    instance.vm = nullptr;
  }
  if (instance.netns_id != 0) {
    FW_CHECK(env_.network().DestroyNamespace(instance.netns_id).ok());
    instance.netns_id = 0;
  }
  if (!instance.topic.empty()) {
    (void)env_.broker().DeleteTopic(instance.topic);
    instance.topic.clear();
  }
}

void FireworksPlatform::ReleaseInstances() {
  for (auto& instance : instances_) {
    Teardown(*instance);
  }
  instances_.clear();
  for (auto& [name, clones] : pool_) {
    for (auto& instance : clones) {
      Teardown(*instance);
    }
  }
  pool_.clear();
}

double FireworksPlatform::MeasurePssBytes() const {
  // Kept instances, then parked clones: the clones share the post-JIT image
  // pages, so a clone's marginal PSS is far below its RSS (Fig 10).
  double total = 0.0;
  for (const auto& instance : instances_) {
    total += instance->vm->address_space().pss_bytes();
  }
  for (const auto& [name, clones] : pool_) {
    for (const auto& instance : clones) {
      total += instance->vm->address_space().pss_bytes();
    }
  }
  return total;
}

fwsim::Co<Status> FireworksPlatform::RegenerateSnapshot(const std::string& fn_name) {
  auto it = installed_.find(fn_name);
  if (it == installed_.end()) {
    co_return Status::NotFound("function " + fn_name + " is not installed");
  }
  InstalledFunction& fn = it->second;
  // Resume the current image into a scratch VM and let the guest
  // re-randomise: the runtime relocates its ASLR-sensitive structures,
  // dirtying a slice of its pages, and the kernel reseeds its RNG state.
  auto restored = co_await hv_.RestoreMicroVm(
      fn.snapshot_name, fwbase::StrFormat("fw-regen-%s", fn_name.c_str()));
  if (!restored.ok()) {
    co_return restored.status();
  }
  Instance regen;
  regen.vm = *restored;
  auto& space = regen.vm->address_space();
  fwmem::FaultCounts faults;
  // The regenerated image must contain everything the old one did: fault the
  // whole old image in (the bulk of regeneration's cost, alongside writing
  // the new file).
  for (size_t seg = 0; seg < space.segments().size(); ++seg) {
    faults += space.Touch(static_cast<fwmem::SegmentId>(seg), 0,
                          space.segments()[seg].pages);
  }
  // installed_ is a node-based map and no code path erases entries, so the
  // fn reference stays valid across suspensions.
  faults += space.DirtyRandomFraction(space.SegmentByName(fwvmm::kSegGuestKernel), 0.05,
                                      9000 + static_cast<uint64_t>(fn.version));  // fwlint:allow(iterator-invalidation)
  if (space.HasSegment(fwlang::kSegRuntimeHeap)) {
    faults += space.DirtyRandomFraction(space.SegmentByName(fwlang::kSegRuntimeHeap), 0.08,
                                        9100 + static_cast<uint64_t>(fn.version));
  }
  co_await hv_.ServiceFaults(*regen.vm, faults);
  co_await fwsim::Delay(env_.sim(), Duration::Millis(3));  // In-guest reseeding.

  const std::string new_name =
      fwbase::StrFormat("fw-%s-v%d", fn_name.c_str(), fn.version + 1);
  auto image = co_await hv_.CreateSnapshot(*regen.vm, new_name);
  Teardown(regen);
  if (!image.ok()) {
    co_return image.status();
  }

  if (config_.pin_snapshots) {
    (void)env_.snapshot_store().Pin(new_name);
  }
  // Retire the old image from the store; in-flight instances keep their
  // shared_ptr to it.
  (void)env_.snapshot_store().Unpin(fn.snapshot_name);
  (void)env_.snapshot_store().Remove(fn.snapshot_name);
  fn.image = *image;
  fn.snapshot_name = new_name;
  ++fn.version;
  co_return Status::Ok();
}

int FireworksPlatform::SnapshotVersion(const std::string& fn_name) const {
  auto it = installed_.find(fn_name);
  return it == installed_.end() ? 0 : it->second.version;
}

const fwlang::FunctionSource* FireworksPlatform::AnnotatedSource(
    const std::string& fn_name) const {
  auto it = installed_.find(fn_name);
  return it == installed_.end() ? nullptr : it->second.annotated.get();
}

std::shared_ptr<fwmem::SnapshotImage> FireworksPlatform::SnapshotImageOf(
    const std::string& fn_name) const {
  auto it = installed_.find(fn_name);
  return it == installed_.end() ? nullptr : it->second.image;
}

const InstallResult* FireworksPlatform::InstallInfo(const std::string& fn_name) const {
  auto it = installed_.find(fn_name);
  return it == installed_.end() ? nullptr : &it->second.install;
}

}  // namespace fwcore
