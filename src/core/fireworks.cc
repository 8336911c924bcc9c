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

FireworksPlatform::FireworksPlatform(HostEnv& env) : FireworksPlatform(env, Config()) {}

FireworksPlatform::FireworksPlatform(HostEnv& env, const Config& config)
    : env_(env),
      config_(config),
      hv_(env.sim(), env.memory(), env.snapshot_store(), config.hv_config),
      tracer_(&env.tracer()) {
  hv_.set_observability(&env.obs());
  hv_.set_fault_injector(&env.fault_injector());
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
}

FireworksPlatform::~FireworksPlatform() { ReleaseInstances(); }

fwsim::Co<Result<std::pair<uint64_t, fwnet::IpAddr>>> FireworksPlatform::WireNetwork() {
  co_await fwsim::Delay(env_.sim(), config_.netns_setup_cost);
  fwnet::NetworkNamespace& ns = env_.network().CreateNamespace();
  Status tap = ns.AttachTap({kGuestTapName, kGuestIp, fwnet::MacAddr(0xFA57F00D)});
  if (!tap.ok()) {
    (void)env_.network().DestroyNamespace(ns.id());
    co_return tap;
  }
  const fwnet::IpAddr external = env_.network().AllocateExternalIp();
  Status nat = ns.AddNatRule({external, kGuestIp});
  if (!nat.ok()) {
    (void)env_.network().DestroyNamespace(ns.id());
    co_return nat;
  }
  Status bind = env_.network().BindExternalIp(external, ns.id());
  if (!bind.ok()) {
    // NAT port allocation failed (e.g. injected exhaustion): release the
    // half-wired namespace rather than leaking it.
    (void)env_.network().DestroyNamespace(ns.id());
    co_return bind;
  }
  co_return std::make_pair(ns.id(), external);
}

ExecEnv FireworksPlatform::MakeGuestEnv(fwstore::Filesystem* fs, uint64_t netns_id,
                                        fwnet::IpAddr guest_ip) {
  auto net_send = [this, netns_id, guest_ip](uint64_t bytes) -> fwsim::Co<void> {
    // Lost packets are retransmitted (bounded, TCP-style). A link that stays
    // down drops this egress — an application-visible effect, never a host
    // crash. Each attempt charges its own wire time.
    for (int attempt = 0; attempt < 8; ++attempt) {
      auto sent = co_await env_.network().SendOutbound(netns_id, guest_ip, bytes);
      if (sent.ok()) {
        co_return;
      }
      egress_retransmit_counter_->Increment();
    }
    FW_LOG(kWarning) << "fireworks: guest egress dropped after retransmit budget";
  };
  return ExecEnv(fs, &env_.db(), std::move(net_send), Duration::Micros(400));
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

  // ① Create a microVM ready for the runtime and boot it.
  fwobs::ScopedSpan create_span(tracer_, "install.create_vm", "install");
  MicroVm* vm = co_await hv_.CreateMicroVm("fw-install-" + fn.name, config_.vm_config);
  create_span.End();
  fwobs::ScopedSpan boot_span(tracer_, "install.boot", "install");
  Status booted = co_await hv_.BootGuestOs(*vm);
  if (!booted.ok()) {
    FW_CHECK(hv_.Destroy(*vm).ok());
    co_return booted;
  }
  boot_span.End();

  // Network wiring for the install VM (the snapshot request needs egress).
  fwobs::ScopedSpan netns_span(tracer_, "install.netns", "install");
  auto wired = co_await WireNetwork();
  if (!wired.ok()) {
    FW_CHECK(hv_.Destroy(*vm).ok());
    co_return wired.status();
  }
  const auto [netns_id, external_ip] = *wired;
  vm->set_netns_id(netns_id);
  vm->set_tap_name(kGuestTapName);
  netns_span.End();

  // ③ Launch the runtime and load the annotated function.
  fwobs::ScopedSpan load_span(tracer_, "install.load", "install");
  auto fs = std::make_unique<fwstore::Filesystem>(env_.sim(), env_.disk(),
                                                  fwstore::FsKind::kVirtio);
  GuestProcess process(env_.sim(), record.annotated->language, vm->address_space(),
                       MakeGuestEnv(fs.get(), netns_id, kGuestIp), ChargerFor(vm));
  // One virtio-rng read at runtime start seeds the guest RNG (DESIGN.md §15).
  process.set_boot_entropy(hv_.DrawGuestEntropy());
  co_await process.InstallPackages(*record.annotated);
  co_await process.BootRuntime();
  co_await process.LoadApplication(*record.annotated);
  load_span.End();

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
  auto image = co_await hv_.CreateSnapshot(*vm, "fw-" + fn.name);
  if (!image.ok()) {
    // Persisting the snapshot failed: release the install VM and its network
    // wiring before surfacing the error.
    FW_CHECK(hv_.Destroy(*vm).ok());
    FW_CHECK(env_.network().DestroyNamespace(netns_id).ok());
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
  FW_CHECK(hv_.Destroy(*vm).ok());
  FW_CHECK(env_.network().DestroyNamespace(netns_id).ok());

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

fwsim::Co<Result<InvocationResult>> FireworksPlatform::Invoke(const std::string& fn_name,
                                                              const std::string& args,
                                                              const InvokeOptions& options) {
  auto it = installed_.find(fn_name);
  if (it == installed_.end()) {
    co_return Status::NotFound("function " + fn_name + " is not installed");
  }
  const InstalledFunction& fn = it->second;
  InvocationResult result;
  result.cold = false;  // Fireworks has no cold/warm distinction (§5.1).
  const SimTime t0 = env_.sim().Now();
  const SimTime deadline =
      t0 + (options.deadline.nanos() > 0 ? options.deadline : config_.invoke_timeout);
  // The invoke children are contiguous windows: each child ends exactly where
  // the next begins, so their durations sum to the root span's (= total).
  fwobs::ScopedSpan root(tracer_, "fireworks.invoke", "invoke");
  root.SetAttribute("function", fn_name);

  // Controller processing (Fig 1); paid once, not per attempt.
  fwobs::ScopedSpan frontend_span(tracer_, "invoke.frontend", "invoke");
  co_await fwsim::Delay(env_.sim(), config_.controller_cost);
  frontend_span.End();
  const SimTime t_frontend_done = env_.sim().Now();

  Status last_error = Status::Ok();
  for (int attempt = 1; attempt <= config_.max_invoke_attempts; ++attempt) {
    result.attempts = attempt;
    auto instance = std::make_unique<Instance>();
    AttemptTimes times;
    // installed_ is a node-based map and no code path erases entries, so the
    // fn reference stays valid across suspensions.
    Status attempted = co_await InvokeAttempt(fn, fn_name, args, options, *instance,  // fwlint:allow(iterator-invalidation)
                                              times, result);
    if (attempted.ok()) {
      // On attempt 1, times.attempt_start == t_frontend_done, making startup
      // exactly (net_done - t0) + (restored - params_queued) — the original
      // single-shot formula. Retries land their dead time in `others`, so
      // startup + exec + others == total holds on every path.
      result.startup = (t_frontend_done - t0) + (times.net_done - times.attempt_start) +
                       (times.restored - times.params_queued);
      result.exec = times.exec_done - times.params_read;
      result.total = times.done - t0;
      result.others = result.total - result.startup - result.exec;
      // Close the root at t_done, before any keep-instance steady-state work,
      // so the root span covers exactly the measured invocation.
      root.End();
      result.root_span = root.get();

      if (config_.record_working_set && fn.image != nullptr &&
          !fn.image->has_working_set() && instance->vm != nullptr) {
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
              config_.guest_os_steady_touch_fraction, config_.guest_os_steady_dirty_fraction,
              5000 + fc_id, 6000 + fc_id);
          faults += space.DirtyRandomFraction(space.SegmentByName(fwlang::kSegRuntimeHeap),
                                              config_.steady_runtime_heap_dirty_fraction,
                                              7000 + fc_id);
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

    if (attempt < config_.max_invoke_attempts) {
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
  const uint64_t prof_token =
      profiler.enabled() ? profiler.EnterDetached(profiler.RegisterScope("fw.guest_reseed")) : 0;
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
                                    config_.guest_os_resume_touch_fraction,
                                    config_.guest_os_resume_dirty_fraction,
                                    1000 + instance.fc_id, 2000 + instance.fc_id);
}

fwsim::Co<Status> FireworksPlatform::InvokeAttempt(const InstalledFunction& fn,
                                                   const std::string& fn_name,
                                                   const std::string& args,
                                                   const InvokeOptions& options,
                                                   Instance& instance, AttemptTimes& times,
                                                   InvocationResult& result) {
  times.attempt_start = env_.sim().Now();
  instance.fn = &fn;

  // Per-clone network namespace (§3.5).
  fwobs::ScopedSpan netns_span(tracer_, "invoke.netns", "invoke");
  auto wired = co_await WireNetwork();
  if (!wired.ok()) {
    co_return wired.status();
  }
  const auto [netns_id, external_ip] = *wired;
  instance.netns_id = netns_id;
  instance.external_ip = external_ip;
  netns_span.End();
  times.net_done = env_.sim().Now();

  // §3.6: put the arguments into the instance's Kafka topic *before* resume.
  fwobs::ScopedSpan produce_span(tracer_, "invoke.params.produce", "invoke");
  const uint64_t fc_id = next_fc_id_++;
  instance.fc_id = fc_id;
  const std::string topic = fwbase::StrFormat("topic%llu", static_cast<unsigned long long>(fc_id));
  Status topic_status = env_.broker().CreateTopic(topic);
  if (!topic_status.ok()) {
    co_return topic_status;
  }
  instance.topic = topic;
  auto produced = co_await env_.broker().Produce(topic, 0, fwbus::Record("args", args));
  if (!produced.ok()) {
    co_return produced.status();
  }
  produce_span.End();
  times.params_queued = env_.sim().Now();

  // ⑥ Restore the post-JIT snapshot into a fresh microVM.
  fwobs::ScopedSpan restore_span(tracer_, "invoke.restore", "invoke");
  auto restored = co_await hv_.RestoreMicroVm(fn.snapshot_name,
                                              fwbase::StrFormat("fw-%s-%llu", fn_name.c_str(),
                                                                static_cast<unsigned long long>(
                                                                    fc_id)));
  if (!restored.ok()) {
    co_return restored.status();
  }
  MicroVm* vm = *restored;
  instance.vm = vm;
  vm->set_netns_id(netns_id);
  vm->set_tap_name(kGuestTapName);
  vm->SetMetadata("fcID", std::to_string(fc_id));
  vm->SetMetadata("topic", topic);

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
  // identity (DESIGN.md §15).
  instance.fs = std::make_unique<fwstore::Filesystem>(env_.sim(), env_.disk(),
                                                      fwstore::FsKind::kVirtio);
  instance.process = GuestProcess::FromState(fn.process_state, env_.sim(),
                                             vm->address_space(),
                                             MakeGuestEnv(instance.fs.get(), netns_id,
                                                          kGuestIp),
                                             ChargerFor(vm));
  instance.process->set_mem_salt(fc_id);
  if (config_.restore_uniqueness) {
    co_await RestoreUniqueness(*instance.process, *vm);
  }
  restore_span.End();
  times.restored = env_.sim().Now();
  fwobs::ScopedSpan consume_span(tracer_, "invoke.params.consume", "invoke");

  // The resumed guest identifies itself via MMDS and fetches its parameters.
  auto fc_id_value = co_await hv_.GuestReadMmds(*vm, "fcID");
  FW_CHECK(fc_id_value.ok());
  // Bounded wait: a dropped args record must surface as kDeadlineExceeded,
  // not a hang. With the record already present (the normal case) the timing
  // is identical to the unbounded ConsumeLast.
  auto params = co_await env_.broker().ConsumeLastWithTimeout(topic, 0,
                                                              config_.params_consume_timeout);
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
  auto sent = co_await env_.network().SendOutbound(netns_id, kGuestIp, 579);
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
  instance->fn = &fn;

  auto wired = co_await WireNetwork();
  if (!wired.ok()) {
    co_return wired.status();
  }
  const auto [netns_id, external_ip] = *wired;
  instance->netns_id = netns_id;
  instance->external_ip = external_ip;

  const uint64_t fc_id = next_fc_id_++;
  instance->fc_id = fc_id;
  const std::string topic =
      fwbase::StrFormat("topic%llu", static_cast<unsigned long long>(fc_id));
  Status topic_status = env_.broker().CreateTopic(topic);
  if (!topic_status.ok()) {
    Teardown(*instance);
    co_return topic_status;
  }
  instance->topic = topic;

  // installed_ is a node-based map and no code path erases entries, so the
  // fn reference stays valid across suspensions.
  auto restored = co_await hv_.RestoreMicroVm(
      fn.snapshot_name,  // fwlint:allow(iterator-invalidation)
      fwbase::StrFormat("fw-%s-%llu", fn_name.c_str(),
                        static_cast<unsigned long long>(fc_id)));
  if (!restored.ok()) {
    Teardown(*instance);
    co_return restored.status();
  }
  MicroVm* vm = *restored;
  instance->vm = vm;
  vm->set_netns_id(netns_id);
  vm->set_tap_name(kGuestTapName);
  vm->SetMetadata("fcID", std::to_string(fc_id));
  vm->SetMetadata("topic", topic);

  if (config_.prefetch_on_restore && !fn.image->cache_warm()) {
    // With a recorded working set, prefetch only the pages a first invocation
    // actually touched; otherwise fall back to reading the whole file.
    const uint64_t prefetch_bytes = fn.image->has_working_set()
                                        ? fn.image->working_set_bytes()
                                        : fn.image->file_bytes();
    co_await hv_.PrefetchWorkingSet(*fn.image, prefetch_bytes);
  }

  // Post-resume guest-kernel activity, identical to the invoke path.
  const fwmem::FaultCounts resume_faults = GuestResumeFaults(*instance);
  co_await hv_.ServiceFaults(*vm, resume_faults);

  instance->fs = std::make_unique<fwstore::Filesystem>(env_.sim(), env_.disk(),
                                                       fwstore::FsKind::kVirtio);
  instance->process = GuestProcess::FromState(fn.process_state, env_.sim(),
                                              vm->address_space(),
                                              MakeGuestEnv(instance->fs.get(), netns_id,
                                                           kGuestIp),
                                              ChargerFor(vm));
  instance->process->set_mem_salt(fc_id);
  if (config_.restore_uniqueness) {
    // Reseed before parking: a parked clone is one Produce away from user
    // traffic, so its identity must already be unique when it enters the
    // pool. A crash between restore and this completing leaves the clone's
    // observed generation stale — InvokeOnClone refuses to admit it.
    co_await RestoreUniqueness(*instance->process, *vm);
  }
  auto fc_id_value = co_await hv_.GuestReadMmds(*vm, "fcID");
  FW_CHECK(fc_id_value.ok());

  prepared_counter_->Increment();
  pool_[fn_name].push_back(std::move(instance));
  co_return fc_id;
}

fwsim::Co<Result<InvocationResult>> FireworksPlatform::InvokeOnClone(
    const std::string& fn_name, const std::string& args, const InvokeOptions& options) {
  auto pit = pool_.find(fn_name);
  if (pit == pool_.end() || pit->second.empty()) {
    co_return Status::FailedPrecondition("no parked clone for " + fn_name);
  }
  std::unique_ptr<Instance> instance = std::move(pit->second.front());
  pit->second.pop_front();
  if (pit->second.empty()) {
    pool_.erase(pit);
  }
  const InstalledFunction& fn = *instance->fn;
  if (config_.restore_uniqueness &&
      instance->process->observed_generation() != instance->vm->generation()) {
    // The clone's resume protocol never completed (e.g. a crash between
    // restore and reseed-acknowledge): it still carries snapshot-duplicated
    // identity and must not serve user traffic. Discard it; the caller falls
    // back to the full invoke path, which restores a fresh, reseeded clone.
    stale_clone_counter_->Increment();
    Teardown(*instance);
    co_return Status::FailedPrecondition("parked clone for " + fn_name +
                                         " has a stale VM generation");
  }
  InvocationResult result;
  result.cold = false;
  const SimTime t0 = env_.sim().Now();
  fwobs::ScopedSpan root(tracer_, "fireworks.invoke_warm", "invoke");
  root.SetAttribute("function", fn_name);

  fwobs::ScopedSpan frontend_span(tracer_, "invoke.frontend", "invoke");
  co_await fwsim::Delay(env_.sim(), config_.controller_cost);
  frontend_span.End();

  // Produce the arguments; the parked guest is already blocked on the topic.
  fwobs::ScopedSpan produce_span(tracer_, "invoke.params.produce", "invoke");
  auto produced = co_await env_.broker().Produce(instance->topic, 0,
                                                 fwbus::Record("args", args));
  if (!produced.ok()) {
    Teardown(*instance);
    co_return produced.status();
  }
  produce_span.End();

  fwobs::ScopedSpan consume_span(tracer_, "invoke.params.consume", "invoke");
  auto params = co_await env_.broker().ConsumeLastWithTimeout(instance->topic, 0,
                                                              config_.params_consume_timeout);
  if (!params.ok()) {
    Teardown(*instance);
    co_return params.status();
  }
  consume_span.End();
  const SimTime t_params_read = env_.sim().Now();

  if (env_.fault_injector().Trip(fwfault::FaultKind::kVmCrashDuringExec)) {
    Teardown(*instance);
    co_return Status::Unavailable("guest VM crashed executing " + fn_name);
  }
  fwobs::ScopedSpan exec_span(tracer_, "invoke.exec", "invoke");
  result.exec_stats =
      co_await instance->process->CallMethod(fn.annotated->entry_method, options.type_sig);
  exec_span.End();
  const SimTime t_exec_done = env_.sim().Now();

  fwobs::ScopedSpan response_span(tracer_, "invoke.response", "invoke");
  auto sent = co_await env_.network().SendOutbound(instance->netns_id, kGuestIp, 579);
  if (!sent.ok()) {
    Teardown(*instance);
    co_return sent.status();
  }
  response_span.End();
  const SimTime t_done = env_.sim().Now();

  // Startup spans request arrival → function entry, as on the snapshot path;
  // the restore itself happened off-path at PrepareClone time.
  result.startup = t_params_read - t0;
  result.exec = t_exec_done - t_params_read;
  result.total = t_done - t0;
  result.others = result.total - result.startup - result.exec;
  root.End();
  result.root_span = root.get();
  invoked_counter_->Increment();

  if (options.keep_instance) {
    instances_.push_back(std::move(instance));
  } else {
    Teardown(*instance);
  }
  co_return result;
}

Status FireworksPlatform::DiscardClone(const std::string& fn_name) {
  auto pit = pool_.find(fn_name);
  if (pit == pool_.end() || pit->second.empty()) {
    return Status::NotFound("no parked clone for " + fn_name);
  }
  std::unique_ptr<Instance> instance = std::move(pit->second.front());
  pit->second.pop_front();
  if (pit->second.empty()) {
    pool_.erase(pit);
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

double FireworksPlatform::PooledPssBytes() const {
  double total = 0.0;
  for (const auto& [name, clones] : pool_) {
    for (const auto& instance : clones) {
      if (instance->vm != nullptr) {
        total += instance->vm->address_space().pss_bytes();
      }
    }
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
  fwobs::ScopedSpan boot_span(tracer_, "invoke.coldboot.boot", "invoke");
  MicroVm* vm = co_await hv_.CreateMicroVm("fw-coldboot-" + fn_name, config_.vm_config);
  Status booted = co_await hv_.BootGuestOs(*vm);
  if (!booted.ok()) {
    FW_CHECK(hv_.Destroy(*vm).ok());
    co_return booted;
  }
  auto wired = co_await WireNetwork();
  if (!wired.ok()) {
    FW_CHECK(hv_.Destroy(*vm).ok());
    co_return wired.status();
  }
  const auto [netns_id, external_ip] = *wired;
  (void)external_ip;
  vm->set_netns_id(netns_id);
  vm->set_tap_name(kGuestTapName);
  auto fs = std::make_unique<fwstore::Filesystem>(env_.sim(), env_.disk(),
                                                  fwstore::FsKind::kVirtio);
  GuestProcess process(env_.sim(), fn.annotated->language, vm->address_space(),
                       MakeGuestEnv(fs.get(), netns_id, kGuestIp), ChargerFor(vm));
  // A cold boot is a fresh guest: it reads fresh boot entropy rather than
  // inheriting a snapshot's identity (DESIGN.md §15).
  process.set_boot_entropy(hv_.DrawGuestEntropy());
  co_await process.InstallPackages(*fn.annotated);
  co_await process.BootRuntime();
  co_await process.LoadApplication(*fn.annotated);
  boot_span.End();
  const SimTime t_ready = env_.sim().Now();

  fwobs::ScopedSpan exec_span(tracer_, "invoke.coldboot.exec", "invoke");
  result.exec_stats = co_await process.CallMethod(fn.annotated->entry_method, options.type_sig);
  exec_span.End();
  const SimTime t_exec_done = env_.sim().Now();

  fwobs::ScopedSpan response_span(tracer_, "invoke.coldboot.response", "invoke");
  auto sent = co_await env_.network().SendOutbound(netns_id, kGuestIp, 579);
  response_span.End();
  FW_CHECK(hv_.Destroy(*vm).ok());
  (void)env_.network().DestroyNamespace(netns_id);
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
    (void)env_.network().DestroyNamespace(instance.netns_id);
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
  double total = 0.0;
  for (const auto& instance : instances_) {
    if (instance->vm != nullptr) {
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
  MicroVm* vm = *restored;
  auto& space = vm->address_space();
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
  co_await hv_.ServiceFaults(*vm, faults);
  co_await fwsim::Delay(env_.sim(), Duration::Millis(3));  // In-guest reseeding.

  const std::string new_name =
      fwbase::StrFormat("fw-%s-v%d", fn_name.c_str(), fn.version + 1);
  auto image = co_await hv_.CreateSnapshot(*vm, new_name);
  if (!image.ok()) {
    FW_CHECK(hv_.Destroy(*vm).ok());
    co_return image.status();
  }
  FW_CHECK(hv_.Destroy(*vm).ok());

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
