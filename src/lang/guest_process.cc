#include "src/lang/guest_process.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/base/check.h"
#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/base/strings.h"

namespace fwlang {

using fwbase::Duration;
using fwbase::kKiB;
using fwbase::PagesFor;

ExecStats& ExecStats::operator+=(const ExecStats& o) {
  total += o.total;
  compute_time += o.compute_time;
  io_time += o.io_time;
  jit_compile_time += o.jit_compile_time;
  fault_time += o.fault_time;
  jit_compiles += o.jit_compiles;
  deopts += o.deopts;
  methods_executed += o.methods_executed;
  return *this;
}

GuestProcess::GuestProcess(fwsim::Simulation& sim, Language language,
                           fwmem::AddressSpace& space, ExecEnv env, FaultCharger fault_charger,
                           double compute_scale)
    : sim_(sim),
      language_(language),
      costs_(RuntimeCosts::For(language)),
      space_(space),
      env_(std::move(env)),
      fault_charger_(std::move(fault_charger)),
      compute_scale_(compute_scale) {
  FW_CHECK(fault_charger_ != nullptr);
  FW_CHECK(compute_scale_ >= 1.0);
  resume_anchor_ = sim_.Now();
}

// --- Guest identity (DESIGN.md §15) -----------------------------------------

void GuestProcess::SeedIdentity(uint64_t entropy) {
  uint64_t seq = entropy;
  for (uint64_t& s : identity_.rng_state) {
    s = fwbase::SplitMix64(seq);
  }
  identity_.monotonic_base_ns = 0;
  identity_.next_request_id = 1;
  identity_.valid = true;
  resume_anchor_ = sim_.Now();
  SyncIdentity();
}

void GuestProcess::SyncIdentity() {
  fwmem::GuestIdentityRecord record = identity_;
  // Materialise the clock so a snapshot taken after this point captures the
  // guest monotonic reading "as of now"; a clone resumes counting from it.
  record.monotonic_base_ns = GuestMonotonicNanos();
  space_.set_guest_identity(record);
}

uint64_t GuestProcess::GuestRandomU64() {
  const uint64_t value = fwbase::Xoshiro256StarStar(identity_.rng_state);
  SyncIdentity();
  return value;
}

uint64_t GuestProcess::NextRequestId() {
  const uint64_t serial = identity_.next_request_id++;
  // Serial mixed with an RNG draw — the UUIDv4-ish shape real runtimes use.
  // Both halves are snapshot state, so sibling clones mint identical ids.
  const uint64_t id =
      fwbase::Xoshiro256StarStar(identity_.rng_state) ^ (serial * 0x9E3779B97F4A7C15ULL);
  SyncIdentity();
  return id;
}

int64_t GuestProcess::GuestMonotonicNanos() const {
  return identity_.monotonic_base_ns + (sim_.Now() - resume_anchor_).nanos();
}

fwsim::Co<void> GuestProcess::ReseedFromHostEntropy(uint64_t generation, uint64_t host_entropy) {
  if (identity_.valid && generation <= identity_.observed_generation) {
    co_return;  // Duplicate delivery (retried restore): already reseeded.
  }
  co_await fwsim::Delay(sim_, costs_.vmgenid_reseed_cost);
  uint64_t seq = host_entropy ^ (generation * 0x9E3779B97F4A7C15ULL);
  for (uint64_t& s : identity_.rng_state) {
    s ^= fwbase::SplitMix64(seq);
  }
  identity_.valid = true;
  SyncIdentity();
}

fwsim::Co<void> GuestProcess::RebaseMonotonicClock(uint64_t generation) {
  if (identity_.valid && generation <= identity_.observed_generation) {
    co_return;
  }
  co_await fwsim::Delay(sim_, costs_.clock_rebase_cost);
  // Rebase onto the host timeline: clones reseeded at different host times
  // stop sharing timestamps. Acknowledging the generation is the *last* step,
  // so a crash mid-protocol leaves observed_generation() stale and admission
  // guards keep the half-reseeded clone away from user traffic.
  identity_.monotonic_base_ns = sim_.Now().nanos();
  resume_anchor_ = sim_.Now();
  identity_.observed_generation = generation;
  SyncIdentity();
}

fwmem::SegmentId GuestProcess::EnsureSegment(const char* seg_name, uint64_t bytes) {
  const fwmem::SegmentId seg = space_.FindSegment(seg_name);
  return seg != fwmem::kNoSegment ? seg : space_.AddSegment(seg_name, bytes);
}

void GuestProcess::ResolveSegments() {
  text_seg_ = space_.FindSegment(kSegRuntimeText);
  heap_seg_ = space_.FindSegment(kSegRuntimeHeap);
  bytecode_seg_ = space_.FindSegment(kSegBytecode);
  app_heap_seg_ = space_.FindSegment(kSegAppHeap);
  jit_seg_ = space_.FindSegment(kSegJitCode);
}

fwsim::DelayAwaiter GuestProcess::ChargeFaults(const fwmem::FaultCounts& faults,
                                               ExecStats& stats) {
  const Duration t = fault_charger_(faults);
  stats.fault_time += t;
  return fwsim::Delay(sim_, t);
}

fwsim::Co<void> GuestProcess::InstallPackages(const FunctionSource& fn) {
  if (fn.package_bytes == 0) {
    co_return;
  }
  const double mib = static_cast<double>(fn.package_bytes) / static_cast<double>(fwbase::kMiB);
  co_await fwsim::Delay(sim_, costs_.package_install_cost_per_mib * mib);
  if (env_.fs != nullptr) {
    co_await env_.fs->WriteFile(fn.package_bytes);
  }
}

fwsim::Co<void> GuestProcess::BootRuntime() {
  FW_CHECK_MSG(!runtime_booted_, "runtime already booted");
  ExecStats stats;
  text_seg_ = EnsureSegment(kSegRuntimeText, costs_.runtime_text_bytes);
  // Binary text is read: shared when the sandbox has a base image containing
  // it (containers), private fresh content otherwise (cold microVMs).
  fwmem::FaultCounts faults = space_.TouchBytes(text_seg_, costs_.runtime_text_bytes);
  co_await fwsim::Delay(sim_, costs_.runtime_boot_cost);
  heap_seg_ = EnsureSegment(kSegRuntimeHeap, costs_.runtime_boot_heap_bytes);
  faults += space_.DirtyBytes(heap_seg_, costs_.runtime_boot_heap_bytes);
  co_await ChargeFaults(faults, stats);
  runtime_booted_ = true;
  // The runtime seeds its PRNG once at boot (getrandom at startup): from here
  // on the stream is guest memory, captured by any snapshot.
  SeedIdentity(boot_entropy_);
}

fwsim::Co<void> GuestProcess::AttachRuntime() {
  FW_CHECK_MSG(!runtime_booted_, "runtime already booted");
  ExecStats stats;
  text_seg_ = EnsureSegment(kSegRuntimeText, costs_.runtime_text_bytes);
  fwmem::FaultCounts faults = space_.TouchBytes(text_seg_, costs_.runtime_text_bytes);
  // Isolate context creation is measured in hundreds of microseconds.
  co_await fwsim::Delay(sim_, Duration::Micros(900));
  heap_seg_ = EnsureSegment(kSegRuntimeHeap, costs_.runtime_boot_heap_bytes);
  // A fresh isolate only needs a sliver of heap.
  faults += space_.DirtyBytes(heap_seg_, 2 * fwbase::kMiB);
  co_await ChargeFaults(faults, stats);
  runtime_booted_ = true;
  SeedIdentity(boot_entropy_);
}

fwsim::Co<void> GuestProcess::LoadApplication(const FunctionSource& fn) {
  FW_CHECK_MSG(runtime_booted_, "LoadApplication requires a booted runtime");
  FW_CHECK_MSG(loaded_fn_ == nullptr, "an application is already loaded");
  ExecStats stats;
  const double code_kib = static_cast<double>(fn.TotalCodeBytes()) / static_cast<double>(kKiB);
  co_await fwsim::Delay(sim_, costs_.app_load_fixed_cost + costs_.app_load_cost_per_kib * code_kib);
  bytecode_bytes_used_ =
      static_cast<uint64_t>(code_kib * static_cast<double>(costs_.bytecode_bytes_per_code_kib));
  bytecode_seg_ =
      EnsureSegment(kSegBytecode, std::max<uint64_t>(bytecode_bytes_used_, fwbase::kPageSize));
  fwmem::FaultCounts faults = space_.DirtyBytes(bytecode_seg_, bytecode_bytes_used_);
  app_heap_seg_ = EnsureSegment(kSegAppHeap, costs_.app_heap_capacity_bytes);
  co_await ChargeFaults(faults, stats);
  loaded_fn_ = &fn;
  methods_.assign(fn.methods.size(), MethodState());
  auto call_targets = std::make_shared<std::vector<std::vector<uint32_t>>>();
  call_targets->reserve(fn.methods.size());
  for (const MethodDef& method : fn.methods) {
    std::vector<uint32_t>& targets = call_targets->emplace_back(method.ops.size(), kNoMethod);
    for (size_t i = 0; i < method.ops.size(); ++i) {
      const MethodDef* callee = method.ops[i].kind == OpKind::kCall
                                    ? fn.FindMethod(method.ops[i].target)
                                    : nullptr;
      if (callee != nullptr) {
        targets[i] = IndexOf(*callee);
      }
    }
  }
  call_targets_ = std::move(call_targets);
}

uint32_t GuestProcess::IndexOf(const MethodDef& method) const {
  const auto index = static_cast<size_t>(&method - loaded_fn_->methods.data());
  FW_CHECK(index < loaded_fn_->methods.size());
  return static_cast<uint32_t>(index);
}

const GuestProcess::MethodState* GuestProcess::StateOf(const std::string& method_name) const {
  const MethodDef* method = loaded_fn_ == nullptr ? nullptr : loaded_fn_->FindMethod(method_name);
  return method == nullptr ? nullptr : &methods_[IndexOf(*method)];
}

fwsim::Co<void> GuestProcess::JitCompile(const MethodDef& method, MethodState& state,
                                         const std::string& type_sig, bool reoptimize,
                                         ExecStats& stats) {
  const double code_kib = static_cast<double>(method.code_bytes) / static_cast<double>(kKiB);
  const Duration compile =
      costs_.jit_compile_per_kib * code_kib * (reoptimize ? kReoptCostFraction : 1.0);
  stats.jit_compile_time += compile;
  ++stats.jit_compiles;
  // Single vCPU: the compile stalls execution (§1).
  co_await fwsim::Delay(sim_, compile);

  const uint64_t jit_bytes =
      static_cast<uint64_t>(code_kib * static_cast<double>(costs_.jit_code_bytes_per_code_kib));
  FW_CHECK(loaded_fn_ != nullptr);
  if (jit_seg_ == fwmem::kNoSegment) {
    const uint64_t capacity_bytes = std::max<uint64_t>(
        static_cast<uint64_t>(static_cast<double>(loaded_fn_->TotalCodeBytes()) /
                              static_cast<double>(kKiB) *
                              static_cast<double>(costs_.jit_code_bytes_per_code_kib)) *
            2,
        fwbase::kPageSize);
    jit_seg_ = EnsureSegment(kSegJitCode, capacity_bytes);
  }
  if (state.compiles == 0) {
    // First compile of this method: allocate fresh code pages.
    state.jit_offset_page = jit_alloc_cursor_pages_;
    state.jit_pages = PagesFor(jit_bytes);
    FW_CHECK_MSG(state.jit_offset_page + state.jit_pages <= space_.SegmentPages(jit_seg_),
                 "JIT code cache exhausted");
    jit_alloc_cursor_pages_ += state.jit_pages;
    jit_code_bytes_used_ += jit_bytes;
  }
  // (Re-)compilation writes the method's code pages.
  fwmem::FaultCounts faults = space_.Dirty(jit_seg_, state.jit_offset_page, state.jit_pages);
  co_await ChargeFaults(faults, stats);
  ++state.compiles;
  state.tier = ExecTier::kJit;
  state.compiled_sig = type_sig;
}

fwsim::Co<ExecStats> GuestProcess::CallMethod(const std::string& method_name,
                                              const std::string& type_sig) {
  FW_CHECK_MSG(loaded_fn_ != nullptr, "no application loaded");
  const MethodDef* method = loaded_fn_->FindMethod(method_name);
  FW_CHECK_MSG(method != nullptr, ("no method " + method_name).c_str());

  const fwbase::SimTime t0 = sim_.Now();
  ++invocation_serial_;

  // Guest-identity probes: the id, first RNG draw and monotonic timestamp
  // this invocation observes, drawn before any other work — two clones
  // resumed from one snapshot read them from byte-identical state, so equal
  // values here are the uniqueness violation the detector tests assert on.
  const uint64_t request_id = NextRequestId();
  const uint64_t first_random = GuestRandomU64();
  const int64_t entry_monotonic_ns = GuestMonotonicNanos();

  // Numba's per-module duplication: the first execution in a resumed clone
  // relocates/duplicates part of the JIT code cache, dirtying those pages.
  if (pending_clone_jit_relocation_) {
    pending_clone_jit_relocation_ = false;
    if (jit_code_bytes_used_ > 0 && costs_.jit_code_shareable_fraction < 1.0) {
      const uint64_t used_pages = PagesFor(jit_code_bytes_used_);
      const auto dirty_pages = static_cast<uint64_t>(
          static_cast<double>(used_pages) * (1.0 - costs_.jit_code_shareable_fraction) + 0.5);
      ExecStats reloc_stats;
      co_await ChargeFaults(space_.Dirty(jit_seg_, 0, std::min(dirty_pages, used_pages)),
                            reloc_stats);
    }
  }

  // Executing makes the runtime's own working set resident: reads of the
  // binary text and the live heap. The salt is a program-wide constant so
  // every clone touches the *same* hot pages — that is what snapshot clones
  // share (Fig 4).
  {
    ExecStats ws_stats;
    fwmem::FaultCounts faults;
    faults += space_.TouchRandomFraction(text_seg_, costs_.runtime_text_exec_touch_fraction,
                                         /*salt=*/42);
    faults += space_.TouchRandomFraction(heap_seg_, costs_.runtime_heap_exec_touch_fraction,
                                         /*salt=*/43);
    co_await ChargeFaults(faults, ws_stats);
  }

  ExecStats stats = co_await ExecMethod(IndexOf(*method), type_sig);

  // Per-invocation GC / cache churn in the runtime heap: writes that diverge
  // per sandbox (hence the per-sandbox salt).
  co_await ChargeFaults(
      space_.DirtyRandomFraction(heap_seg_, costs_.runtime_heap_exec_dirty_fraction,
                                 /*salt=*/mem_salt_ * 7919 + 13),
      stats);

  stats.total = sim_.Now() - t0;
  // Assigned (not +=-accumulated): the outermost call's observables survive
  // the sub-call merges above.
  stats.request_id = request_id;
  stats.first_random = first_random;
  stats.guest_monotonic_ns = entry_monotonic_ns;
  co_return stats;
}

fwsim::Co<ExecStats> GuestProcess::ExecMethod(uint32_t root, const std::string& type_sig) {
  // Each call runs on this stack instead of in a coroutine of its own. Like
  // awaiting a child Co, entering or leaving a call schedules no event, so
  // every Delay keeps its instant and its place in the event order
  // (DESIGN.md §3, "Suspensions"). Four frames hold every shipped app's
  // nesting in one allocation.
  std::vector<Frame> stack;
  stack.reserve(4);
  uint32_t entering = root;
  for (;;) {
    if (entering != kNoMethod) {
      FW_CHECK_MSG(stack.size() < kMaxCallDepth, "method call depth exceeded");
      Frame frame(loaded_fn_->methods[entering], entering);
      entering = kNoMethod;
      const MethodDef& method = *frame.method;
      ++frame.stats.methods_executed;
      MethodState& state = methods_[frame.index];
      ++state.invocations;

      // --- Tiering / de-optimisation decisions ------------------------------
      if (state.tier == ExecTier::kJit && !state.polymorphic && state.compiled_sig != type_sig) {
        // The JITted code was specialised for a different type profile (§6):
        // de-optimise to bytecode, then respecialise for the new signature.
        // After enough distinct shapes, inline caches make the code
        // polymorphic and further signatures stop deopting.
        ++frame.stats.deopts;
        ++state.deopts;
        co_await fwsim::Delay(sim_, costs_.deopt_cost);
        // methods_ is sized once when the application loads and never
        // resized, so references into it survive every suspension.
        state.tier = ExecTier::kInterpreter;  // fwlint:allow(iterator-invalidation)
        if (state.deopts >= kPolymorphicThreshold) {
          state.polymorphic = true;
        }
        if (method.jit_annotated) {
          // Annotated (Numba-style) methods respecialise for the new signature
          // immediately; V8 re-optimises hot methods just as eagerly.
          co_await JitCompile(method, state, type_sig, /*reoptimize=*/true, frame.stats);
        } else {
          state.invocations = 0;  // Re-profile before tiering up again.
        }
      } else if (state.tier == ExecTier::kInterpreter) {
        const bool annotated_first_call = method.jit_annotated && state.compiles == 0;
        const bool hot = costs_.auto_jit &&
                         state.invocations >= static_cast<uint64_t>(costs_.hotness_threshold);
        if (annotated_first_call || hot) {
          co_await JitCompile(method, state, type_sig, /*reoptimize=*/state.compiles > 0,
                              frame.stats);
        }
      }

      // Executing code touches its pages: bytecode when interpreting, machine
      // code when running JITted (shared on snapshot clones until written).
      fwmem::FaultCounts faults;
      if (state.tier == ExecTier::kJit) {
        faults += space_.Touch(jit_seg_, state.jit_offset_page, state.jit_pages);
      } else if (bytecode_bytes_used_ > 0) {
        faults += space_.TouchBytes(bytecode_seg_, bytecode_bytes_used_);
      }
      co_await ChargeFaults(faults, frame.stats);

      frame.tier = state.tier;
      frame.jit_derate = state.polymorphic ? kPolymorphicDerate : 1.0;
      stack.push_back(frame);
    }

    Frame& f = stack.back();
    if (f.calls_left > 0) {
      --f.calls_left;
      entering = f.callee;
      continue;
    }
    if (f.next_op < f.method->ops.size()) {
      // The ops belong to the loaded FunctionSource, which nothing mutates
      // while the process runs, and each case reads `op` before its await.
      const Op& op = f.method->ops[f.next_op++];
      switch (op.kind) {
        case OpKind::kCall:
          f.callee = (*call_targets_)[f.index][f.next_op - 1];
          FW_CHECK_MSG(f.callee != kNoMethod, ("no method " + op.target).c_str());
          f.calls_left = op.repeat;
          break;
        case OpKind::kCompute:
          co_await ComputeTime(op, f.tier, f.jit_derate, f.stats);
          break;
        case OpKind::kAllocHeap:
          co_await AllocHeap(op.amount, f.stats);  // fwlint:allow(iterator-invalidation)
          break;
        case OpKind::kDiskRead:
        case OpKind::kDiskWrite:
        case OpKind::kNetSend:
        case OpKind::kDbPut:
        case OpKind::kDbGet:
        case OpKind::kDbScan:
          co_await ExecIoOp(op, f.stats);
          break;
      }
      continue;
    }
    // The method returned: its stats join its caller's.
    const ExecStats done = f.stats;
    stack.pop_back();
    if (stack.empty()) {
      co_return done;
    }
    stack.back().stats += done;
  }
}

fwsim::DelayAwaiter GuestProcess::ComputeTime(const Op& op, ExecTier tier, double jit_derate,
                                              ExecStats& stats) {
  Duration t = costs_.per_unit_interp * static_cast<int64_t>(op.amount * op.repeat);
  if (tier == ExecTier::kJit) {
    // Only the JIT-friendly fraction accelerates (numeric kernels); the rest
    // behaves interpreter-like (object/string plumbing). Polymorphic code
    // dispatches through inline caches (derate < 1).
    t = t * (op.friendliness / (costs_.jit_speedup * jit_derate) + (1.0 - op.friendliness));
  }
  t = t * compute_scale_;
  stats.compute_time += t;
  return fwsim::Delay(sim_, t);
}

fwsim::DelayAwaiter GuestProcess::AllocHeap(uint64_t bytes, ExecStats& stats) {
  const uint64_t seg_pages = space_.SegmentPages(app_heap_seg_);
  uint64_t pages = PagesFor(bytes);
  fwmem::FaultCounts faults;
  while (pages > 0) {
    if (heap_cursor_pages_ >= seg_pages) {
      heap_cursor_pages_ = 0;  // The GC recycles the heap.
    }
    const uint64_t chunk = std::min(pages, seg_pages - heap_cursor_pages_);
    faults += space_.Dirty(app_heap_seg_, heap_cursor_pages_, chunk);
    heap_cursor_pages_ += chunk;
    pages -= chunk;
  }
  return ChargeFaults(faults, stats);
}

fwsim::Co<void> GuestProcess::ExecIoOp(const Op& op, ExecStats& stats) {
  switch (op.kind) {
    case OpKind::kDiskRead:
    case OpKind::kDiskWrite: {
      FW_CHECK_MSG(env_.fs != nullptr, "disk op without a filesystem");
      const fwbase::SimTime t0 = sim_.Now();
      for (uint64_t i = 0; i < op.repeat; ++i) {
        if (op.kind == OpKind::kDiskRead) {
          co_await env_.fs->ReadFile(op.amount);
        } else {
          co_await env_.fs->WriteFile(op.amount);
        }
      }
      stats.io_time += sim_.Now() - t0;
      break;
    }
    case OpKind::kNetSend: {
      const fwbase::SimTime t0 = sim_.Now();
      if (env_.net_send != nullptr) {
        co_await env_.net_send(op.amount);
      } else {
        co_await fwsim::Delay(sim_, Duration::Micros(80));
      }
      stats.io_time += sim_.Now() - t0;
      break;
    }
    case OpKind::kDbPut: {
      FW_CHECK_MSG(env_.db != nullptr, "db op without a document db");
      const fwbase::SimTime t0 = sim_.Now();
      co_await fwsim::Delay(sim_, env_.db_network_rtt);
      const std::string key = fwbase::StrFormat("doc-%llu", static_cast<unsigned long long>(
                                                                invocation_serial_));
      fwbase::Status status = co_await env_.db->Put(
          op.target, fwstore::Document(key, std::string(op.amount, 'x')));
      FW_CHECK(status.ok());
      stats.io_time += sim_.Now() - t0;
      break;
    }
    case OpKind::kDbGet: {
      FW_CHECK_MSG(env_.db != nullptr, "db op without a document db");
      const fwbase::SimTime t0 = sim_.Now();
      co_await fwsim::Delay(sim_, env_.db_network_rtt);
      const auto parts = fwbase::StrSplit(op.target, '/');
      FW_CHECK(parts.size() == 2);
      // A miss is not an error for the workloads (e.g. empty reminder list).
      co_await env_.db->Get(parts[0], parts[1]);
      stats.io_time += sim_.Now() - t0;
      break;
    }
    case OpKind::kDbScan: {
      FW_CHECK_MSG(env_.db != nullptr, "db op without a document db");
      const fwbase::SimTime t0 = sim_.Now();
      co_await fwsim::Delay(sim_, env_.db_network_rtt);
      co_await env_.db->Scan(op.target);
      stats.io_time += sim_.Now() - t0;
      break;
    }
    default:
      FW_CHECK_MSG(false, "not an I/O op");
  }
}

GuestProcess::State GuestProcess::ExtractState() const {
  FW_CHECK_MSG(runtime_booted_, "cannot extract state from an unbooted process");
  State state;
  state.language = language_;
  state.loaded_fn = loaded_fn_;
  state.methods = methods_;
  state.call_targets = call_targets_;
  state.jit_code_bytes_used = jit_code_bytes_used_;
  state.bytecode_bytes_used = bytecode_bytes_used_;
  state.jit_alloc_cursor_pages = jit_alloc_cursor_pages_;
  return state;
}

std::unique_ptr<GuestProcess> GuestProcess::FromState(const State& state,
                                                      fwsim::Simulation& sim,
                                                      fwmem::AddressSpace& clone_space,
                                                      ExecEnv env, FaultCharger fault_charger,
                                                      double compute_scale) {
  auto clone = std::make_unique<GuestProcess>(sim, state.language, clone_space, std::move(env),
                                              std::move(fault_charger), compute_scale);
  clone->runtime_booted_ = true;
  clone->loaded_fn_ = state.loaded_fn;
  clone->methods_ = state.methods;
  clone->call_targets_ = state.call_targets;
  clone->jit_code_bytes_used_ = state.jit_code_bytes_used;
  clone->bytecode_bytes_used_ = state.bytecode_bytes_used;
  clone->jit_alloc_cursor_pages_ = state.jit_alloc_cursor_pages;
  clone->pending_clone_jit_relocation_ = state.jit_code_bytes_used > 0;
  clone->ResolveSegments();
  if (clone_space.guest_identity().valid) {
    // The modeled collision (DESIGN.md §15): the clone wakes with the exact
    // identity record the snapshot captured — same RNG position, same clock
    // base, same request-id counter as every sibling clone — until a
    // generation change reseeds it.
    clone->identity_ = clone_space.guest_identity();
  } else {
    // Restored into a space that never held an identity (synthetic test
    // spaces): behave like a boot.
    clone->SeedIdentity(clone->boot_entropy_);
  }
  return clone;
}

std::unique_ptr<GuestProcess> GuestProcess::CloneFor(fwmem::AddressSpace& clone_space,
                                                     FaultCharger fault_charger) const {
  auto clone = FromState(ExtractState(), sim_, clone_space, env_, std::move(fault_charger),
                         compute_scale_);
  clone->mem_salt_ = mem_salt_ + 1;
  return clone;
}

ExecTier GuestProcess::TierOf(const std::string& method_name) const {
  const MethodState* state = StateOf(method_name);
  return state == nullptr ? ExecTier::kInterpreter : state->tier;
}

uint64_t GuestProcess::InvocationCount(const std::string& method_name) const {
  const MethodState* state = StateOf(method_name);
  return state == nullptr ? 0 : state->invocations;
}

}  // namespace fwlang
