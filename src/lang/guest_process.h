// GuestProcess: one language-runtime instance executing a serverless function
// inside a sandbox.
//
// The process owns the runtime-managed segments of its sandbox's address
// space (runtime text/heap, bytecode, JIT code cache, app heap), tracks
// per-method JIT state (tier, specialised type signature, invocation counts),
// and converts operations of the function IR into simulated time and page
// accesses. Sandboxes are single-vCPU (§1: JIT compilation competes with
// execution), so everything — including JIT compilation stalls — is serial.
//
// Snapshot flow: the platform snapshots the sandbox after RunMethod(
// "__fireworks_jit"); resumed clones call CloneFor() to attach an identical
// process state (JITted methods included) to the clone's address space.
#ifndef FIREWORKS_SRC_LANG_GUEST_PROCESS_H_
#define FIREWORKS_SRC_LANG_GUEST_PROCESS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "src/base/status.h"
#include "src/lang/function_ir.h"
#include "src/lang/runtime_model.h"
#include "src/mem/address_space.h"
#include "src/simcore/simulation.h"
#include "src/storage/document_db.h"
#include "src/storage/filesystem.h"

namespace fwlang {

enum class ExecTier { kInterpreter, kJit };

// Where the process's I/O lands. `net_send` is provided by the platform and
// performs the sandbox's egress (NAT etc. included).
struct ExecEnv {
  ExecEnv() = default;
  ExecEnv(fwstore::Filesystem* fs, fwstore::DocumentDb* db,
          std::function<fwsim::Co<void>(uint64_t)> net_send, Duration db_network_rtt)
      : fs(fs), db(db), net_send(std::move(net_send)), db_network_rtt(db_network_rtt) {}

  fwstore::Filesystem* fs = nullptr;
  fwstore::DocumentDb* db = nullptr;
  std::function<fwsim::Co<void>(uint64_t)> net_send;
  Duration db_network_rtt = Duration::Micros(400);
};
static_assert(!std::is_aggregate_v<ExecEnv>);

struct ExecStats {
  ExecStats() = default;

  Duration total;             // Wall time of the call.
  Duration compute_time;      // Interpreter/JIT execution of compute units.
  Duration io_time;           // Disk + network + DB time.
  Duration jit_compile_time;  // Compilation stalls (on the single vCPU).
  Duration fault_time;        // Page-fault service time.
  uint64_t jit_compiles = 0;
  uint64_t deopts = 0;
  uint64_t methods_executed = 0;

  // Guest-identity probes of the outermost call (DESIGN.md §15): the request
  // id the guest minted for it, its first RNG draw, and the guest-monotonic
  // timestamp at entry. Deliberately excluded from operator+= — they are
  // observables of one invocation, not accumulators — so platform results
  // carry them through verbatim. Two clones resumed from one snapshot emit
  // identical values here unless a generation change reseeded them first.
  uint64_t request_id = 0;
  uint64_t first_random = 0;
  int64_t guest_monotonic_ns = 0;

  ExecStats& operator+=(const ExecStats& o);
};
static_assert(!std::is_aggregate_v<ExecStats>);

class GuestProcess {
 public:
  // Converts fault counts into service time (supplied by the sandbox layer:
  // hypervisor for microVMs, container engine for containers).
  using FaultCharger = std::function<Duration(const fwmem::FaultCounts&)>;

  GuestProcess(fwsim::Simulation& sim, Language language, fwmem::AddressSpace& space,
               ExecEnv env, FaultCharger fault_charger, double compute_scale = 1.0);

  // --- Deployment-time -----------------------------------------------------

  // npm / pip install of the function's dependency payload.
  fwsim::Co<void> InstallPackages(const FunctionSource& fn);

  // --- Boot-time -----------------------------------------------------------

  // Launches the runtime. On a fresh sandbox this dirties private pages; on a
  // sandbox whose base image already contains the runtime, text is shared.
  fwsim::Co<void> BootRuntime();

  // Attaches to an already-running runtime process (the V8:Isolate model of
  // Cloudflare Workers, §2.3): no runtime boot, just lightweight isolate
  // context creation. The sandbox's base image must contain the runtime text.
  fwsim::Co<void> AttachRuntime();

  // Parses and loads the function (requires BootRuntime). Allocates bytecode.
  fwsim::Co<void> LoadApplication(const FunctionSource& fn);

  // --- Invocation-time -----------------------------------------------------

  // Executes `method_name` with arguments of type signature `type_sig`.
  // Profile counters advance; JIT tiering, annotation-forced compiles and
  // de-optimisations happen as the runtime model dictates.
  fwsim::Co<ExecStats> CallMethod(const std::string& method_name, const std::string& type_sig);

  // --- Snapshot support ----------------------------------------------------

  // A value snapshot of the process's runtime state (loaded app, JIT tiers,
  // compiled signatures). Captured at snapshot time; outlives the process and
  // its sandbox. The referenced FunctionSource must outlive the state.
  class State;

  // Captures the current runtime state for later FromState() restores.
  State ExtractState() const;

  // Creates a process attached to `clone_space` (an address space restored
  // from a snapshot of the sandbox `state` was extracted in) with identical
  // runtime state. Numba's per-module code duplication dirties part of the
  // clone's JIT pages on first execution.
  static std::unique_ptr<GuestProcess> FromState(const State& state, fwsim::Simulation& sim,
                                                 fwmem::AddressSpace& clone_space, ExecEnv env,
                                                 FaultCharger fault_charger,
                                                 double compute_scale = 1.0);

  // Convenience wrapper: ExtractState + FromState with this process's env.
  std::unique_ptr<GuestProcess> CloneFor(fwmem::AddressSpace& clone_space,
                                         FaultCharger fault_charger) const;

  // --- Guest identity (DESIGN.md §15) --------------------------------------
  //
  // The runtime's RNG, monotonic clock and request-id counter are ordinary
  // guest state: seeded at boot, mutated by execution, captured into
  // snapshots with everything else — and therefore duplicated byte-for-byte
  // across clones until a generation change reseeds them.

  // Boot-time entropy for the guest RNG (one virtio-rng read at runtime
  // start). Set by the platform before BootRuntime/AttachRuntime; the
  // default keeps sandboxes without a modeled entropy source deterministic.
  void set_boot_entropy(uint64_t entropy) { boot_entropy_ = entropy; }

  // Next value of the guest RNG stream: xoshiro256** over the identity
  // record, so the stream position itself is snapshot state.
  uint64_t GuestRandomU64();

  // Mints a "unique" request id: the serial counter mixed with an RNG draw.
  // Both halves live in the identity record, so clones collide on it.
  uint64_t NextRequestId();

  // Guest CLOCK_MONOTONIC in nanoseconds: the snapshot-captured base plus
  // sim time since this process (re)started.
  int64_t GuestMonotonicNanos() const;

  // First half of the vmgenid resume protocol: mix fresh host entropy into
  // the RNG state (charges vmgenid_reseed_cost). Idempotent per generation.
  fwsim::Co<void> ReseedFromHostEntropy(uint64_t generation, uint64_t host_entropy);

  // Second half: rebase the monotonic clock onto the host timeline and
  // acknowledge the generation (charges clock_rebase_cost). Only after this
  // completes is the clone safe to admit to user traffic; a crash in between
  // leaves observed_generation() stale, which admission guards check.
  fwsim::Co<void> RebaseMonotonicClock(uint64_t generation);

  uint64_t observed_generation() const { return identity_.observed_generation; }
  const fwmem::GuestIdentityRecord& identity() const { return identity_; }

  // --- Introspection -------------------------------------------------------

  // Differentiates per-sandbox memory-access patterns (GC dirt subsets) so
  // clones do not dirty byte-identical page sets. Set by the platform layer.
  void set_mem_salt(uint64_t salt) { mem_salt_ = salt; }

  bool runtime_booted() const { return runtime_booted_; }
  bool app_loaded() const { return loaded_fn_ != nullptr; }
  ExecTier TierOf(const std::string& method_name) const;
  uint64_t InvocationCount(const std::string& method_name) const;
  uint64_t jit_code_bytes_used() const { return jit_code_bytes_used_; }
  Language language() const { return language_; }
  const RuntimeCosts& costs() const { return costs_; }

 private:
  struct MethodState {
    ExecTier tier = ExecTier::kInterpreter;
    uint64_t invocations = 0;
    std::string compiled_sig;
    uint64_t compiles = 0;
    // De-optimisations seen so far; after kPolymorphicThreshold distinct
    // signatures the code goes polymorphic (inline caches handle any shape:
    // no further deopts, slightly slower JITted code).
    uint32_t deopts = 0;
    bool polymorphic = false;
    // Location of this method's machine code in the JIT code cache segment.
    uint64_t jit_offset_page = 0;
    uint64_t jit_pages = 0;
  };
  // Methods are named by their index in the loaded FunctionSource.
  static constexpr uint32_t kNoMethod = UINT32_MAX;
  // One method activation on ExecMethod's explicit call stack.
  struct Frame {
    Frame(const MethodDef& method, uint32_t index) : method(&method), index(index) {}

    const MethodDef* method;
    uint32_t index;
    size_t next_op = 0;
    // The method the current kCall op calls, and how many calls are left.
    uint32_t callee = kNoMethod;
    uint64_t calls_left = 0;
    ExecTier tier = ExecTier::kInterpreter;
    double jit_derate = 1.0;
    ExecStats stats;
  };
  // Deepest method nesting ExecMethod runs; a deeper call aborts.
  static constexpr size_t kMaxCallDepth = 64;
  static constexpr uint32_t kPolymorphicThreshold = 2;
  // Speed retained by polymorphic (IC-dispatched) JITted code.
  static constexpr double kPolymorphicDerate = 0.85;
  // Re-optimising for a new signature reuses the compilation artefacts and
  // costs a fraction of the initial compile.
  static constexpr double kReoptCostFraction = 0.15;

  // Seeds the identity record from `entropy` (SplitMix64 expansion, like
  // fwbase::Rng) and anchors the monotonic clock at zero.
  void SeedIdentity(uint64_t entropy);
  // Pushes the identity record into the address space (with the monotonic
  // base materialised at "now") so a snapshot taken at any point captures it.
  void SyncIdentity();

  fwmem::SegmentId EnsureSegment(const char* seg_name, uint64_t bytes);
  // Resolves every runtime-managed segment the space already has (clones).
  void ResolveSegments();
  // Charges the service time of `faults` to `stats`. Await the result in the
  // calling expression: the time is computed at the call.
  fwsim::DelayAwaiter ChargeFaults(const fwmem::FaultCounts& faults, ExecStats& stats);
  // Pays the compile stall for `method` and allocates its machine-code pages.
  // `reoptimize` marks a post-deopt respecialisation (cheaper).
  fwsim::Co<void> JitCompile(const MethodDef& method, MethodState& state,
                             const std::string& type_sig, bool reoptimize, ExecStats& stats);
  // Index of `method`, which must belong to the loaded FunctionSource.
  uint32_t IndexOf(const MethodDef& method) const;
  // The state of the method FindMethod(method_name) returns; nullptr when no
  // application is loaded or it has no such method.
  const MethodState* StateOf(const std::string& method_name) const;
  // Runs method `root` and every method it calls, in one coroutine frame:
  // calls push and pop Frames on a local stack instead of starting
  // coroutines.
  fwsim::Co<ExecStats> ExecMethod(uint32_t root, const std::string& type_sig);
  // A kCompute op's execution time, and a kAllocHeap op's fault time; await
  // each in the calling expression.
  fwsim::DelayAwaiter ComputeTime(const Op& op, ExecTier tier, double jit_derate,
                                  ExecStats& stats);
  fwsim::DelayAwaiter AllocHeap(uint64_t bytes, ExecStats& stats);
  // The disk, network and database ops, which await devices.
  fwsim::Co<void> ExecIoOp(const Op& op, ExecStats& stats);

  fwsim::Simulation& sim_;
  Language language_;
  RuntimeCosts costs_;
  fwmem::AddressSpace& space_;
  ExecEnv env_;
  FaultCharger fault_charger_;
  double compute_scale_;

  bool runtime_booted_ = false;
  const FunctionSource* loaded_fn_ = nullptr;
  // Per-method state, indexed like loaded_fn_->methods and sized once when
  // the application loads. Only FindMethod's pick of duplicate-named methods
  // is ever entered, so duplicates share its state.
  std::vector<MethodState> methods_;
  // For each method of loaded_fn_, the index of the method each op calls:
  // kNoMethod for an op that is not a kCall or names no method. Resolved once
  // by LoadApplication; clones share it.
  std::shared_ptr<const std::vector<std::vector<uint32_t>>> call_targets_;
  uint64_t jit_code_bytes_used_ = 0;
  uint64_t bytecode_bytes_used_ = 0;
  // Set on clones: Numba relocation dirt still owed on first execution.
  bool pending_clone_jit_relocation_ = false;
  uint64_t invocation_serial_ = 0;
  uint64_t jit_alloc_cursor_pages_ = 0;
  uint64_t heap_cursor_pages_ = 0;
  uint64_t mem_salt_ = 0;
  // Ids of the runtime-managed segments in space_, resolved when each is
  // created or, on a clone, once in FromState — never by name per request.
  // fwmem::kNoSegment until the segment exists.
  fwmem::SegmentId text_seg_ = fwmem::kNoSegment;
  fwmem::SegmentId heap_seg_ = fwmem::kNoSegment;
  fwmem::SegmentId bytecode_seg_ = fwmem::kNoSegment;
  fwmem::SegmentId app_heap_seg_ = fwmem::kNoSegment;
  fwmem::SegmentId jit_seg_ = fwmem::kNoSegment;
  // Guest identity (DESIGN.md §15). `resume_anchor_` is the sim time this
  // process instance (re)started; the guest monotonic clock is
  // identity_.monotonic_base_ns + (now - resume_anchor_).
  fwmem::GuestIdentityRecord identity_;
  fwbase::SimTime resume_anchor_;
  uint64_t boot_entropy_ = 0xF19E0B0075EEDULL;
};

class GuestProcess::State {
 public:
  State() = default;

 private:
  friend class GuestProcess;

  Language language = Language::kNodeJs;
  const FunctionSource* loaded_fn = nullptr;
  std::vector<MethodState> methods;
  std::shared_ptr<const std::vector<std::vector<uint32_t>>> call_targets;
  uint64_t jit_code_bytes_used = 0;
  uint64_t bytecode_bytes_used = 0;
  uint64_t jit_alloc_cursor_pages = 0;
};

}  // namespace fwlang

#endif  // FIREWORKS_SRC_LANG_GUEST_PROCESS_H_
