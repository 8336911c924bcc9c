// Deterministic scope profiler: sim-time and host wall-time attribution.
//
// The profiler answers "where do 10M-invocation runs spend their time?" with
// two clocks at once:
//
//   * sim time   — how much *simulated* time elapsed while a scope was open.
//                  Meaningful for await-spanning scopes (an invocation in
//                  flight) and for driver scopes that pump the event loop
//                  (RunSync inside a bench phase).
//   * wall time  — how much *host* time the scope consumed. Meaningful for
//                  synchronous kernel scopes (event dispatch, page-table
//                  walks, bus bookkeeping), where sim time never advances.
//
// Determinism contract: the profiler is pure observation, exactly like spans
// and metrics. Wall-clock readings come from std::chrono::steady_clock but
// only ever flow *out* into reports — nothing read here may feed back into
// event ordering, the sim clock, or any RNG. `src/obs/profiler.*` is on the
// fwlint determinism allowlist for this reason, and
// tests/profiler_test.cc pins the contract: instrumented and uninstrumented
// cluster runs must produce bit-identical outcome digests.
//
// Usage follows the metrics-instrument idiom: resolve a ScopeId once
// (RegisterScope), then pay one branch per enter/exit when disabled:
//
//   Broker::Broker(..., Observability& obs, ...)
//       : profiler_(obs.profiler()),
//         produce_scope_(profiler_.RegisterScope("bus.produce")) {}
//   ...
//   { FW_PROFILE_SCOPE_ID(&profiler_, produce_scope_); /* hot work */ }
//
// Scopes nest into call paths (a path-tree keyed by scope id), which is what
// the collapsed-stack exporter in export.h flattens into flamegraph input.
// Two departures from a classic profiler stack, both forced by coroutines:
//
//   * Exits may arrive out of order (a resumed coroutine's scope can outlive
//     the dispatch scope that resumed it); Exit removes the matching frame
//     mid-stack, same as Tracer::EndSpan.
//   * An await-spanning scope is entered *detached* (EnterDetached): it roots
//     its own path and never becomes the parent of scopes from interleaved
//     events, and it accumulates sim time only — exclusive wall time across
//     an await window would be meaningless.
#ifndef FIREWORKS_SRC_OBS_PROFILER_H_
#define FIREWORKS_SRC_OBS_PROFILER_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/base/units.h"
#include "src/obs/clock.h"

namespace fwobs {

// Dense index into the profiler's scope-name table; stable for the
// profiler's lifetime. Resolve once, like a metrics instrument.
using ProfScopeId = uint32_t;

class Profiler {
 public:
  explicit Profiler(SimClockFn clock);

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  // Disabled by default: enter/exit is then a single branch.
  void Enable() { enabled_ = true; }
  void Disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  // Finds or creates the scope named `name`. Scope names double as the
  // hot-path registry for fwlint's hot-path-logging check: code inside a
  // profiled scope must not log below kWarning.
  ProfScopeId RegisterScope(const std::string& name);
  const std::string& scope_name(ProfScopeId id) const { return names_[id]; }

  // Opens a frame for `scope` nested under the innermost open attached
  // frame. Returns an opaque token for Exit(); 0 means "profiler disabled,
  // nothing to exit".
  uint64_t Enter(ProfScopeId scope);
  // Opens a detached (await-spanning) frame: rooted at the top level, never
  // a parent of interleaved scopes, sim-time attribution only.
  uint64_t EnterDetached(ProfScopeId scope);
  // Closes the frame `token`, tolerating out-of-order completion. Exiting
  // token 0 (or a token from before a Reset) is a no-op.
  void Exit(uint64_t token);

  // Aggregated per-scope totals across all call paths.
  struct ScopeTotals {
    std::string name;
    uint64_t calls = 0;
    int64_t sim_total_nanos = 0;
    int64_t sim_self_nanos = 0;
    int64_t wall_total_nanos = 0;
    int64_t wall_self_nanos = 0;
  };
  // Sorted by name. Self time is total minus the totals of child paths,
  // clamped at zero (out-of-order exits can make a child nominally outlive
  // its parent).
  std::vector<ScopeTotals> Totals() const;
  // Hottest scopes first, ranked by max(wall self, sim self) so synchronous
  // kernel scopes and await-spanning scopes share one leaderboard.
  std::vector<ScopeTotals> TopN(size_t n) const;

  // One call-path node, exposed for the collapsed-stack exporter.
  struct PathNode {
    ProfScopeId scope = 0;
    int32_t parent = -1;  // index into nodes(), -1 = root
    uint64_t calls = 0;
    int64_t sim_total_nanos = 0;
    int64_t wall_total_nanos = 0;
  };
  const std::vector<PathNode>& nodes() const { return nodes_; }

  // Merges another profiler's finished paths into this one, matching scopes
  // by name. Lets a bench fold per-host profilers into one report, the same
  // way ChromeTraceBuilder::AddProcess merges tracers.
  void Merge(const Profiler& other);

  // Drops all recorded paths and open frames; registered scopes survive.
  void Reset();

 private:
  struct Frame {
    uint64_t token = 0;
    uint32_t node = 0;       // index into nodes_
    bool detached = false;
    fwbase::SimTime sim_start;
    int64_t wall_start_nanos = 0;
  };

  uint64_t EnterFrame(ProfScopeId scope, bool detached);
  uint32_t FindOrCreateNode(int32_t parent, ProfScopeId scope);

  SimClockFn clock_;
  bool enabled_ = false;
  uint64_t next_token_ = 1;
  std::vector<std::string> names_;
  std::map<std::string, ProfScopeId> ids_;
  std::vector<PathNode> nodes_;
  // (parent, scope) -> node index; keeps FindOrCreateNode off a linear scan.
  std::map<std::pair<int32_t, ProfScopeId>, uint32_t> node_index_;
  std::vector<Frame> open_;
};

// RAII guard for one profiler scope, by a ScopeId resolved once with
// RegisterScope: nothing interns a name per entry. Null-safe and cheap when
// the profiler is absent or disabled (token stays 0, Exit is skipped).
class ProfileScope {
 public:
  ProfileScope(Profiler* p, ProfScopeId scope)
      : profiler_((p != nullptr && p->enabled()) ? p : nullptr),
        token_(profiler_ != nullptr ? profiler_->Enter(scope) : 0) {}
  ~ProfileScope() {
    if (profiler_ != nullptr) {
      profiler_->Exit(token_);
    }
  }

  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  Profiler* profiler_;
  uint64_t token_;
};

#define FW_PROFILE_CONCAT_INNER(a, b) a##b
#define FW_PROFILE_CONCAT(a, b) FW_PROFILE_CONCAT_INNER(a, b)

// Declares a profiler scope, by its pre-resolved ProfScopeId, covering the
// rest of the enclosing block. The macro registers the block as a hot path
// with fwlint (hot-path-logging): no FW_LOG(kInfo)-or-lower inside.
#define FW_PROFILE_SCOPE_ID(profiler, id) \
  ::fwobs::ProfileScope FW_PROFILE_CONCAT(fw_prof_scope_, __LINE__)((profiler), (id))

}  // namespace fwobs

#endif  // FIREWORKS_SRC_OBS_PROFILER_H_
