// fwlint: invariant checker for the Fireworks simulator tree.
//
// The whole reproduction rests on one property: a run is a pure function of
// (workload, seed, fault plan). fwlint enforces the invariants that guard it
// as named, token-aware checks with file:line diagnostics:
//
//   determinism          wall-clock or unseeded-RNG APIs outside the
//                        src/base/rng.* / src/obs/clock.* /
//                        src/obs/profiler.* allowlist
//   unordered-iteration  range-for / .begin() iteration over variables
//                        declared as unordered_map/unordered_set, where hash
//                        order can leak into "deterministic" output
//   layering             #include edges that go up or across the layer DAG
//                        (see kLayerRank in fwlint.cc and DESIGN.md)
//   unbounded-queue      std::deque members (and queue-named std::vector
//                        members) declared in src/ dispatch paths, which grow
//                        without a cap or shed policy; overload then queues
//                        to death instead of shedding (see DESIGN.md §11)
//   hot-path-logging     FW_LOG(kInfo)-or-lower inside a block registered as
//                        a hot path by a profiler scope guard (see §12)
//
// plus the flow-aware checks built on the structural parser (parser.h),
// which recovers function/coroutine boundaries, parameters, lambdas, and a
// statement-level block tree (see DESIGN.md §14):
//
//   suspend-lifetime     state that dies while a coroutine is suspended:
//                        view (string_view/span) parameters — and reference/
//                        pointer parameters of detached-Spawned coroutines —
//                        read after a co_await; view locals bound to
//                        temporaries and read across a co_await; coroutine
//                        lambdas with by-reference captures
//   use-after-move       reads of a variable after std::move(x) on a forward
//                        path with no reassignment, including the moved-in-a-
//                        loop-without-reassignment variant
//   iterator-invalidation an iterator or element reference into a container
//                        used after a mutating call on that container
//                        (push_back/erase/insert/...), or held across a
//                        co_await when the container is member-like (other
//                        coroutines can mutate it while this one is
//                        suspended)
//   stale-suppression    a per-line fwlint:allow(<check>) that no longer
//                        matches any finding of that check on its line, so
//                        suppression debt shrinks instead of rotting
//
// Any diagnostic can be suppressed for one line with
//   // fwlint:allow(<check>)           e.g.  // fwlint:allow(determinism)
// on that line (inside any comment; "all" suppresses every check).
//
// A dropped Status / Result<T> / fwsim::Co<T> is not a check here: those
// types are [[nodiscard]] and the build passes -Werror=unused-result, so the
// compiler rejects it (tests/compile_fail proves it does).
//
// The analyzer is multi-pass: AddFile() every translation unit first (each
// file is lexed and structurally parsed once), then Run(). Phase one builds
// cross-file registries — Co-returning function names (from parsed
// declarations, so multi-line and qualified out-of-line forms register),
// unordered-container variable names (with cross-file alias resolution), and
// the set of coroutine names that are detached via Simulation::Spawn. Phase
// two runs every check over every file's tokens + parse. There is
// deliberately no libclang dependency — the lexer + parser subset is enough
// for these checks and keeps the tool buildable anywhere the simulator
// builds.
#ifndef FIREWORKS_TOOLS_FWLINT_FWLINT_H_
#define FIREWORKS_TOOLS_FWLINT_FWLINT_H_

#include <set>
#include <string>
#include <vector>

#include "tools/fwlint/lexer.h"
#include "tools/fwlint/parser.h"

namespace fwlint {

struct Diagnostic {
  std::string file;
  int line;
  std::string check;
  std::string message;

  // "path:line: [check] message" — stable, grep- and editor-friendly.
  std::string ToString() const;
};

// All check names, in reporting order.
const std::vector<std::string>& AllChecks();

// True for C++ keywords (which the lexer emits as kIdentifier tokens).
bool IsKeywordText(const std::string& s);

class Analyzer {
 public:
  // Registers a file for analysis. `path` should be repo-relative with
  // forward slashes (e.g. "src/base/rng.cc"): the determinism allowlist and
  // the layering check key off it.
  void AddFile(std::string path, std::string content);

  // Runs the analysis and returns diagnostics for the given checks (empty
  // set = all). Every check always executes internally — staleness of a
  // suppression is judged against the full finding set, not the requested
  // subset — and `checks` only filters what is returned. Diagnostics are
  // sorted by (file, line, check) and already have per-line fwlint:allow()
  // suppressions applied.
  std::vector<Diagnostic> Run(const std::set<std::string>& checks = {});

  // Exposed for tests: the registry of function names declared to return
  // Co<...> across all added files, of variable/member names declared with an
  // unordered container type, and of coroutine names passed to Spawn
  // (detached from their caller's lifetime).
  const std::set<std::string>& coro_functions() const { return coro_fns_; }
  const std::set<std::string>& unordered_variables() const { return unordered_vars_; }
  const std::set<std::string>& detached_coroutines() const { return detached_fns_; }

 private:
  struct File {
    std::string path;
    std::string content;
    LexResult lex;
    ParseResult parse;
  };

  void BuildRegistry();
  void CheckDeterminism(const File& f, std::vector<Diagnostic>& out) const;
  void CheckUnorderedIteration(const File& f, std::vector<Diagnostic>& out) const;
  void CheckLayering(const File& f, std::vector<Diagnostic>& out) const;
  void CheckUnboundedQueue(const File& f, std::vector<Diagnostic>& out) const;
  void CheckHotPathLogging(const File& f, std::vector<Diagnostic>& out) const;
  void CheckSnapshotCapturedIdentity(const File& f, std::vector<Diagnostic>& out) const;
  // Flow-aware checks (tools/fwlint/flow.cc).
  void CheckSuspendLifetime(const File& f, std::vector<Diagnostic>& out) const;
  void CheckUseAfterMove(const File& f, std::vector<Diagnostic>& out) const;
  void CheckIteratorInvalidation(const File& f, std::vector<Diagnostic>& out) const;

  std::vector<File> files_;
  std::set<std::string> coro_fns_;
  std::set<std::string> unordered_vars_;
  std::set<std::string> detached_fns_;
  bool registry_built_ = false;
};

}  // namespace fwlint

#endif  // FIREWORKS_TOOLS_FWLINT_FWLINT_H_
