#include "tools/fwlint/fwlint.h"

#include <algorithm>
#include <map>
#include <optional>
#include <utility>

namespace fwlint {

bool IsKeywordText(const std::string& s) {
  static const std::set<std::string> kKeywords = {
      "alignas",   "alignof",  "auto",      "break",     "case",       "catch",
      "class",     "const",    "constexpr", "consteval", "constinit",  "continue",
      "co_await",  "co_return","co_yield",  "decltype",  "default",    "delete",
      "do",        "else",     "enum",      "explicit",  "extern",     "for",
      "friend",    "goto",     "if",        "inline",    "mutable",    "namespace",
      "new",       "noexcept", "operator",  "private",   "protected",  "public",
      "requires",  "return",   "sizeof",    "static",    "static_assert",
      "static_cast","struct",  "switch",    "template",  "this",       "throw",
      "try",       "typedef",  "typeid",    "typename",  "union",      "using",
      "virtual",   "void",     "volatile",  "while",
  };
  return kKeywords.count(s) != 0;
}

namespace {

// ---------------------------------------------------------------------------
// Shared token-walking helpers
// ---------------------------------------------------------------------------

using Tokens = std::vector<Token>;

bool IsKeyword(const std::string& s) { return IsKeywordText(s); }

// Skips a balanced parenthesised group. `i` must point at the opening "(".
// Returns the index just past the matching ")" (or tokens.size() on EOF).
size_t SkipParens(const Tokens& t, size_t i) {
  int depth = 0;
  for (; i < t.size(); ++i) {
    if (t[i].kind != TokenKind::kPunct) {
      continue;
    }
    if (t[i].text == "(") {
      ++depth;
    } else if (t[i].text == ")") {
      if (--depth == 0) {
        return i + 1;
      }
    }
  }
  return t.size();
}

// Attempts to skip a balanced template-argument list. `i` must point at the
// opening "<". Returns the index just past the closing ">"/">>" on success,
// std::nullopt if this "<" looks like a comparison instead (bails on ";",
// "{", "}" or EOF before balancing). Handles ">>" closing two levels.
std::optional<size_t> TrySkipAngles(const Tokens& t, size_t i) {
  int depth = 0;
  for (; i < t.size(); ++i) {
    if (t[i].kind != TokenKind::kPunct) {
      continue;
    }
    const std::string& p = t[i].text;
    if (p == "<") {
      ++depth;
    } else if (p == ">") {
      if (--depth == 0) {
        return i + 1;
      }
    } else if (p == ">>") {
      depth -= 2;
      if (depth <= 0) {
        return i + 1;
      }
    } else if (p == ";" || p == "{" || p == "}") {
      return std::nullopt;
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// determinism
// ---------------------------------------------------------------------------

// Identifiers that read a wall clock or an unseeded/system RNG. Any token
// match (outside comments/strings — the lexer guarantees that) is flagged.
const std::set<std::string>& DeterminismDenyIdents() {
  static const std::set<std::string> kDeny = {
      "srand",           "random_device", "random_shuffle",
      "mt19937",         "mt19937_64",    "minstd_rand",
      "minstd_rand0",    "default_random_engine",
      "knuth_b",         "ranlux24",      "ranlux24_base",
      "ranlux48",        "ranlux48_base",
      "system_clock",    "steady_clock",  "high_resolution_clock",
      "gettimeofday",    "clock_gettime", "timespec_get",
      "localtime",       "gmtime",        "mktime",
      "ftime",
  };
  return kDeny;
}

bool InDeterminismAllowlist(const std::string& path) {
  // src/obs/profiler.* reads steady_clock for wall-time attribution; the
  // readings are report-only and never feed back into the simulation (the
  // contract tests/profiler_test.cc pins with digest comparisons).
  return path.rfind("src/base/rng.", 0) == 0 || path.rfind("src/obs/clock.", 0) == 0 ||
         path.rfind("src/obs/profiler.", 0) == 0;
}

// ---------------------------------------------------------------------------
// layering
// ---------------------------------------------------------------------------

// The include DAG, as ranks: a file in layer L may include its own layer and
// any layer of strictly lower rank. Equal-rank layers are siblings and may
// not include each other. This is a refinement of the coarse DAG in ISSUE /
// DESIGN.md (base → simcore → mid-tier → core → leaves) that pins down the
// order *within* the mid-tier to match the real dependencies:
//   obs sits below simcore (the kernel's log-time source formats through the
//   obs clock facade), fault/mem below the transports that inject through
//   them, storage below the vmm/sandbox/lang layers that persist into it.
const std::map<std::string, int>& LayerRank() {
  static const std::map<std::string, int> kRank = {
      {"base", 0},    {"obs", 1},     {"simcore", 2}, {"fault", 3},
      {"mem", 3},     {"net", 4},     {"msgbus", 4},  {"storage", 4},
      {"vmm", 5},     {"sandbox", 5}, {"lang", 5},    {"core", 6},
      {"baselines", 7}, {"workloads", 7}, {"cluster", 8},
  };
  return kRank;
}

// "src/<layer>/..." -> "<layer>", or "" if the path is not of that shape.
std::string LayerOfPath(const std::string& path) {
  if (path.rfind("src/", 0) != 0) {
    return "";
  }
  const size_t slash = path.find('/', 4);
  if (slash == std::string::npos) {
    return "";
  }
  return path.substr(4, slash - 4);
}

}  // namespace

// ---------------------------------------------------------------------------
// Public surface
// ---------------------------------------------------------------------------

std::string Diagnostic::ToString() const {
  return file + ":" + std::to_string(line) + ": [" + check + "] " + message;
}

const std::vector<std::string>& AllChecks() {
  static const std::vector<std::string> kChecks = {
      "determinism",      "unordered-iteration",  "layering",
      "unbounded-queue",  "hot-path-logging",     "suspend-lifetime",
      "use-after-move",   "iterator-invalidation", "snapshot-captured-identity",
      "stale-suppression",
  };
  return kChecks;
}

void Analyzer::AddFile(std::string path, std::string content) {
  File f;
  f.path = std::move(path);
  f.lex = Lex(content);
  f.parse = Parse(f.lex.tokens);
  f.content = std::move(content);
  files_.push_back(std::move(f));
  registry_built_ = false;
}

// Phase one: cross-file registries, built on the structural parser so
// qualified out-of-line definitions like `Co<void> Cluster::Worker(...) {
// ... }` register. Functions *declared* to return Co<...> feed
// suspend-lifetime's detached-coroutine registry.
void Analyzer::BuildRegistry() {
  coro_fns_.clear();
  unordered_vars_.clear();
  detached_fns_.clear();

  for (const File& f : files_) {
    for (const FunctionInfo& fn : f.parse.functions) {
      if (fn.returns_co) {
        coro_fns_.insert(fn.name);
      }
    }
  }

  // Unordered-container names are collected across *all* files: a member
  // declared `std::unordered_map<...> roots_;` in a header is most often
  // iterated from the matching .cc, which never re-states the type. Aliases
  // (`using AppMap = std::unordered_map<...>`) are likewise resolved across
  // files — a header's alias is most often instantiated in a different TU.
  static const std::set<std::string> kUnorderedTemplates = {
      "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};
  std::set<std::string> unordered_types = kUnorderedTemplates;
  for (const File& f : files_) {
    const Tokens& t = f.lex.tokens;
    for (size_t i = 0; i + 3 < t.size(); ++i) {
      if (t[i].ident("using") && t[i + 1].kind == TokenKind::kIdentifier &&
          t[i + 2].punct("=")) {
        for (size_t j = i + 3; j < t.size() && !t[j].punct(";"); ++j) {
          if (t[j].kind == TokenKind::kIdentifier && kUnorderedTemplates.count(t[j].text) != 0) {
            unordered_types.insert(t[i + 1].text);
            break;
          }
        }
      }
    }
  }
  for (const File& f : files_) {
    const Tokens& t = f.lex.tokens;
    for (size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != TokenKind::kIdentifier || unordered_types.count(t[i].text) == 0) {
        continue;
      }
      size_t j = i + 1;
      if (j < t.size() && t[j].punct("<")) {
        std::optional<size_t> after = TrySkipAngles(t, j);
        if (!after.has_value()) {
          continue;
        }
        j = *after;
      }
      // Skip refs/pointers in declarations like `const unordered_map<K,V>& m`.
      while (j < t.size() && (t[j].punct("&") || t[j].punct("*") || t[j].punct("&&"))) {
        ++j;
      }
      if (j < t.size() && t[j].kind == TokenKind::kIdentifier && !IsKeyword(t[j].text)) {
        unordered_vars_.insert(t[j].text);
      }
    }
  }

  // Detached coroutines: names called directly inside a Spawn(...) argument
  // list. `sim.Spawn(Worker(i))` detaches Worker from the caller's frame, so
  // Worker's reference parameters outlive nothing — suspend-lifetime treats
  // those names more strictly than structurally awaited coroutines.
  for (const File& f : files_) {
    const Tokens& t = f.lex.tokens;
    for (size_t i = 0; i + 2 < t.size(); ++i) {
      if (!(t[i].ident("Spawn") && t[i + 1].punct("("))) {
        continue;
      }
      const size_t close = SkipParens(t, i + 1);
      // Only the directly spawned expression counts: calls inside a lambda
      // body passed to Spawn are awaited by that lambda's own frame, not
      // detached (track brace depth and skip them).
      int brace_depth = 0;
      for (size_t j = i + 2; j + 1 < close; ++j) {
        if (t[j].punct("{")) ++brace_depth;
        if (t[j].punct("}")) --brace_depth;
        if (brace_depth == 0 && t[j].kind == TokenKind::kIdentifier &&
            !IsKeyword(t[j].text) && t[j + 1].punct("(") && t[j].text != "move" &&
            t[j].text != "Spawn" && coro_fns_.count(t[j].text) != 0) {
          detached_fns_.insert(t[j].text);
        }
      }
    }
  }
  registry_built_ = true;
}

std::vector<Diagnostic> Analyzer::Run(const std::set<std::string>& checks) {
  if (!registry_built_) {
    BuildRegistry();
  }
  const auto enabled = [&checks](const std::string& name) {
    return checks.empty() || checks.count(name) != 0;
  };

  // Every check runs unconditionally: staleness of a suppression has to be
  // judged against the complete finding set, or `--check=layering` would
  // declare every determinism allow stale. `checks` filters the output only.
  std::vector<Diagnostic> raw;
  for (const File& f : files_) {
    CheckDeterminism(f, raw);
    CheckUnorderedIteration(f, raw);
    CheckLayering(f, raw);
    CheckUnboundedQueue(f, raw);
    CheckHotPathLogging(f, raw);
    CheckSuspendLifetime(f, raw);
    CheckUseAfterMove(f, raw);
    CheckIteratorInvalidation(f, raw);
    CheckSnapshotCapturedIdentity(f, raw);
  }

  // Resolve every fwlint:allow occurrence against the raw findings: an allow
  // whose named check produced nothing on its line is stale — the code it
  // excused has been fixed (or the suppression never matched), and keeping it
  // would silently swallow the next real finding on that line.
  std::vector<Diagnostic> stale;
  for (const File& f : files_) {
    for (const auto& [line, names] : f.lex.suppressions) {
      for (const std::string& name : names) {
        bool matched = false;
        for (const Diagnostic& d : raw) {
          if (d.file == f.path && d.line == line && (name == "all" || d.check == name)) {
            matched = true;
            break;
          }
        }
        if (!matched) {
          stale.push_back({f.path, line, "stale-suppression",
                           "fwlint:allow(" + name +
                               ") matches no finding on this line; delete it so suppression "
                               "debt shrinks instead of rotting (or fix the check name)"});
        }
      }
    }
  }
  raw.insert(raw.end(), stale.begin(), stale.end());

  // Apply per-line suppressions and the check filter, then sort for stable
  // output. stale-suppression itself is deliberately not suppressible — an
  // allow for it would be fresh debt about stale debt.
  std::vector<Diagnostic> out;
  for (Diagnostic& d : raw) {
    if (!enabled(d.check)) {
      continue;
    }
    if (d.check != "stale-suppression") {
      const File* file = nullptr;
      for (const File& f : files_) {
        if (f.path == d.file) {
          file = &f;
          break;
        }
      }
      if (file != nullptr) {
        auto it = file->lex.suppressions.find(d.line);
        if (it != file->lex.suppressions.end() &&
            (it->second.count(d.check) != 0 || it->second.count("all") != 0)) {
          continue;
        }
      }
    }
    out.push_back(std::move(d));
  }
  std::sort(out.begin(), out.end(), [](const Diagnostic& a, const Diagnostic& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.check != b.check) return a.check < b.check;
    return a.message < b.message;
  });
  return out;
}

// ---------------------------------------------------------------------------
// determinism
// ---------------------------------------------------------------------------

void Analyzer::CheckDeterminism(const File& f, std::vector<Diagnostic>& out) const {
  if (InDeterminismAllowlist(f.path)) {
    return;
  }
  const Tokens& t = f.lex.tokens;
  const std::set<std::string>& deny = DeterminismDenyIdents();
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdentifier) {
      continue;
    }
    const std::string& id = t[i].text;
    bool hit = deny.count(id) != 0;
    // rand() / std::rand(): only when called, so identifiers merely
    // *containing* "rand" (or a member named rand) don't need suppression.
    if (!hit && id == "rand" && i + 1 < t.size() && t[i + 1].punct("(")) {
      hit = true;
    }
    // time(NULL) / time(nullptr) / time(0) / time(): the classic epoch read.
    // `time` with a real argument (e.g. a struct tm*) never appears in this
    // tree; anything else named time (variables, members) is untouched.
    if (!hit && id == "time" && i + 2 < t.size() && t[i + 1].punct("(")) {
      const Token& arg = t[i + 2];
      if (arg.punct(")") || arg.ident("NULL") || arg.ident("nullptr") ||
          (arg.kind == TokenKind::kNumber && arg.text == "0")) {
        hit = true;
      }
    }
    // std::clock(): require the std:: qualifier so sim-clock accessors named
    // clock() stay usable.
    if (!hit && id == "clock" && i >= 2 && t[i - 1].punct("::") && t[i - 2].ident("std") &&
        i + 1 < t.size() && t[i + 1].punct("(")) {
      hit = true;
    }
    if (hit) {
      out.push_back({f.path, t[i].line, "determinism",
                     "wall-clock / unseeded-RNG API '" + id +
                         "' outside the allowlist (src/base/rng.*, src/obs/clock.*, "
                         "src/obs/profiler.*); use "
                         "fwsim::Simulation::Now()/rng() or fwbase::Rng with an explicit seed"});
    }
  }
}

// ---------------------------------------------------------------------------
// unordered-iteration
// ---------------------------------------------------------------------------

void Analyzer::CheckUnorderedIteration(const File& f, std::vector<Diagnostic>& out) const {
  const Tokens& t = f.lex.tokens;
  const std::set<std::string>& unordered_vars = unordered_vars_;
  if (unordered_vars.empty()) {
    return;
  }

  // Pass 2a: range-for whose range expression mentions an unordered name.
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (!(t[i].ident("for") && t[i + 1].punct("("))) {
      continue;
    }
    const size_t close = SkipParens(t, i + 1);
    // Find a top-level ':' inside the for-parens (range-for separator; plain
    // for-loops have none, and "::" lexes as its own token so it can't fool
    // this).
    size_t colon = 0;
    int depth = 0;
    for (size_t j = i + 1; j + 1 < close; ++j) {
      if (t[j].kind != TokenKind::kPunct) continue;
      if (t[j].text == "(") ++depth;
      if (t[j].text == ")") --depth;
      if (t[j].text == ":" && depth == 1) {
        colon = j;
        break;
      }
    }
    if (colon == 0) {
      continue;
    }
    for (size_t j = colon + 1; j + 1 < close; ++j) {
      if (t[j].kind == TokenKind::kIdentifier && unordered_vars.count(t[j].text) != 0) {
        out.push_back({f.path, t[i].line, "unordered-iteration",
                       "range-for over unordered container '" + t[j].text +
                           "': hash order can leak into deterministic output; iterate a "
                           "sorted copy or switch to an ordered container"});
        break;
      }
    }
  }

  // Pass 2b: explicit iterator walks (name.begin() and friends).
  static const std::set<std::string> kBeginLike = {"begin", "cbegin", "rbegin", "crbegin"};
  for (size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].kind == TokenKind::kIdentifier && unordered_vars.count(t[i].text) != 0 &&
        (t[i + 1].punct(".") || t[i + 1].punct("->")) &&
        t[i + 2].kind == TokenKind::kIdentifier && kBeginLike.count(t[i + 2].text) != 0) {
      out.push_back({f.path, t[i].line, "unordered-iteration",
                     "iterator walk over unordered container '" + t[i].text +
                         "': hash order can leak into deterministic output; iterate a "
                         "sorted copy or switch to an ordered container"});
    }
  }
}

// ---------------------------------------------------------------------------
// layering
// ---------------------------------------------------------------------------

void Analyzer::CheckLayering(const File& f, std::vector<Diagnostic>& out) const {
  const std::string layer = LayerOfPath(f.path);
  if (layer.empty()) {
    return;  // bench/tests/examples/tools may include anything
  }
  const auto& ranks = LayerRank();
  auto self = ranks.find(layer);
  if (self == ranks.end()) {
    return;  // unknown layer directory: nothing to enforce
  }
  const Tokens& t = f.lex.tokens;
  for (size_t i = 0; i + 2 < t.size(); ++i) {
    if (!(t[i].punct("#") && t[i + 1].ident("include") &&
          t[i + 2].kind == TokenKind::kString)) {
      continue;
    }
    const std::string& inc = t[i + 2].text;
    const std::string target = LayerOfPath(inc);
    if (target.empty() || target == layer) {
      continue;
    }
    auto it = ranks.find(target);
    if (it == ranks.end()) {
      continue;
    }
    if (it->second >= self->second) {
      const bool upward = it->second > self->second;
      out.push_back({f.path, t[i + 2].line, "layering",
                     std::string(upward ? "upward" : "cross-layer") + " include: layer '" +
                         layer + "' (rank " + std::to_string(self->second) +
                         ") must not include '" + inc + "' (layer '" + target + "', rank " +
                         std::to_string(it->second) + "); see the layer DAG in DESIGN.md"});
    }
  }
}

// ---------------------------------------------------------------------------
// unbounded-queue
// ---------------------------------------------------------------------------

// Flags container members in src/ that accumulate work without a cap or shed
// policy. The pattern is a member declaration
//   deque<...> name_;            (any deque member)
//   vector<...> queue-ish-name_; (vectors only when the name says queue)
// i.e. template id, skipped angles, then an identifier ending in '_' whose
// declarator ends with ';', '=' or '{'. References/pointers are views of
// someone else's container and are skipped, as are nested template arguments
// (`map<K, deque<V>> m_` does not match: the token after the deque's angles
// is the enclosing '>'). Suppress a justified site with
// `// fwlint:allow(unbounded-queue)` stating where the bound lives.
void Analyzer::CheckUnboundedQueue(const File& f, std::vector<Diagnostic>& out) const {
  if (f.path.rfind("src/", 0) != 0) {
    return;  // tests/bench/tools scratch containers are not dispatch paths
  }
  static const std::vector<std::string> kQueueishWords = {
      "queue", "pending", "backlog", "inbox", "mailbox", "waiters",
  };
  const Tokens& t = f.lex.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdentifier ||
        (t[i].text != "deque" && t[i].text != "vector")) {
      continue;
    }
    const bool is_deque = (t[i].text == "deque");
    // Walk back over `ns::` qualifiers; if the container name sits right
    // after '<' or ',' it is a nested template argument (e.g. the deque in
    // `map<K, deque<V>>`) and the enclosing member, not this one, is the
    // declaration to judge.
    size_t q = i;
    while (q >= 2 && t[q - 1].punct("::") && t[q - 2].kind == TokenKind::kIdentifier) {
      q -= 2;
    }
    if (q >= 1 && (t[q - 1].punct("<") || t[q - 1].punct(","))) {
      continue;
    }
    size_t j = i + 1;
    if (!(j < t.size() && t[j].punct("<"))) {
      continue;
    }
    std::optional<size_t> after = TrySkipAngles(t, j);
    if (!after.has_value()) {
      continue;
    }
    j = *after;
    if (j < t.size() && (t[j].punct("&") || t[j].punct("*") || t[j].punct("&&"))) {
      continue;  // a reference/pointer member does not own the growth
    }
    if (j + 1 >= t.size() || t[j].kind != TokenKind::kIdentifier ||
        IsKeyword(t[j].text)) {
      continue;
    }
    const std::string& name = t[j].text;
    if (name.size() < 2 || name.back() != '_') {
      continue;  // locals and parameters are bounded by their scope
    }
    if (!(t[j + 1].punct(";") || t[j + 1].punct("=") || t[j + 1].punct("{"))) {
      continue;  // not a member declaration
    }
    if (!is_deque) {
      bool queueish = false;
      for (const std::string& word : kQueueishWords) {
        if (name.find(word) != std::string::npos) {
          queueish = true;
          break;
        }
      }
      if (!queueish) {
        continue;
      }
    }
    out.push_back(
        {f.path, t[j].line, "unbounded-queue",
         std::string("member '") + name + "' is an unbounded " +
             (is_deque ? "std::deque" : "queue-named std::vector") +
             " in a dispatch path: nothing caps its growth, so overload queues to "
             "death instead of shedding; enforce a capacity/shed policy at enqueue "
             "(see src/cluster/admission.h) or suppress with a "
             "fwlint:allow(unbounded-queue) note stating where the bound lives"});
  }
}

void Analyzer::CheckHotPathLogging(const File& f, std::vector<Diagnostic>& out) const {
  if (f.path.rfind("src/", 0) != 0) {
    return;  // only simulator source registers hot paths with the profiler
  }
  const Tokens& t = f.lex.tokens;
  int depth = 0;
  // Brace depths at which a profiler scope guard was declared. The guard
  // lives until its enclosing block closes, so the registered hot path is
  // every token from the declaration until depth drops below the marker.
  std::vector<int> hot;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].punct("{")) {
      ++depth;
      continue;
    }
    if (t[i].punct("}")) {
      --depth;
      while (!hot.empty() && hot.back() > depth) {
        hot.pop_back();
      }
      continue;
    }
    if (t[i].kind != TokenKind::kIdentifier) {
      continue;
    }
    if (t[i].text == "FW_PROFILE_SCOPE_ID") {
      hot.push_back(depth);
      continue;
    }
    // A ProfileScope guard declared by hand ("fwobs::ProfileScope guard(p,
    // id);"): the next token is the variable name. `class ProfileScope {`
    // and mentions in types/expressions don't match.
    if (t[i].text == "ProfileScope" && i + 1 < t.size() &&
        t[i + 1].kind == TokenKind::kIdentifier && !(i >= 1 && t[i - 1].ident("class"))) {
      hot.push_back(depth);
      continue;
    }
    if (t[i].text == "FW_LOG" && !hot.empty() && i + 2 < t.size() && t[i + 1].punct("(") &&
        (t[i + 2].ident("kTrace") || t[i + 2].ident("kDebug") || t[i + 2].ident("kInfo"))) {
      out.push_back(
          {f.path, t[i].line, "hot-path-logging",
           "FW_LOG(" + t[i + 2].text +
               ") inside a profiler-registered hot-path scope: this is a format+write "
               "per event once the log level admits it, in exactly the code the "
               "profiler marks hot; raise to kWarning+, move the log outside the "
               "scope, or suppress with fwlint:allow(hot-path-logging)"});
    }
  }
}

// ---------------------------------------------------------------------------
// snapshot-captured-identity
// ---------------------------------------------------------------------------

namespace {

// Entropy / identity sources whose value, read from guest-side code, becomes
// snapshot state and is replayed byte-for-byte by every clone.
const std::set<std::string>& IdentityDenyIdents() {
  static const std::set<std::string> kDeny = {
      "random_device", "getrandom", "getentropy", "rdrand",
      "uuid_generate", "uuid_generate_random", "gen_random_uuid",
  };
  return kDeny;
}

// Guest-visible layers: the guest runtime model (src/lang) and the platform
// paths that restore + drive it (src/core). Lower layers (base/vmm) host the
// sanctioned sources themselves; higher layers never touch guest identity.
bool InIdentityScope(const std::string& path) {
  return path.rfind("src/lang/", 0) == 0 || path.rfind("src/core/", 0) == 0;
}

}  // namespace

void Analyzer::CheckSnapshotCapturedIdentity(const File& f,
                                             std::vector<Diagnostic>& out) const {
  if (!InIdentityScope(f.path)) {
    return;
  }
  const Tokens& t = f.lex.tokens;
  const std::set<std::string>& deny = IdentityDenyIdents();
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdentifier) {
      continue;
    }
    const std::string& id = t[i].text;
    bool hit = deny.count(id) != 0;
    // Host RNG accessor calls — sim.rng().NextU64() and friends. Only when
    // called, so members/locals merely named rng stay usable.
    if (!hit && id == "rng" && i + 1 < t.size() && t[i + 1].punct("(")) {
      hit = true;
    }
    // The hypervisor entropy tap is the platform's half of the vmgenid
    // protocol (src/core draws it and hands it to ReseedFromHostEntropy);
    // guest runtime code reaching for it directly skips the generation
    // handshake that makes reseeding observable and idempotent.
    if (!hit && id == "DrawGuestEntropy" && f.path.rfind("src/lang/", 0) == 0) {
      hit = true;
    }
    if (hit) {
      out.push_back(
          {f.path, t[i].line, "snapshot-captured-identity",
           "host entropy/identity source '" + id +
               "' read from guest-side code: the value is captured into the "
               "snapshot and replayed identically by every clone; route RNG "
               "draws, request ids and timestamps through the generation-aware "
               "GuestProcess facility (GuestRandomU64/NextRequestId/"
               "GuestMonotonicNanos, DESIGN.md §15) or suppress a host-only "
               "modeling read with fwlint:allow(snapshot-captured-identity)"});
    }
  }
}

}  // namespace fwlint
