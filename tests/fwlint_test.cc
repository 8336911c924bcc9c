// Fixture-driven tests for fwlint (tools/fwlint/): every check gets at least
// one positive, one negative, one comment/string decoy (which a plain grep
// would mis-flag), and one fwlint:allow
// suppression case. Fixture snippets live in raw strings, which also proves
// that fwlint scanning *this* file does not trip on them: string contents are
// not code.
#include "tools/fwlint/fwlint.h"

#include <gtest/gtest.h>

#include "tools/fwlint/lexer.h"
#include "tools/fwlint/parser.h"

#include <set>
#include <string>
#include <vector>

namespace {

using fwlint::Analyzer;
using fwlint::Diagnostic;

std::vector<Diagnostic> LintOne(const std::string& path, const std::string& src,
                                const std::string& only_check = "") {
  Analyzer a;
  a.AddFile(path, src);
  std::set<std::string> checks;
  if (!only_check.empty()) {
    checks.insert(only_check);
  }
  return a.Run(checks);
}

std::vector<Diagnostic> OfCheck(const std::vector<Diagnostic>& diags, const std::string& check) {
  std::vector<Diagnostic> out;
  for (const Diagnostic& d : diags) {
    if (d.check == check) {
      out.push_back(d);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(LexerTest, ClassifiesTokens) {
  const auto lex = fwlint::Lex("foo 42 \"bar\" 'c' ->");
  ASSERT_EQ(lex.tokens.size(), 5u);
  EXPECT_EQ(lex.tokens[0].kind, fwlint::TokenKind::kIdentifier);
  EXPECT_EQ(lex.tokens[1].kind, fwlint::TokenKind::kNumber);
  EXPECT_EQ(lex.tokens[2].kind, fwlint::TokenKind::kString);
  EXPECT_EQ(lex.tokens[2].text, "bar");
  EXPECT_EQ(lex.tokens[3].kind, fwlint::TokenKind::kCharLit);
  EXPECT_EQ(lex.tokens[4].kind, fwlint::TokenKind::kPunct);
  EXPECT_EQ(lex.tokens[4].text, "->");
}

TEST(LexerTest, CommentsProduceNoTokensAndTrackLines) {
  const auto lex = fwlint::Lex("a // b c d\n/* e\nf */ g");
  ASSERT_EQ(lex.tokens.size(), 2u);
  EXPECT_EQ(lex.tokens[0].text, "a");
  EXPECT_EQ(lex.tokens[0].line, 1);
  EXPECT_EQ(lex.tokens[1].text, "g");
  EXPECT_EQ(lex.tokens[1].line, 3);
}

TEST(LexerTest, RawStringSwallowsEverything) {
  const auto lex = fwlint::Lex("x = R\"mark(std::mt19937 \" )other\" )mark\"; y");
  ASSERT_EQ(lex.tokens.size(), 5u);  // x = <string> ; y
  EXPECT_EQ(lex.tokens[2].kind, fwlint::TokenKind::kString);
  EXPECT_NE(lex.tokens[2].text.find("mt19937"), std::string::npos);
  EXPECT_EQ(lex.tokens[4].text, "y");
}

TEST(LexerTest, RecordsSuppressionsPerLine) {
  const auto lex = fwlint::Lex(
      "int a;  // fwlint:allow(determinism)\n"
      "int b;\n"
      "int c;  /* fwlint:allow(layering, use-after-move) */\n");
  ASSERT_EQ(lex.suppressions.count(1), 1u);
  EXPECT_EQ(lex.suppressions.at(1).count("determinism"), 1u);
  EXPECT_EQ(lex.suppressions.count(2), 0u);
  EXPECT_EQ(lex.suppressions.at(3).count("layering"), 1u);
  EXPECT_EQ(lex.suppressions.at(3).count("use-after-move"), 1u);
}

// ---------------------------------------------------------------------------
// determinism
// ---------------------------------------------------------------------------

TEST(DeterminismCheckTest, FlagsWallClockAndUnseededRng) {
  const auto diags = LintOne("src/core/bad.cc", R"cc(
    #include <chrono>
    #include <random>
    void f() {
      std::mt19937 gen;
      auto t = std::chrono::system_clock::now();
      int r = rand();
      long e = time(nullptr);
    }
  )cc");
  const auto hits = OfCheck(diags, "determinism");
  ASSERT_EQ(hits.size(), 4u);
  EXPECT_EQ(hits[0].line, 5);  // mt19937
  EXPECT_EQ(hits[1].line, 6);  // system_clock
  EXPECT_EQ(hits[2].line, 7);  // rand(
  EXPECT_EQ(hits[3].line, 8);  // time(nullptr)
}

TEST(DeterminismCheckTest, SeededRngAndSimClockAreClean) {
  const auto diags = LintOne("src/core/good.cc", R"cc(
    void f(fwsim::Simulation& sim) {
      auto now = sim.Now();
      double u = sim.rng().Uniform();
      fwbase::Rng rng(42);
      int operand = rng.Next() % 7;   // 'rand' inside an identifier is fine
    }
  )cc");
  EXPECT_TRUE(OfCheck(diags, "determinism").empty());
}

TEST(DeterminismCheckTest, AllowlistedFilesMayTouchTheOutsideWorld) {
  const std::string src = R"cc(
    #include <random>
    uint64_t SeedFromOs() { return std::random_device{}(); }
  )cc";
  EXPECT_TRUE(OfCheck(LintOne("src/base/rng.cc", src), "determinism").empty());
  EXPECT_TRUE(OfCheck(LintOne("src/obs/clock.cc", src), "determinism").empty());
  // The same content anywhere else is a violation.
  EXPECT_EQ(OfCheck(LintOne("src/mem/page_set.cc", src), "determinism").size(), 1u);
}

TEST(DeterminismCheckTest, CommentAndStringDecoysAreIgnored) {
  // The old grep flagged both of these; the token-aware check must not.
  const auto diags = LintOne("src/core/decoy.cc", R"cc(
    // A real implementation would use std::mt19937 or system_clock here,
    // but that would break determinism, so we do not.
    const char* kDoc = "never call rand() or time(nullptr) in the simulator";
    int f() { return 7; }
  )cc");
  EXPECT_TRUE(OfCheck(diags, "determinism").empty());
}

TEST(DeterminismCheckTest, SuppressionSilencesOnlyItsLineAndCheck) {
  const auto with_allow = LintOne("src/core/s.cc", R"cc(
    std::mt19937 gen;  // fwlint:allow(determinism) -- fixture generator, documented
  )cc");
  EXPECT_TRUE(OfCheck(with_allow, "determinism").empty());

  // A suppression for a *different* check does not help.
  const auto wrong_name = LintOne("src/core/s.cc", R"cc(
    std::mt19937 gen;  // fwlint:allow(layering)
  )cc");
  EXPECT_EQ(OfCheck(wrong_name, "determinism").size(), 1u);

  // And a suppression on a neighbouring line does not leak.
  const auto wrong_line = LintOne("src/core/s.cc", R"cc(
    // fwlint:allow(determinism)
    std::mt19937 gen;
  )cc");
  EXPECT_EQ(OfCheck(wrong_line, "determinism").size(), 1u);
}

// ---------------------------------------------------------------------------
// unordered-iteration
// ---------------------------------------------------------------------------

TEST(UnorderedIterationCheckTest, FlagsRangeForOverUnorderedMember) {
  const auto diags = LintOne("src/core/x.cc", R"cc(
    #include <unordered_map>
    struct Exporter {
      std::unordered_map<std::string, int> counters_;
      void Dump() {
        for (const auto& [name, value] : counters_) {
          Emit(name, value);
        }
      }
    };
  )cc");
  const auto hits = OfCheck(diags, "unordered-iteration");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 6);
}

TEST(UnorderedIterationCheckTest, FlagsIteratorWalkAndCrossFileDecl) {
  // Declaration in the header, iteration in the .cc: the registry is global.
  Analyzer a;
  a.AddFile("src/core/reg.h", R"cc(
    #include <unordered_set>
    class Registry {
      std::unordered_set<uint64_t> ids_;
      void Walk();
    };
  )cc");
  a.AddFile("src/core/reg.cc", R"cc(
    void Registry::Walk() {
      for (auto it = ids_.begin(); it != ids_.end(); ++it) {
        Touch(*it);
      }
    }
  )cc");
  const auto hits = OfCheck(a.Run(), "unordered-iteration");
  ASSERT_GE(hits.size(), 1u);
  EXPECT_EQ(hits[0].file, "src/core/reg.cc");
}

TEST(UnorderedIterationCheckTest, OrderedContainersAndLookupsAreClean) {
  const auto diags = LintOne("src/core/y.cc", R"cc(
    #include <map>
    #include <unordered_map>
    struct T {
      std::map<std::string, int> ordered_;
      std::unordered_map<std::string, int> index_;
      int Get(const std::string& k) { return index_.at(k); }  // lookup: fine
      void Dump() {
        for (const auto& [k, v] : ordered_) {  // ordered: fine
          Emit(k, v);
        }
      }
    };
  )cc");
  EXPECT_TRUE(OfCheck(diags, "unordered-iteration").empty());
}

TEST(UnorderedIterationCheckTest, DecoyAndSuppression) {
  const auto decoy = LintOne("src/core/z.cc", R"cc(
    #include <unordered_map>
    std::unordered_map<int, int> m_;
    // Do not write: for (auto& kv : m_) { ... } -- hash order leaks.
    const char* kNote = "for (auto& kv : m_)";
  )cc");
  EXPECT_TRUE(OfCheck(decoy, "unordered-iteration").empty());

  const auto allowed = LintOne("src/core/z.cc", R"cc(
    #include <unordered_map>
    std::unordered_map<int, int> m_;
    int Sum() {
      int s = 0;
      for (auto& kv : m_) {  // fwlint:allow(unordered-iteration) order-free fold
        s += kv.second;
      }
      return s;
    }
  )cc");
  EXPECT_TRUE(OfCheck(allowed, "unordered-iteration").empty());
}

// ---------------------------------------------------------------------------
// layering
// ---------------------------------------------------------------------------

TEST(LayeringCheckTest, FlagsUpwardAndCrossLayerIncludes) {
  const auto upward = LintOne("src/base/units.cc", R"cc(
    #include "src/base/units.h"
    #include "src/simcore/simulation.h"
  )cc");
  ASSERT_EQ(OfCheck(upward, "layering").size(), 1u);
  EXPECT_EQ(OfCheck(upward, "layering")[0].line, 3);

  // mem and fault are same-rank siblings: neither may include the other.
  const auto cross = LintOne("src/mem/page_set.cc", R"cc(
    #include "src/fault/fault.h"
  )cc");
  EXPECT_EQ(OfCheck(cross, "layering").size(), 1u);
}

TEST(LayeringCheckTest, DownwardAndSameLayerIncludesAreClean) {
  const auto diags = LintOne("src/core/fireworks.cc", R"cc(
    #include "src/base/status.h"
    #include "src/core/fireworks.h"
    #include "src/simcore/simulation.h"
    #include "src/storage/snapshot_store.h"
    #include "src/vmm/hypervisor.h"
  )cc");
  EXPECT_TRUE(OfCheck(diags, "layering").empty());
}

TEST(LayeringCheckTest, NonSrcFilesCommentsAndSuppressionsAreExempt) {
  // tests/ and bench/ may include any layer.
  const auto bench = LintOne("bench/fig_zzz.cc", R"cc(
    #include "src/base/units.h"
    #include "src/core/fireworks.h"
  )cc");
  EXPECT_TRUE(OfCheck(bench, "layering").empty());

  // A commented-out include is not an edge.
  const auto decoy = LintOne("src/base/units.cc", R"cc(
    // #include "src/core/fireworks.h"
    const char* kWhere = "#include \"src/core/fireworks.h\"";
  )cc");
  EXPECT_TRUE(OfCheck(decoy, "layering").empty());

  const auto allowed = LintOne("src/base/units.cc", R"cc(
    #include "src/simcore/simulation.h"  // fwlint:allow(layering) transitional edge
  )cc");
  EXPECT_TRUE(OfCheck(allowed, "layering").empty());
}

// ---------------------------------------------------------------------------
// unbounded-queue
// ---------------------------------------------------------------------------

TEST(UnboundedQueueCheckTest, FlagsDequeMembersInSrc) {
  const auto diags = LintOne("src/cluster/mailroom.h", R"cc(
    class Mailroom {
     private:
      std::deque<Request> inbox_;
      std::deque<std::pair<int, Request>> deferred_ = {};
    };
  )cc", "unbounded-queue");
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].check, "unbounded-queue");
  EXPECT_NE(diags[0].message.find("inbox_"), std::string::npos);
  EXPECT_NE(diags[1].message.find("deferred_"), std::string::npos);
}

TEST(UnboundedQueueCheckTest, FlagsQueueNamedVectorMembersOnly) {
  const auto diags = LintOne("src/cluster/dispatch.h", R"cc(
    class Dispatch {
      std::vector<Request> pending_queue_;   // flagged: queue-named vector
      std::vector<HostView> host_views_;     // clean: not queue-ish
      std::vector<double> latencies_;        // clean: sample buffer
    };
  )cc", "unbounded-queue");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("pending_queue_"), std::string::npos);
}

TEST(UnboundedQueueCheckTest, LocalsReferencesAndNestedTemplateArgsAreClean) {
  const auto diags = LintOne("src/cluster/clean.cc", R"cc(
    void F(std::deque<int>& borrowed_) {
      std::deque<int> local_scratch;          // local: bounded by scope
      std::deque<int>* view_ = nullptr;       // pointer member: not the owner
      std::map<std::string, std::deque<int>> by_app_;  // deque is a nested arg
      (void)local_scratch;
    }
  )cc", "unbounded-queue");
  EXPECT_TRUE(diags.empty());
}

TEST(UnboundedQueueCheckTest, NonSrcPathsDecoysAndSuppressionsAreExempt) {
  EXPECT_TRUE(LintOne("tests/helper.h", "struct H { std::deque<int> backlog_; };",
                      "unbounded-queue")
                  .empty());
  const auto diags = LintOne("src/cluster/mixed.h", R"cc(
    class Mixed {
      // std::deque<int> commented_out_;
      const char* doc_ = "std::deque<int> in_a_string_;";
      std::deque<int> bounded_;  // fwlint:allow(unbounded-queue) capped by Admit()
    };
  )cc", "unbounded-queue");
  EXPECT_TRUE(diags.empty());
}

// ---------------------------------------------------------------------------
// Analyzer plumbing
// ---------------------------------------------------------------------------

TEST(AnalyzerTest, RegistryCollectsDeclaredReturnTypes) {
  Analyzer a;
  a.AddFile("src/core/api.h", R"cc(
    Status Alpha(int x);
    fwbase::Result<std::vector<int>> Beta();
    StatusOr<int> Gamma(double d);
    fwsim::Co<Status> Delta();
    void Epsilon(Status s);     // parameter, not a return type
    int Zeta();
  )cc");
  (void)a.Run();
  EXPECT_EQ(a.coro_functions(), std::set<std::string>{"Delta"});
}

TEST(AnalyzerTest, CheckFilterRunsOnlyRequestedChecks) {
  const std::string src = R"cc(
    #include "src/core/fireworks.h"
    std::mt19937 gen;
  )cc";
  const auto only_layering = LintOne("src/base/bad.cc", src, "layering");
  ASSERT_EQ(only_layering.size(), 1u);
  EXPECT_EQ(only_layering[0].check, "layering");
  const auto only_det = LintOne("src/base/bad.cc", src, "determinism");
  ASSERT_EQ(only_det.size(), 1u);
  EXPECT_EQ(only_det[0].check, "determinism");
}

// ---------------------------------------------------------------------------
// hot-path-logging
// ---------------------------------------------------------------------------

TEST(HotPathLoggingCheckTest, FlagsInfoLogInsideProfiledScope) {
  const auto diags = LintOne("src/msgbus/broker.cc", R"cc(
    void Broker::Produce() {
      FW_PROFILE_SCOPE_ID(profiler_, produce_scope_);
      FW_LOG(kInfo, "produced %llu", seq);
    }
  )cc");
  const auto hits = OfCheck(diags, "hot-path-logging");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 4);
  EXPECT_NE(hits[0].message.find("kInfo"), std::string::npos);
}

TEST(HotPathLoggingCheckTest, ScopeEndsWithItsBlock) {
  // The same log after the profiled block closes is fine; so is a log in a
  // sibling function. Nested blocks inside the scope stay hot.
  const auto diags = LintOne("src/mem/address_space.cc", R"cc(
    void AddressSpace::AccessRange() {
      {
        FW_PROFILE_SCOPE_ID(profiler, page_walk_scope_);
        if (miss) {
          FW_LOG(kDebug, "fault");      // hot: nested block, scope still open
        }
      }
      FW_LOG(kInfo, "range done");      // cold: scope closed with its block
    }
    void AddressSpace::Unrelated() { FW_LOG(kTrace, "free"); }
  )cc");
  const auto hits = OfCheck(diags, "hot-path-logging");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 6);
}

TEST(HotPathLoggingCheckTest, HandRolledGuardAndSeverityBoundary) {
  // A ProfileScope declared without the macro registers the hot path too;
  // kWarning and above stay allowed inside it.
  const auto diags = LintOne("src/simcore/simulation.cc", R"cc(
    void Simulation::StepOne() {
      fwobs::ProfileScope guard(profiler_, dispatch_scope_);
      FW_LOG(kWarning, "slow event");
      FW_LOG(kError, "handler threw");
      FW_LOG(kTrace, "dispatching");
    }
  )cc");
  const auto hits = OfCheck(diags, "hot-path-logging");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 6);
  EXPECT_NE(hits[0].message.find("kTrace"), std::string::npos);
}

TEST(HotPathLoggingCheckTest, ClassDeclAndNonSrcFilesAreIgnored) {
  // `class ProfileScope {` is the declaration site, not a guard; and bench/
  // tools/ code never registers hot paths.
  EXPECT_TRUE(OfCheck(LintOne("src/obs/profiler.h", R"cc(
    class ProfileScope {
     public:
      void Log() { FW_LOG(kInfo, "not a guard"); }
    };
  )cc"),
                      "hot-path-logging")
                  .empty());
  EXPECT_TRUE(OfCheck(LintOne("bench/cluster_scale.cc", R"cc(
    void Run() {
      FW_PROFILE_SCOPE_ID(p, run_scope_);
      FW_LOG(kInfo, "progress");
    }
  )cc"),
                      "hot-path-logging")
                  .empty());
}

TEST(HotPathLoggingCheckTest, SuppressionSilencesItsLine) {
  const auto diags = LintOne("src/cluster/cluster.cc", R"cc(
    void Cluster::Dispatch() {
      FW_PROFILE_SCOPE_ID(&obs_.profiler(), dispatch_scope_);
      FW_LOG(kInfo, "rare admission edge");  // fwlint:allow(hot-path-logging)
    }
  )cc");
  EXPECT_TRUE(OfCheck(diags, "hot-path-logging").empty());
}

TEST(AnalyzerTest, DiagnosticsAreSortedAndFormatted) {
  Analyzer a;
  a.AddFile("src/mem/b.cc", "std::mt19937 g2;");
  a.AddFile("src/base/a.cc", "std::mt19937 g1;\n#include \"src/core/fireworks.h\"");
  const auto diags = a.Run();
  ASSERT_EQ(diags.size(), 3u);
  EXPECT_EQ(diags[0].file, "src/base/a.cc");
  EXPECT_EQ(diags[0].line, 1);
  EXPECT_EQ(diags[1].file, "src/base/a.cc");
  EXPECT_EQ(diags[1].check, "layering");
  EXPECT_EQ(diags[2].file, "src/mem/b.cc");
  const std::string s = diags[0].ToString();
  EXPECT_NE(s.find("src/base/a.cc:1: [determinism]"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Parser (structural recovery + flow summary)
// ---------------------------------------------------------------------------

fwlint::ParseResult ParseSrc(const std::string& src, std::vector<fwlint::Token>* tokens) {
  const fwlint::LexResult lex = fwlint::Lex(src);
  *tokens = lex.tokens;
  return fwlint::Parse(*tokens);
}

TEST(ParserTest, RecognisesFunctionsCoroutinesAndParams) {
  std::vector<fwlint::Token> t;
  const fwlint::ParseResult p = ParseSrc(R"(
    Co<int> Store::Fetch(const std::string& key, std::string_view hint, int n) {
      co_await Tick();
      co_return n;
    }
    Status Flush(Buffer* buf);
  )",
                                         &t);
  ASSERT_EQ(p.functions.size(), 2u);
  const fwlint::FunctionInfo& fetch = p.functions[0];
  EXPECT_EQ(fetch.name, "Fetch");
  EXPECT_EQ(fetch.qualified, "Store::Fetch");
  EXPECT_TRUE(fetch.returns_co);
  EXPECT_TRUE(fetch.is_coroutine);
  EXPECT_EQ(fetch.awaits.size(), 1u);
  ASSERT_EQ(fetch.params.size(), 3u);
  EXPECT_TRUE(fetch.params[0].is_ref);
  EXPECT_EQ(fetch.params[0].name, "key");
  EXPECT_TRUE(fetch.params[1].is_view);
  EXPECT_FALSE(fetch.params[2].is_ref);
  const fwlint::FunctionInfo& flush = p.functions[1];
  EXPECT_FALSE(flush.returns_co);
  EXPECT_FALSE(flush.has_body);
  ASSERT_EQ(flush.params.size(), 1u);
  EXPECT_TRUE(flush.params[0].is_ptr);
}

TEST(ParserTest, FlowQueriesModelBranchesLoopsAndExits) {
  std::vector<fwlint::Token> t;
  const fwlint::ParseResult p = ParseSrc(R"(
    void F(bool c) {
      int a = 1;
      if (c) {
        int b = 2;
        return;
      } else {
        int d = 3;
      }
      while (c) {
        int e = 4;
      }
      int g = 5;
    }
  )",
                                         &t);
  auto find = [&t](const char* name) {
    for (size_t i = 0; i < t.size(); ++i) {
      if (t[i].ident(name)) return i;
    }
    return t.size();
  };
  const size_t a = find("a"), b = find("b"), d = find("d"), e = find("e"), g = find("g");
  EXPECT_TRUE(p.Dominates(a, g));
  EXPECT_FALSE(p.Dominates(b, g));  // b's block does not enclose g
  EXPECT_TRUE(p.InSiblingArms(b, d));
  EXPECT_FALSE(p.Reaches(b, d));  // opposite arms of one if/else
  EXPECT_FALSE(p.Reaches(b, g));  // the then-arm returns before reaching g
  EXPECT_TRUE(p.Reaches(d, g));
  EXPECT_GE(p.EnclosingLoop(e), 0);
  EXPECT_EQ(p.EnclosingLoop(g), -1);
}

TEST(ParserTest, NestedLambdaCoroutinenessStaysWithTheInnerFrame) {
  // The ablation-bench shape: a plain [&] wrapper whose *nested* lambda is
  // the coroutine. The outer lambda owes no frame-lifetime obligations.
  std::vector<fwlint::Token> t;
  const fwlint::ParseResult p = ParseSrc(R"(
    void Drive(Sim& sim) {
      auto reinstall = [&](int i) {
        return RunSync(sim, [](Sim& s, int n) -> Co<int> {
          co_await Tick(s);
          co_return n;
        }(sim, i));
      };
      reinstall(1);
    }
  )",
                                         &t);
  ASSERT_EQ(p.lambdas.size(), 2u);
  EXPECT_FALSE(p.lambdas[0].is_coroutine);  // outer [&] wrapper
  EXPECT_TRUE(p.lambdas[0].captures_default_ref);
  EXPECT_TRUE(p.lambdas[1].is_coroutine);  // inner worker
  ASSERT_EQ(p.functions.size(), 1u);
  EXPECT_FALSE(p.functions[0].is_coroutine);  // Drive itself never suspends
  // And the whole shape produces no suspend-lifetime finding.
  const auto diags = LintOne("src/drive.cc", R"(
    void Drive(Sim& sim) {
      auto reinstall = [&](int i) {
        return RunSync(sim, [](Sim& s, int n) -> Co<int> {
          co_await Tick(s);
          co_return n;
        }(sim, i));
      };
      reinstall(1);
    }
  )",
                             "suspend-lifetime");
  EXPECT_TRUE(diags.empty());
}

TEST(ParserTest, MalformedInputDegradesToNoFindingNeverCrash) {
  // Macros, unbalanced braces, templates mid-edit, and expression soup must
  // parse to "nothing recognised" (or a harmless subset) — and running every
  // check over them must not crash or invent findings.
  const char* kFixtures[] = {
      "#define FW_WRAP(x) do { x } while (0)\nFW_WRAP(broken",
      "template <typename T, typename... Args>\nauto Make(Args&&... args) -> "
      "decltype(T(std::forward<Args>(args)...));",
      "Co<void> Half(std::string_view name) {\n  co_await ",
      "int a = b < c, d = e > f;\nauto r = R\"(co_await std::move(x) "
      "steady_clock::now())\";",
      "struct { int x; } anon; if (x) { } else while",
      "}}}}))));;;{{{",
  };
  for (const char* fx : kFixtures) {
    const auto diags = LintOne("tests/fx.cc", fx);
    EXPECT_TRUE(OfCheck(diags, "suspend-lifetime").empty()) << fx;
    EXPECT_TRUE(OfCheck(diags, "use-after-move").empty()) << fx;
    EXPECT_TRUE(OfCheck(diags, "iterator-invalidation").empty()) << fx;
  }
}

// ---------------------------------------------------------------------------
// suspend-lifetime
// ---------------------------------------------------------------------------

TEST(SuspendLifetimeCheckTest, FlagsViewParamReadAfterAwait) {
  const auto diags = LintOne("tests/fx.cc", R"(
    Co<int> Echo(std::string_view name) {
      co_await Tick();
      co_return Use(name);
    }
  )",
                             "suspend-lifetime");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("view parameter 'name'"), std::string::npos);
}

TEST(SuspendLifetimeCheckTest, FlagsDetachedRefParamOnlyUnderSrc) {
  // The ref-param leg needs the coroutine to actually be detached (Spawned)
  // and only applies under src/: test and bench drivers join via sim.Run().
  const std::string fixture = R"(
    Co<void> Pump(std::vector<int>& xs) {
      co_await Tick();
      xs.push_back(1);
    }
    void Start(Sim& sim, std::vector<int>& v) {
      sim.Spawn(Pump(v));
    }
  )";
  const auto in_src = LintOne("src/pump.cc", fixture, "suspend-lifetime");
  ASSERT_EQ(in_src.size(), 1u);
  EXPECT_NE(in_src[0].message.find("detached coroutine 'Pump'"), std::string::npos);
  EXPECT_TRUE(LintOne("tests/pump.cc", fixture, "suspend-lifetime").empty());
}

TEST(SuspendLifetimeCheckTest, FlagsViewLocalBoundToTemporary) {
  const auto diags = LintOne("tests/fx.cc", R"(
    Co<void> Label(const Request& req) {
      std::string_view tag = req.name().substr(0, 4);
      co_await Tick();
      Use(tag);
    }
  )",
                             "suspend-lifetime");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("view local 'tag'"), std::string::npos);
}

TEST(SuspendLifetimeCheckTest, FlagsRefCapturingCoroutineLambda) {
  const auto diags = LintOne("tests/fx.cc", R"(
    void Kick(Sim& sim, int total) {
      sim.Spawn([&]() -> Co<void> {
        co_await Tick();
        Use(total);
      }());
    }
  )",
                             "suspend-lifetime");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("captures by reference"), std::string::npos);
}

TEST(SuspendLifetimeCheckTest, PreAwaitReadsValueParamsAndRefLocalsAreClean) {
  const auto diags = LintOne("src/fx.cc", R"(
    Co<int> Echo(std::string_view name, std::string owned) {
      int n = Use(name);
      co_await Tick();
      co_return n + Use(owned);
    }
    Co<void> Hold(const Request& req) {
      const std::string& ref = req.name();
      co_await Tick();
      Use(ref);
    }
  )",
                             "suspend-lifetime");
  EXPECT_TRUE(diags.empty());
}

TEST(SuspendLifetimeCheckTest, DecoyAndSuppression) {
  // String/comment decoys never count; a same-line allow silences the rest.
  const auto decoy = LintOne("tests/fx.cc", R"(
    void Doc() {
      // Co<void> F(std::string_view v) { co_await Tick(); Use(v); }
      const char* note = "co_await after string_view is a bug";
      Use(note);
    }
  )",
                             "suspend-lifetime");
  EXPECT_TRUE(decoy.empty());
  const auto suppressed = LintOne("tests/fx.cc", R"(
    Co<int> Echo(std::string_view name) {
      co_await Tick();
      co_return Use(name);  // fwlint:allow(suspend-lifetime)
    }
  )",
                                  "suspend-lifetime");
  EXPECT_TRUE(suppressed.empty());
}

// ---------------------------------------------------------------------------
// use-after-move
// ---------------------------------------------------------------------------

TEST(UseAfterMoveCheckTest, FlagsStraightLineReadAfterMove) {
  const auto diags = LintOne("tests/fx.cc", R"(
    void Consume() {
      std::string a = Name();
      Sink(std::move(a));
      Use(a);
    }
  )",
                             "use-after-move");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("after std::move('a')"), std::string::npos);
}

TEST(UseAfterMoveCheckTest, FlagsMoveInLoopWithoutReset) {
  const auto diags = LintOne("tests/fx.cc", R"(
    void Drain() {
      std::string acc = First();
      while (More()) {
        Sink(std::move(acc));
      }
    }
  )",
                             "use-after-move");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("inside a loop"), std::string::npos);
}

TEST(UseAfterMoveCheckTest, KillsBranchesExitsAndLoopHeadersAreClean) {
  const auto diags = LintOne("tests/fx.cc", R"(
    void Recycle() {
      std::string a = Name();
      Sink(std::move(a));
      a = Name();
      Use(a);
    }
    void Branch(bool c) {
      std::string b = Name();
      if (c) {
        Sink(std::move(b));
      } else {
        Use(b);
      }
    }
    std::string Give(std::string c) {
      return std::move(c);
    }
    void PerItem(std::vector<std::string> items) {
      for (std::string d : items) {
        Sink(std::move(d));
      }
    }
  )",
                             "use-after-move");
  EXPECT_TRUE(diags.empty());
}

TEST(UseAfterMoveCheckTest, DecoyAndSuppression) {
  const auto decoy = LintOne("tests/fx.cc", R"fx(
    void Doc() {
      // Sink(std::move(a)); Use(a); is the canonical bug
      const char* note = "std::move(a) then Use(a)";
      Use(note);
    }
  )fx",
                             "use-after-move");
  EXPECT_TRUE(decoy.empty());
  const auto suppressed = LintOne("tests/fx.cc", R"(
    void Consume() {
      std::string a = Name();
      Sink(std::move(a));
      Use(a);  // fwlint:allow(use-after-move)
    }
  )",
                                  "use-after-move");
  EXPECT_TRUE(suppressed.empty());
}

// ---------------------------------------------------------------------------
// iterator-invalidation
// ---------------------------------------------------------------------------

TEST(IteratorInvalidationCheckTest, FlagsUseAfterContainerMutation) {
  const auto diags = LintOne("tests/fx.cc", R"(
    void Rebalance(std::map<int, int>& scores) {
      auto it = scores.find(3);
      scores.insert({4, 4});
      Use(it->second);
    }
  )",
                             "iterator-invalidation");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("'scores.insert(...)'"), std::string::npos);
}

TEST(IteratorInvalidationCheckTest, FlagsMemberIteratorHeldAcrossAwait) {
  const auto diags = LintOne("tests/fx.cc", R"(
    Co<void> Touch() {
      auto it = items_.find(3);
      co_await Tick();
      Use(it->second);
    }
  )",
                             "iterator-invalidation");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("held across the co_await"), std::string::npos);
}

TEST(IteratorInvalidationCheckTest, RelookupSameStatementAndLocalLifetimesAreClean) {
  const auto diags = LintOne("tests/fx.cc", R"(
    void Rebalance(std::map<int, int>& scores) {
      auto it = scores.find(3);
      scores.insert({4, 4});
      it = scores.find(3);
      Use(it->second);
    }
    Co<void> Consume() {
      auto it = items_.find(3);
      co_await Eat(it->second);
    }
    Co<void> LocalOnly() {
      std::map<int, int> local;
      auto it = local.find(3);
      co_await Tick();
      Use(it->second);
    }
  )",
                             "iterator-invalidation");
  EXPECT_TRUE(diags.empty());
}

TEST(IteratorInvalidationCheckTest, DecoyAndSuppression) {
  const auto decoy = LintOne("tests/fx.cc", R"(
    void Doc(std::map<int, int>& scores, std::map<int, int>& other) {
      auto it = scores.find(3);
      other.insert({4, 4});  // a different container: it stays valid
      Use(it->second);
      // auto bad = scores.find(3); scores.clear(); Use(bad->second);
    }
  )",
                             "iterator-invalidation");
  EXPECT_TRUE(decoy.empty());
  const auto suppressed = LintOne("tests/fx.cc", R"(
    void Rebalance(std::map<int, int>& scores) {
      auto it = scores.find(3);
      scores.insert({4, 4});
      Use(it->second);  // fwlint:allow(iterator-invalidation)
    }
  )",
                                  "iterator-invalidation");
  EXPECT_TRUE(suppressed.empty());
}

// ---------------------------------------------------------------------------
// snapshot-captured-identity
// ---------------------------------------------------------------------------

TEST(SnapshotCapturedIdentityCheckTest, FlagsHostEntropyReadsInGuestLayers) {
  const auto diags = LintOne("src/lang/runtime_x.cc", R"cc(
    uint64_t MintId(fwsim::Simulation& sim) {
      uint64_t raw = sim.rng().NextU64();
      uint64_t os = getrandom();
      return raw ^ os;
    }
  )cc");
  const auto hits = OfCheck(diags, "snapshot-captured-identity");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].line, 3);  // sim.rng()
  EXPECT_EQ(hits[1].line, 4);  // getrandom
  EXPECT_NE(hits[0].message.find("GuestRandomU64"), std::string::npos);
}

TEST(SnapshotCapturedIdentityCheckTest, GuestFacilityAndLowerLayersAreClean) {
  // The generation-aware facility itself is the sanctioned route.
  const auto facility = LintOne("src/core/plat.cc", R"cc(
    fwsim::Co<void> Resume(fwlang::GuestProcess& p, fwvmm::Hypervisor& hv, uint64_t gen) {
      co_await p.ReseedFromHostEntropy(gen, hv.DrawGuestEntropy());
      uint64_t id = p.NextRequestId();
      (void)id;
    }
  )cc");
  EXPECT_TRUE(OfCheck(facility, "snapshot-captured-identity").empty());
  // Layers below the guest boundary host the real sources; out of scope.
  const std::string source = "uint64_t Draw(Rng& r) { return r.rng().NextU64(); }";
  EXPECT_TRUE(
      OfCheck(LintOne("src/vmm/hypervisor.cc", source), "snapshot-captured-identity").empty());
  EXPECT_TRUE(
      OfCheck(LintOne("src/base/rng.cc", source), "snapshot-captured-identity").empty());
}

TEST(SnapshotCapturedIdentityCheckTest, DrawGuestEntropyBypassFlaggedOnlyInLang) {
  const std::string source =
      "uint64_t Seed(fwvmm::Hypervisor& hv) { return hv.DrawGuestEntropy(); }";
  EXPECT_EQ(OfCheck(LintOne("src/lang/guest_x.cc", source), "snapshot-captured-identity").size(),
            1u);
  EXPECT_TRUE(
      OfCheck(LintOne("src/core/fireworks_x.cc", source), "snapshot-captured-identity").empty());
}

TEST(SnapshotCapturedIdentityCheckTest, DecoyAndSuppression) {
  // Members/locals merely named rng (no call) and comment/string mentions
  // must not trip the token scan.
  const auto decoy = LintOne("src/lang/decoy.cc", R"cc(
    // getrandom() at boot is exactly what we model, not what we call.
    const char* kDoc = "never read random_device from the guest";
    struct S { int rng; };
    int f(S& s) { return s.rng; }
  )cc");
  EXPECT_TRUE(OfCheck(decoy, "snapshot-captured-identity").empty());

  const auto suppressed = LintOne("src/core/host_only.cc", R"cc(
    double Jitter(fwsim::Simulation& sim) {
      return sim.rng().UniformDouble();  // fwlint:allow(snapshot-captured-identity)
    }
  )cc");
  EXPECT_TRUE(OfCheck(suppressed, "snapshot-captured-identity").empty());
  EXPECT_TRUE(OfCheck(suppressed, "stale-suppression").empty());
}

// ---------------------------------------------------------------------------
// stale-suppression
// ---------------------------------------------------------------------------

TEST(StaleSuppressionCheckTest, FlagsAllowMatchingNoFinding) {
  const auto diags = LintOne("tests/fx.cc", R"(
    int Answer() {
      return 42;  // fwlint:allow(use-after-move)
    }
  )");
  const auto stale = OfCheck(diags, "stale-suppression");
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].line, 3);
  EXPECT_NE(stale[0].message.find("fwlint:allow(use-after-move)"), std::string::npos);
}

TEST(StaleSuppressionCheckTest, EffectiveAllowIsNotStale) {
  const auto diags = LintOne("tests/fx.cc", R"(
    void Consume() {
      std::string a = Name();
      Sink(std::move(a));
      Use(a);  // fwlint:allow(use-after-move)
    }
  )");
  EXPECT_TRUE(OfCheck(diags, "stale-suppression").empty());
  EXPECT_TRUE(OfCheck(diags, "use-after-move").empty());
}

// A per-line allow is the only way to accept a finding, so no allow may hide
// the report that an allow on its line is stale.
TEST(StaleSuppressionCheckTest, CannotItselfBeSuppressed) {
  for (const std::string allow : {"all", "stale-suppression"}) {
    SCOPED_TRACE(allow);
    const auto diags = LintOne("tests/fx.cc", "int Answer() {\n  return 42;  // fwlint:allow(" +
                                                  allow + ")\n}\n");
    const auto stale = OfCheck(diags, "stale-suppression");
    EXPECT_EQ(stale.size(), 1u);
    for (const Diagnostic& d : stale) {
      EXPECT_EQ(d.line, 2);
      EXPECT_NE(d.message.find("fwlint:allow(" + allow + ")"), std::string::npos) << d.message;
    }
  }
}

}  // namespace
