// Seeded mutation fuzzing of the parsers that read text from outside the
// program: fault plans (the benches' --faults=), function definitions
// (examples/define_function) and snapshot manifests (the registry's wire
// format). Every mutant must come back as a value or a status; a crash, an
// abort or a sanitizer report fails the test. A fixed seed replays the same
// mutants on every run, so a failure reproduces exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/units.h"
#include "src/fault/fault.h"
#include "src/lang/json.h"
#include "src/lang/source_text.h"
#include "src/storage/manifest.h"
#include "src/workloads/faasdom.h"

namespace {

constexpr int kMutantsPerParser = 20'000;
constexpr uint64_t kFuzzSeed = 0x5EED'F022;

// Tokens that byte edits rarely build: non-finite numbers, a finite number
// past 2^64 (a count cast from it would be undefined), escapes, JSON
// punctuation, and a nesting run far deeper than any recursion bound.
const std::vector<std::string>& Dictionary() {
  static const std::vector<std::string> tokens = {
      "nan", "inf", "-", "1e999", "1e300", "\\u", "\\ud800", "\"", "[", "]", "{", "}", ",",
      ":", "=", "null", std::string(100'000, '[')};
  return tokens;
}

// Characters that end a field in the fault-plan and JSON grammars.
constexpr char kDelimiters[] = "=,:[]{}\"";

// One mutant of `seed`: one to four edits, each a bit flip, a deleted range,
// a truncation, a duplicated range, a dictionary token inserted, or a
// dictionary token in place of the field after a delimiter (so whole values
// such as "0.05" in "kind=0.05" become "nan" or a deep nesting run).
std::string Mutate(const std::string& seed, fwbase::Rng& rng) {
  const std::vector<std::string>& dict = Dictionary();
  std::string s = seed;
  const int edits = 1 + static_cast<int>(rng.UniformU64(4));
  for (int e = 0; e < edits; ++e) {
    const size_t pos = rng.UniformU64(s.size() + 1);
    switch (rng.UniformU64(6)) {
      case 0:
        if (pos < s.size()) {
          s[pos] = static_cast<char>(s[pos] ^ (1 << rng.UniformU64(8)));
        }
        break;
      case 1:
        s.erase(pos, 1 + rng.UniformU64(8));
        break;
      case 2:
        s.resize(pos);
        break;
      case 3: {
        const std::string range = s.substr(pos, 1 + rng.UniformU64(16));
        s.insert(rng.UniformU64(s.size() + 1), range);
        break;
      }
      case 4:
        s.insert(pos, dict[rng.UniformU64(dict.size())]);
        break;
      default: {
        const std::string& token = dict[rng.UniformU64(dict.size())];
        const size_t delim = s.find_first_of(kDelimiters, pos);
        const size_t start = delim == std::string::npos ? s.size() : delim + 1;
        const size_t end = std::min(s.find_first_of(kDelimiters, start), s.size());
        s.replace(start, end - start, token);
        break;
      }
    }
  }
  return s;
}

// Feeds kMutantsPerParser mutants of `seeds` to `parse`, which returns
// whether its input parsed. Every seed must parse, and the mutants must
// include both outcomes: all accepted or all rejected would mean the
// mutator stopped exercising the parser.
void Fuzz(const std::vector<std::string>& seeds,
          const std::function<bool(const std::string&)>& parse) {
  for (const std::string& seed : seeds) {
    ASSERT_TRUE(parse(seed)) << seed;
  }
  fwbase::Rng rng(kFuzzSeed);
  int accepted = 0;
  for (int i = 0; i < kMutantsPerParser; ++i) {
    const std::string& seed = seeds[rng.UniformU64(seeds.size())];
    if (parse(Mutate(seed, rng))) {
      ++accepted;
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kMutantsPerParser);
}

TEST(ParserFuzzTest, FaultPlanParse) {
  Fuzz({"none", "disk_read_error=1", "vm_crash_on_resume=0.05",
        "vm_crash_on_resume=0.05,broker_drop_message=0.1,disk_read_error=0"},
       [](const std::string& text) { return fwfault::FaultPlan::Parse(text).ok(); });
}

TEST(ParserFuzzTest, FunctionSourceAndJson) {
  std::vector<std::string> seeds;
  for (const fwlang::Language language : {fwlang::Language::kNodeJs, fwlang::Language::kPython}) {
    for (const fwwork::FaasdomBench bench : fwwork::AllFaasdomBenches()) {
      seeds.push_back(fwlang::FunctionSourceToJson(fwwork::MakeFaasdom(bench, language)));
    }
  }
  Fuzz(seeds, [](const std::string& text) {
    const bool json_ok = fwlang::ParseJson(text).ok();
    const bool source_ok = fwlang::ParseFunctionSource(text).ok();
    EXPECT_TRUE(json_ok || !source_ok) << "a function definition parsed but is not JSON";
    return source_ok;
  });
}

TEST(ParserFuzzTest, SnapshotManifestParse) {
  fwstore::SnapshotManifest m;
  m.app = "faas-fact-nodejs";
  fwstore::LayerManifest base;
  base.key = "base/nodejs";
  base.kind = fwstore::LayerKind::kBase;
  base.chunks = {{0x1234'5678'9ABC'DEF0, 4 << 20}, {0x0FED'CBA9'8765'4321, 1 << 20}};
  fwstore::LayerManifest delta;
  delta.key = "delta/faas-fact-nodejs";
  delta.chunks = {{0x2A, 256 << 10}};
  m.layers = {base, delta};
  m.image_bytes = base.bytes() + delta.bytes();
  const std::string no_working_set = m.ToJson();
  m.working_set = {{0, 8}, {32, 4}};
  m.working_set_bytes = m.working_set_pages() * fwbase::kPageSize;
  Fuzz({no_working_set, m.ToJson()}, [](const std::string& text) {
    return fwstore::SnapshotManifest::Parse(text).ok();
  });
}

}  // namespace
