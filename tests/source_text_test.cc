// Tests for the JSON value type/parser and the textual function-definition
// format (parse, validation errors, serialization round trips).
#include <gtest/gtest.h>

#include "src/lang/json.h"
#include "src/lang/source_text.h"
#include "src/workloads/faasdom.h"
#include "src/workloads/serverlessbench.h"

namespace fwlang {
namespace {

using fwbase::StatusCode;

// ---------------------------------------------------------------------------
// JSON parser.
// ---------------------------------------------------------------------------

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_TRUE(ParseJson("true")->AsBool());
  EXPECT_FALSE(ParseJson("false")->AsBool());
  EXPECT_DOUBLE_EQ(ParseJson("42")->AsNumber(), 42.0);
  EXPECT_DOUBLE_EQ(ParseJson("-3.25e2")->AsNumber(), -325.0);
  EXPECT_EQ(ParseJson("\"hi\"")->AsString(), "hi");
}

TEST(JsonTest, ParsesNestedStructures) {
  auto value = ParseJson(R"({"a": [1, 2, {"b": "c"}], "d": {"e": null}})");
  ASSERT_TRUE(value.ok());
  ASSERT_TRUE(value->is_object());
  const JsonValue* a = value->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->AsArray().size(), 3u);
  EXPECT_EQ(a->AsArray()[2].Find("b")->AsString(), "c");
  EXPECT_TRUE(value->Find("d")->Find("e")->is_null());
  EXPECT_EQ(value->Find("missing"), nullptr);
}

TEST(JsonTest, HandlesEscapes) {
  auto value = ParseJson(R"("line\nbreak \"quoted\" back\\slash")");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->AsString(), "line\nbreak \"quoted\" back\\slash");
}

TEST(JsonTest, HandlesUnicodeEscapes) {
  // \uXXXX decodes to UTF-8, including surrogate pairs; unpaired surrogates
  // degrade to U+FFFD instead of failing the document.
  EXPECT_EQ(ParseJson("\"A\\u00e9\\u03c0\\u20ac\"")->AsString(),
            "A\xc3\xa9\xcf\x80\xe2\x82\xac");
  EXPECT_EQ(ParseJson("\"\\ud83d\\ude00\"")->AsString(), "\xf0\x9f\x98\x80");
  EXPECT_EQ(ParseJson("\"\\ud800x\"")->AsString(), "\xef\xbf\xbdx");
  EXPECT_FALSE(ParseJson("\"\\u12g4\"").ok());
  EXPECT_FALSE(ParseJson("\"\\u12\"").ok());
}

TEST(JsonTest, NestingDeeperThanTheBoundIsAStatus) {
  // The parser recurses once per level: a million '[' must come back as a
  // status, not overflow the stack.
  const std::string deep(1'000'000, '[');
  auto value = ParseJson(deep);
  ASSERT_FALSE(value.ok());
  EXPECT_NE(value.status().message().find("nesting deeper than"), std::string::npos)
      << value.status().ToString();
  EXPECT_FALSE(ParseFunctionSource(deep).ok());
  // Exactly kMaxJsonDepth levels still parse; one more does not.
  const std::string at_bound =
      std::string(kMaxJsonDepth, '[') + std::string(kMaxJsonDepth, ']');
  EXPECT_TRUE(ParseJson(at_bound).ok());
  EXPECT_FALSE(ParseJson("[" + at_bound + "]").ok());
  EXPECT_FALSE(ParseJson("{\"a\":" + at_bound + "}").ok());
}

TEST(JsonTest, WhitespaceTolerant) {
  auto value = ParseJson("  {\n\t\"k\" :\r [ 1 ,2 ]\n}  ");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->Find("k")->AsArray().size(), 2u);
}

TEST(JsonTest, RejectsMalformedInput) {
  for (const char* bad : {"", "{", "[1,", "{\"a\":}", "tru", "\"unterminated",
                          "{\"a\":1,}", "[1 2]", "{\"a\":1}{", "nan", "01abc"}) {
    auto value = ParseJson(bad);
    EXPECT_FALSE(value.ok()) << bad;
    EXPECT_EQ(value.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(JsonTest, RejectsDuplicateKeys) {
  auto value = ParseJson(R"({"a": 1, "a": 2})");
  EXPECT_FALSE(value.ok());
  EXPECT_NE(value.status().message().find("duplicate"), std::string::npos);
}

TEST(JsonTest, SerializationRoundTrip) {
  const char* text = R"({"arr":[1,2.5,"s"],"flag":true,"nested":{"x":null}})";
  auto value = ParseJson(text);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(JsonToString(*value), text);
}


// ---------------------------------------------------------------------------
// Function definitions.
// ---------------------------------------------------------------------------

constexpr char kFactJson[] = R"({
  "name": "fact-from-json",
  "language": "nodejs",
  "entry": "main",
  "package_kib": 2048,
  "methods": [
    {"name": "factorize", "code_kib": 2,
     "ops": [["compute", 300000, 0.97], ["alloc_heap", 458752]]},
    {"name": "main",
     "ops": [["call", "factorize", 100], ["net_send", 579]]}
  ]
})";

TEST(SourceTextTest, ParsesCompleteDefinition) {
  auto fn = ParseFunctionSource(kFactJson);
  ASSERT_TRUE(fn.ok()) << fn.status().ToString();
  EXPECT_EQ(fn->name, "fact-from-json");
  EXPECT_EQ(fn->language, Language::kNodeJs);
  EXPECT_EQ(fn->entry_method, "main");
  EXPECT_EQ(fn->package_bytes, 2048u * 1024);
  ASSERT_EQ(fn->methods.size(), 2u);
  const MethodDef* factorize = fn->FindMethod("factorize");
  ASSERT_NE(factorize, nullptr);
  EXPECT_EQ(factorize->code_bytes, 2048u);
  ASSERT_EQ(factorize->ops.size(), 2u);
  EXPECT_EQ(factorize->ops[0].kind, OpKind::kCompute);
  EXPECT_EQ(factorize->ops[0].amount, 300000u);
  EXPECT_DOUBLE_EQ(factorize->ops[0].friendliness, 0.97);
  const MethodDef* main_method = fn->FindMethod("main");
  EXPECT_EQ(main_method->ops[0].kind, OpKind::kCall);
  EXPECT_EQ(main_method->ops[0].repeat, 100u);
}

TEST(SourceTextTest, AllOpKindsParse) {
  auto fn = ParseFunctionSource(R"({
    "name": "kitchen-sink", "language": "python", "entry": "main",
    "methods": [{"name": "main", "ops": [
      ["compute", 1000],
      ["disk_read", 4096, 10],
      ["disk_write", 4096],
      ["net_send", 579],
      ["db_put", "wages", 800],
      ["db_get", "wages", "w1"],
      ["db_scan", "wages"],
      ["alloc_heap", 65536],
      ["call", "main", 0]
    ]}]
  })");
  ASSERT_TRUE(fn.ok()) << fn.status().ToString();
  const auto& ops = fn->methods[0].ops;
  ASSERT_EQ(ops.size(), 9u);
  EXPECT_DOUBLE_EQ(ops[0].friendliness, 0.95);  // Default.
  EXPECT_EQ(ops[1].repeat, 10u);
  EXPECT_EQ(ops[2].repeat, 1u);  // Default.
  EXPECT_EQ(ops[5].target, "wages/w1");
}

TEST(SourceTextTest, ValidationErrors) {
  struct Case {
    const char* json;
    const char* expect_substring;
  };
  const Case cases[] = {
      {R"({"language":"nodejs","entry":"m","methods":[{"name":"m","ops":[]}]})",
       "name"},
      {R"({"name":"f","language":"ruby","entry":"m","methods":[{"name":"m","ops":[]}]})",
       "language"},
      {R"({"name":"f","language":"nodejs","entry":"x","methods":[{"name":"m","ops":[]}]})",
       "entry"},
      {R"({"name":"f","language":"nodejs","entry":"m","methods":[]})", "methods"},
      {R"({"name":"f","language":"nodejs","entry":"m",
           "methods":[{"name":"m","ops":[["frobnicate",1]]}]})",
       "unknown op"},
      {R"({"name":"f","language":"nodejs","entry":"m",
           "methods":[{"name":"m","ops":[["compute",-5]]}]})",
       "non-negative"},
      // A fraction would truncate; a cast at or past 2^64 is undefined.
      {R"({"name":"f","language":"nodejs","entry":"m",
           "methods":[{"name":"m","ops":[["compute",1.5]]}]})",
       "non-negative integer"},
      {R"({"name":"f","language":"nodejs","entry":"m",
           "methods":[{"name":"m","ops":[["compute",1e300]]}]})",
       "below 2^64"},
      {R"({"name":"f","language":"nodejs","entry":"m",
           "methods":[{"name":"m","ops":[["compute",18446744073709551616]]}]})",
       "below 2^64"},
      {R"({"name":"f","language":"nodejs","entry":"m","package_kib":1e300,
           "methods":[{"name":"m","ops":[]}]})",
       "package_kib"},
      // 2^54 KiB is 2^64 bytes: the byte size would wrap to zero.
      {R"({"name":"f","language":"nodejs","entry":"m","package_kib":18014398509481984,
           "methods":[{"name":"m","ops":[]}]})",
       "package_kib: expected a KiB count below 2^54"},
      {R"({"name":"f","language":"nodejs","entry":"m",
           "methods":[{"name":"m","code_kib":18014398509481985,"ops":[]}]})",
       "code_kib: expected a KiB count below 2^54"},
      {R"({"name":"f","language":"nodejs","entry":"m",
           "methods":[{"name":"m","ops":[["compute",10,1.5]]}]})",
       "friendliness"},
      {R"({"name":"f","language":"nodejs","entry":"m",
           "methods":[{"name":"m","ops":[["call","ghost"]]}]})",
       "undefined method"},
      {R"({"name":"f","language":"nodejs","entry":"m",
           "methods":[{"name":"m","ops":[]},{"name":"m","ops":[]}]})",
       "duplicate method"},
  };
  for (const Case& c : cases) {
    auto fn = ParseFunctionSource(c.json);
    ASSERT_FALSE(fn.ok()) << c.json;
    EXPECT_NE(fn.status().message().find(c.expect_substring), std::string::npos)
        << fn.status().ToString();
  }
}

TEST(SourceTextTest, RoundTripThroughJson) {
  auto fn = ParseFunctionSource(kFactJson);
  ASSERT_TRUE(fn.ok());
  const std::string serialized = FunctionSourceToJson(*fn);
  auto reparsed = ParseFunctionSource(serialized);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->name, fn->name);
  EXPECT_EQ(reparsed->methods.size(), fn->methods.size());
  EXPECT_EQ(FunctionSourceToJson(*reparsed), serialized);  // Fixed point.
}

// A name's control bytes are written as \u00XX escapes (RFC 8259 §7) and
// parse back byte-exactly.
TEST(SourceTextTest, ControlBytesInANameRoundTripAsEscapes) {
  FunctionSource fn = fwwork::MakeFaasdom(fwwork::FaasdomBench::kFact, Language::kNodeJs);
  fn.name = std::string("fact\x01\x1f\t\0end", 11);
  const std::string serialized = FunctionSourceToJson(fn);
  EXPECT_NE(serialized.find(R"("name":"fact\u0001\u001f\t\u0000end")"), std::string::npos)
      << serialized;
  auto reparsed = ParseFunctionSource(serialized);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->name, fn.name);
}

// Bytes that are not valid UTF-8 are written as \u00XX escapes too, so they
// parse back as the code points U+00XX, UTF-8 encoded: not byte-exactly.
TEST(SourceTextTest, InvalidUtf8InANameParsesBackAsCodePoints) {
  FunctionSource fn = fwwork::MakeFaasdom(fwwork::FaasdomBench::kFact, Language::kNodeJs);
  fn.name = "raw\x80\xff";
  const std::string serialized = FunctionSourceToJson(fn);
  EXPECT_NE(serialized.find(R"("name":"raw\u0080\u00ff")"), std::string::npos) << serialized;
  auto reparsed = ParseFunctionSource(serialized);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->name, "raw\xc2\x80\xc3\xbf");
}

TEST(SourceTextTest, BuiltinWorkloadsRoundTrip) {
  // Every generated workload serializes and reparses losslessly.
  for (const auto bench : fwwork::AllFaasdomBenches()) {
    for (const auto language : {Language::kNodeJs, Language::kPython}) {
      const FunctionSource fn = fwwork::MakeFaasdom(bench, language);
      auto reparsed = ParseFunctionSource(FunctionSourceToJson(fn));
      ASSERT_TRUE(reparsed.ok()) << fn.name << ": " << reparsed.status().ToString();
      EXPECT_EQ(reparsed->name, fn.name);
      // Code sizes round up to whole KiB on serialization.
      EXPECT_GE(reparsed->TotalCodeBytes(), fn.TotalCodeBytes());
      EXPECT_LE(reparsed->TotalCodeBytes(),
                fn.TotalCodeBytes() + fn.methods.size() * 1024);
      EXPECT_EQ(reparsed->methods.size(), fn.methods.size());
      // Serialization is a fixed point after the first round trip.
      EXPECT_EQ(FunctionSourceToJson(*reparsed), FunctionSourceToJson(fn));
    }
  }
  for (const auto& app : {fwwork::MakeAlexaSkills(), fwwork::MakeDataAnalysis()}) {
    for (const auto& fn : app.functions) {
      auto reparsed = ParseFunctionSource(FunctionSourceToJson(fn));
      ASSERT_TRUE(reparsed.ok()) << fn.name;
      EXPECT_EQ(reparsed->entry_method, fn.entry_method);
    }
  }
}

TEST(SourceTextTest, SerializationSkipsAnnotatorArtifacts) {
  FunctionSource fn = fwwork::MakeFaasdom(fwwork::FaasdomBench::kFact, Language::kNodeJs);
  MethodDef injected("__fireworks_jit", {}, 256);
  injected.injected = true;
  fn.methods.push_back(std::move(injected));
  const std::string serialized = FunctionSourceToJson(fn);
  EXPECT_EQ(serialized.find("__fireworks"), std::string::npos);
}

}  // namespace
}  // namespace fwlang
