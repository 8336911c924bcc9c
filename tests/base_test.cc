// Unit tests for src/base: units, status, rng, stats, strings, hash.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/base/hash.h"
#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/base/status.h"
#include "src/base/strings.h"
#include "src/base/units.h"

namespace fwbase {
namespace {

using namespace fwbase::literals;

// ---------------------------------------------------------------------------
// Units.
// ---------------------------------------------------------------------------

TEST(UnitsTest, DurationConstructors) {
  EXPECT_EQ(Duration::Micros(3).nanos(), 3000);
  EXPECT_EQ(Duration::Millis(2).nanos(), 2'000'000);
  EXPECT_EQ(Duration::Seconds(1).nanos(), 1'000'000'000);
  EXPECT_EQ(Duration::MillisF(0.5).nanos(), 500'000);
  EXPECT_EQ(Duration::SecondsF(0.25).nanos(), 250'000'000);
}

TEST(UnitsTest, DurationArithmetic) {
  const Duration a = 10_ms;
  const Duration b = 4_ms;
  EXPECT_EQ((a + b).millis(), 14.0);
  EXPECT_EQ((a - b).millis(), 6.0);
  EXPECT_EQ((a * 3).millis(), 30.0);
  EXPECT_EQ((a * 0.5).millis(), 5.0);
  EXPECT_EQ((a / 2).millis(), 5.0);
  EXPECT_DOUBLE_EQ(a / b, 2.5);
  EXPECT_LT(b, a);
}

TEST(UnitsTest, DurationCompoundAssign) {
  Duration d = 1_ms;
  d += 2_ms;
  EXPECT_EQ(d.millis(), 3.0);
  d -= 1_ms;
  EXPECT_EQ(d.millis(), 2.0);
}

TEST(UnitsTest, SimTimeArithmetic) {
  const SimTime t0 = SimTime::Zero();
  const SimTime t1 = t0 + 5_s;
  EXPECT_EQ((t1 - t0).seconds(), 5.0);
  EXPECT_EQ((t1 - 2_s).seconds(), 3.0);
  EXPECT_LT(t0, t1);
}

TEST(UnitsTest, SizeLiterals) {
  EXPECT_EQ(1_KiB, 1024u);
  EXPECT_EQ(1_MiB, 1024u * 1024u);
  EXPECT_EQ(2_GiB, 2ull * 1024 * 1024 * 1024);
}

TEST(UnitsTest, PagesFor) {
  EXPECT_EQ(PagesFor(0), 0u);
  EXPECT_EQ(PagesFor(1), 1u);
  EXPECT_EQ(PagesFor(kPageSize), 1u);
  EXPECT_EQ(PagesFor(kPageSize + 1), 2u);
  EXPECT_EQ(PagesFor(512_MiB), 512_MiB / kPageSize);
}

TEST(UnitsTest, DurationToString) {
  EXPECT_EQ(Duration::Nanos(42).ToString(), "42ns");
  EXPECT_EQ((12_us).ToString(), "12.00us");
  EXPECT_EQ((3_ms).ToString(), "3.00ms");
  EXPECT_EQ((2_s).ToString(), "2.000s");
}

TEST(UnitsTest, BytesToString) {
  EXPECT_EQ(BytesToString(100), "100 B");
  EXPECT_EQ(BytesToString(2048), "2.0 KiB");
  EXPECT_EQ(BytesToString(3_MiB), "3.0 MiB");
  EXPECT_EQ(BytesToString(5_GiB), "5.00 GiB");
}

// ---------------------------------------------------------------------------
// Status / Result.
// ---------------------------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("snapshot missing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "snapshot missing");
  EXPECT_NE(s.ToString().find("NOT_FOUND"), std::string::npos);
}

TEST(StatusTest, CopiedErrorKeepsCodeAndMessageOnBothSides) {
  const Status original = Status::Unavailable("host 3 is draining");
  Status copy = original;
  EXPECT_EQ(copy.code(), StatusCode::kUnavailable);
  EXPECT_EQ(copy.message(), "host 3 is draining");
  EXPECT_EQ(original.code(), StatusCode::kUnavailable);
  EXPECT_EQ(original.message(), "host 3 is draining");
  // The copy owns its message: overwriting it leaves the original intact.
  Status assigned;
  assigned = copy;
  copy = Status::Ok();
  EXPECT_TRUE(copy.message().empty());
  EXPECT_EQ(assigned.code(), StatusCode::kUnavailable);
  EXPECT_EQ(assigned.message(), "host 3 is draining");
  EXPECT_EQ(original.message(), "host 3 is draining");
}

TEST(StatusTest, MovedFromErrorKeepsCodeWithEmptyMessage) {
  Status from = Status::DataLoss("chunk checksum mismatch");
  const Status to = std::move(from);
  EXPECT_EQ(to.code(), StatusCode::kDataLoss);
  EXPECT_EQ(to.message(), "chunk checksum mismatch");
  // Reading the moved-from status is the point of this test.
  EXPECT_EQ(from.code(), StatusCode::kDataLoss);
  EXPECT_TRUE(from.message().empty());
}

TEST(StatusTest, OkCodeWithEmptyMessageIsOk) {
  const Status s(StatusCode::kOk, "");
  EXPECT_TRUE(s.ok());
  EXPECT_TRUE(s.message().empty());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ResultFromMovedErrorReportsIt) {
  Status error = Status::ResourceExhausted("queue full at host 2");
  const Result<int> r = std::move(error);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(r.status().message(), "queue full at host 2");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 7;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

// ---------------------------------------------------------------------------
// Rng.
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformU64RespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformU64(17), 17u);
  }
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // All values hit.
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, ExponentialMeanApproximately) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(5.0);
  }
  EXPECT_NEAR(sum / n, 5.0, 0.25);
}

TEST(RngTest, NormalMomentsApproximately) {
  Rng rng(13);
  SampleStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.Add(rng.Normal(10.0, 2.0));
  }
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(RngTest, ForkIndependentStream) {
  Rng a(21);
  Rng child = a.Fork();
  // The fork must not replay the parent's stream.
  Rng a2(21);
  a2.Fork();
  EXPECT_EQ(a.NextU64(), a2.NextU64());  // Parent stream deterministic post-fork.
  EXPECT_NE(child.NextU64(), a.NextU64());
}

// ---------------------------------------------------------------------------
// Stats.
// ---------------------------------------------------------------------------

TEST(StatsTest, MeanAndStddev) {
  SampleStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(v);
  }
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(StatsTest, PercentilesExact) {
  SampleStats s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(i);
  }
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100.0);
  EXPECT_NEAR(s.Median(), 50.5, 1e-9);
  EXPECT_NEAR(s.Percentile(99), 99.01, 0.01);
}

TEST(StatsTest, SingleSamplePercentile) {
  SampleStats s;
  s.Add(42.0);
  EXPECT_EQ(s.Percentile(37), 42.0);
}

TEST(StatsTest, GeometricMean) {
  EXPECT_DOUBLE_EQ(GeometricMean({4.0, 1.0}), 2.0);
  EXPECT_NEAR(GeometricMean({1.0, 10.0, 100.0}), 10.0, 1e-9);
}

TEST(StatsTest, LogHistogramPercentile) {
  LogHistogram h;
  for (int i = 0; i < 90; ++i) {
    h.Add(10);  // Bucket [8,16).
  }
  for (int i = 0; i < 10; ++i) {
    h.Add(1000);  // Bucket [512,1024).
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_LE(h.PercentileUpperBound(50), 15u);
  EXPECT_GE(h.PercentileUpperBound(99), 1000u);
}

TEST(StatsTest, EmptySampleStatsReturnNan) {
  SampleStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
  EXPECT_TRUE(std::isnan(s.Percentile(50)));
  EXPECT_TRUE(std::isnan(s.Median()));
  // mean/stddev keep their zero defaults.
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(StatsTest, LogHistogramZeroSample) {
  LogHistogram h;
  h.Add(0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.PercentileUpperBound(50), 0u);
  EXPECT_EQ(h.PercentileUpperBound(100), 0u);
  EXPECT_NE(h.ToString().find("[2^00) 1"), std::string::npos);
}

TEST(StatsTest, LogHistogramSingleSample) {
  LogHistogram h;
  h.Add(10);  // Bucket [8,16): upper bound 15.
  EXPECT_EQ(h.PercentileUpperBound(1), 15u);
  EXPECT_EQ(h.PercentileUpperBound(100), 15u);
}

TEST(StatsTest, LogHistogramTopBucketCoversFullRange) {
  LogHistogram h;
  h.Add(UINT64_MAX);
  // Values >= 2^63 are clamped into the top bucket; its upper bound must not
  // understate them.
  EXPECT_EQ(h.PercentileUpperBound(100), UINT64_MAX);
  EXPECT_NE(h.ToString().find("[2^63) 1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Logging.
// ---------------------------------------------------------------------------

TEST(LoggingTest, FilteredLogDoesNotEvaluateStream) {
  const LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kWarning);
  int calls = 0;
  auto expensive = [&calls] {
    ++calls;
    return "payload";
  };
  FW_LOG(kDebug) << expensive();
  EXPECT_EQ(calls, 0);
  SetLogLevel(saved);
}

// ---------------------------------------------------------------------------
// Strings.
// ---------------------------------------------------------------------------

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.239), "1.24");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringsTest, StrJoin) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
  EXPECT_EQ(StrJoin({"solo"}, ","), "solo");
}

TEST(StringsTest, StrSplit) {
  const auto parts = StrSplit("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("firecracker", "fire"));
  EXPECT_FALSE(StartsWith("fire", "firecracker"));
  EXPECT_TRUE(EndsWith("snapshot.mem", ".mem"));
  EXPECT_FALSE(EndsWith("mem", "snapshot.mem"));
}

TEST(StringsTest, JsonQuoteAppliesTheMandatoryEscapes) {
  EXPECT_EQ(JsonQuote(""), "\"\"");
  EXPECT_EQ(JsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(JsonQuote("quote\" back\\slash \n\t\r"), "\"quote\\\" back\\\\slash \\n\\t\\r\"");
}

TEST(StringsTest, JsonQuoteWritesOtherControlBytesAsUnicodeEscapes) {
  EXPECT_EQ(JsonQuote("a\x01"
                      "b\x1f"),
            "\"a\\u0001b\\u001f\"");
  EXPECT_EQ(JsonQuote(std::string("nul\0", 4)), "\"nul\\u0000\"");
}

TEST(StringsTest, JsonQuoteKeepsValidUtf8AndEscapesEveryInvalidByte) {
  // Well-formed 2-, 3- and 4-byte sequences pass through unmangled.
  EXPECT_EQ(JsonQuote("\xcf\x80 \xe2\x82\xac \xf0\x9f\x98\x80"),
            "\"\xcf\x80 \xe2\x82\xac \xf0\x9f\x98\x80\"");
  // Stray high-bit bytes (the case that once shipped raw into traces).
  EXPECT_EQ(JsonQuote("raw\x80\xff bytes"), "\"raw\\u0080\\u00ff bytes\"");
  // Overlong encoding, UTF-16 surrogate, beyond U+10FFFF, truncated.
  EXPECT_EQ(JsonQuote("\xc0\xaf"), "\"\\u00c0\\u00af\"");
  EXPECT_EQ(JsonQuote("\xed\xa0\x80"), "\"\\u00ed\\u00a0\\u0080\"");
  EXPECT_EQ(JsonQuote("\xf4\x90\x80\x80"), "\"\\u00f4\\u0090\\u0080\\u0080\"");
  EXPECT_EQ(JsonQuote("\xe2\x82"), "\"\\u00e2\\u0082\"");
}

// ---------------------------------------------------------------------------
// Hash.
// ---------------------------------------------------------------------------

TEST(HashKeyTest, IsStableAcrossBuilds) {
  // Pinned values (FNV-1a + murmur3 finalizer): ring placement — and thus
  // every golden and outcome digest — depends on these never drifting.
  EXPECT_EQ(HashKey(""), 0xefd01f60ba992926ull);
  EXPECT_EQ(HashKey("a"), 0x82a2a958a9bece5bull);
}

}  // namespace
}  // namespace fwbase
