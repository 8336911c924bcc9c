// The bench flag parser (bench/common): every bench binary routes argv
// through fwbench::ParseFlags, so a malformed value must be an error naming
// its flag, never a silent wrap, truncation or default.
#include "bench/common.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace {

using fwbench::Flag;

// The flag table of a typical scenario bench.
struct Options {
  int hosts = 32;
  uint64_t invocations = 1000;
  double rate = 8000.0;
  double warmup = 2.0;
  uint64_t seed = 42;
  bool baselines = true;
  std::string report;

  std::vector<Flag> Flags() {
    return {fwbench::IntFlag("--hosts", &hosts, 1),
            fwbench::U64Flag("--invocations", &invocations, 1),
            fwbench::DoubleFlag("--rate", &rate),
            fwbench::DoubleFlag("--warmup", &warmup, /*zero_ok=*/true),
            fwbench::U64Flag("--seed", &seed, 0),
            fwbench::SwitchFlag("--smoke",
                                [this] {
                                  hosts = 8;
                                  invocations = 200;
                                }),
            fwbench::SwitchFlag("--no-baselines", [this] { baselines = false; }),
            fwbench::PathFlag("--report", &report)};
  }
};

fwbase::Status Parse(Options& opt, const std::vector<std::string>& args) {
  std::vector<const char*> argv = {"bench"};
  for (const std::string& arg : args) {
    argv.push_back(arg.c_str());
  }
  return fwbench::ParseFlags(static_cast<int>(argv.size()), argv.data(), opt.Flags());
}

// Parsing `arg` fails with InvalidArgument and a message that starts with
// `named` (the argument as given, so the user sees which flag is wrong).
void ExpectRejected(const std::string& arg, const std::string& named) {
  Options opt;
  const fwbase::Status s = Parse(opt, {arg});
  EXPECT_EQ(s.code(), fwbase::StatusCode::kInvalidArgument) << arg;
  EXPECT_EQ(s.message().rfind(named, 0), 0u) << arg << " -> " << s.message();
}

TEST(BenchFlagsTest, ParsesEveryKind) {
  Options opt;
  ASSERT_TRUE(Parse(opt, {"--hosts=3", "--invocations=18446744073709551615", "--rate=1e3",
                          "--warmup=0", "--seed=0", "--no-baselines", "--report=out.json"})
                  .ok());
  EXPECT_EQ(opt.hosts, 3);
  EXPECT_EQ(opt.invocations, UINT64_MAX);
  EXPECT_EQ(opt.rate, 1000.0);
  EXPECT_EQ(opt.warmup, 0.0);
  EXPECT_EQ(opt.seed, 0u);
  EXPECT_FALSE(opt.baselines);
  EXPECT_EQ(opt.report, "out.json");
}

TEST(BenchFlagsTest, NoArgumentsKeepsDefaults) {
  Options opt;
  ASSERT_TRUE(Parse(opt, {}).ok());
  EXPECT_EQ(opt.hosts, 32);
  EXPECT_EQ(opt.invocations, 1000u);
  EXPECT_TRUE(opt.baselines);
}

TEST(BenchFlagsTest, RejectsNegativeNumbers) {
  // strtoull would wrap this to 2^64 - 1, a run that never drains.
  ExpectRejected("--invocations=-1", "--invocations=-1: ");
  ExpectRejected("--seed=-5", "--seed=-5: ");
  ExpectRejected("--hosts=-3", "--hosts=-3: ");
  ExpectRejected("--rate=-4000", "--rate=-4000: ");
  ExpectRejected("--warmup=-0.5", "--warmup=-0.5: ");
}

TEST(BenchFlagsTest, RejectsValuesBelowTheFlagsMinimum) {
  ExpectRejected("--hosts=0", "--hosts=0: ");
  ExpectRejected("--invocations=0", "--invocations=0: ");
  ExpectRejected("--rate=0", "--rate=0: ");
}

TEST(BenchFlagsTest, RejectsTrailingGarbageAndNonNumbers) {
  ExpectRejected("--hosts=3x", "--hosts=3x: ");  // atoi ran 3 hosts.
  ExpectRejected("--seed=abc", "--seed=abc: ");  // strtoull ran seed 0.
  ExpectRejected("--hosts=2.5", "--hosts=2.5: ");
  ExpectRejected("--hosts= 3", "--hosts= 3: ");
  ExpectRejected("--hosts=+3", "--hosts=+3: ");
  ExpectRejected("--rate=1e", "--rate=1e: ");
  ExpectRejected("--hosts=", "--hosts=: ");
  ExpectRejected("--rate=", "--rate=: ");
}

TEST(BenchFlagsTest, RejectsNonFiniteValues) {
  ExpectRejected("--rate=nan", "--rate=nan: ");
  ExpectRejected("--rate=inf", "--rate=inf: ");
  ExpectRejected("--warmup=infinity", "--warmup=infinity: ");
  ExpectRejected("--warmup=NaN", "--warmup=NaN: ");
}

TEST(BenchFlagsTest, RejectsOverflowingNumbers) {
  ExpectRejected("--seed=18446744073709551616", "--seed=18446744073709551616: ");
  ExpectRejected("--hosts=2147483648", "--hosts=2147483648: ");
  ExpectRejected("--rate=1e999", "--rate=1e999: ");
}

TEST(BenchFlagsTest, RejectsUnknownFlags) {
  ExpectRejected("--bogus", "unknown flag --bogus ");
  ExpectRejected("--bogus=1", "unknown flag --bogus=1 ");
  ExpectRejected("--json=out.json", "unknown flag --json=out.json ");
  ExpectRejected("--no-selfcheck", "unknown flag --no-selfcheck ");
  ExpectRejected("hosts=3", "unknown flag hosts=3 ");
}

TEST(BenchFlagsTest, RejectsAnEmptyPath) {
  ExpectRejected("--report=", "--report=: ");
  ExpectRejected("--report", "--report needs a value");
}

TEST(BenchFlagsTest, SwitchesAreBare) {
  Options opt;
  ASSERT_TRUE(Parse(opt, {"--no-baselines"}).ok());
  EXPECT_FALSE(opt.baselines);
  ExpectRejected("--no-baselines=1", "--no-baselines=1 takes no value");
  ExpectRejected("--smoke=true", "--smoke=true takes no value");
  ExpectRejected("--hosts", "--hosts needs a value");
}

TEST(BenchFlagsTest, SmokePicksDefaultsAndExplicitValuesWinInEitherOrder) {
  Options smoke;
  ASSERT_TRUE(Parse(smoke, {"--smoke"}).ok());
  EXPECT_EQ(smoke.hosts, 8);
  EXPECT_EQ(smoke.invocations, 200u);

  Options before;
  ASSERT_TRUE(Parse(before, {"--smoke", "--hosts=16"}).ok());
  Options after;
  ASSERT_TRUE(Parse(after, {"--hosts=16", "--smoke"}).ok());
  for (const Options& opt : {before, after}) {
    EXPECT_EQ(opt.hosts, 16);
    EXPECT_EQ(opt.invocations, 200u);  // Still the smoke value.
  }
}

TEST(BenchFlagsTest, LastValueWins) {
  Options opt;
  ASSERT_TRUE(Parse(opt, {"--hosts=3", "--hosts=5"}).ok());
  EXPECT_EQ(opt.hosts, 5);
}

}  // namespace
