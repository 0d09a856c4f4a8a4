// The shared CLI scanner behind every viprof_* tool: flag matching,
// value consumption, and the one usage convention the tools converged on —
// bad usage prints the usage text to stderr and exits kExitUsage (3).
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "support/arg_scan.hpp"

namespace viprof::support {
namespace {

/// Owned argv for a scanner (ArgScan keeps pointers, so the storage must
/// outlive it).
struct Argv {
  std::vector<std::string> store;
  std::vector<char*> ptrs;

  Argv(std::initializer_list<const char*> args) {
    for (const char* a : args) store.emplace_back(a);
    for (std::string& s : store) ptrs.push_back(s.data());
  }
  int argc() { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }
};

constexpr const char* kUsage = "usage: test-tool --in DIR [--top N]\n";

TEST(ArgScan, ScansFlagsAndValuesInOrder) {
  Argv a({"tool", "--in", "some/dir", "--top", "7", "--quiet"});
  ArgScan args(a.argc(), a.argv(), kUsage);

  std::string in;
  std::uint64_t top = 0;
  bool quiet = false;
  while (args.next()) {
    if (args.is("--in")) in = args.value();
    else if (args.is("--top")) top = args.value_u64();
    else if (args.is("--quiet")) quiet = true;
    else args.fail_unknown();
  }
  EXPECT_EQ(in, "some/dir");
  EXPECT_EQ(top, 7u);
  EXPECT_TRUE(quiet);
}

TEST(ArgScan, PositionalArgumentsReadableViaArg) {
  Argv a({"tool", "top", "5"});
  ArgScan args(a.argc(), a.argv(), kUsage);
  ASSERT_TRUE(args.next());
  EXPECT_STREQ(args.arg(), "top");
  EXPECT_TRUE(args.is("top"));
  EXPECT_FALSE(args.is("bottom"));
  ASSERT_TRUE(args.next());
  EXPECT_STREQ(args.arg(), "5");
  EXPECT_FALSE(args.next());  // exhausted
  // An empty command line (argv[0] only) yields nothing at all.
  Argv bare({"tool"});
  ArgScan none(bare.argc(), bare.argv(), kUsage);
  EXPECT_FALSE(none.next());
}

TEST(ArgScan, ValueU64ParsesUnsignedRange) {
  Argv a({"tool", "--n", "18446744073709551615", "--zero", "0", "--pad", "007"});
  ArgScan args(a.argc(), a.argv(), kUsage);
  ASSERT_TRUE(args.next());
  EXPECT_EQ(args.value_u64(), ~0ull);
  ASSERT_TRUE(args.next());
  EXPECT_EQ(args.value_u64(), 0u);
  ASSERT_TRUE(args.next());
  EXPECT_EQ(args.value_u64(), 7u);
  // Non-numeric text is no number.
  EXPECT_EQ(parse_u64("xyz"), std::nullopt);
}

TEST(ArgScan, ParseU64TakesTheWholeTokenOnly) {
  EXPECT_EQ(parse_u64("42"), 42u);
  EXPECT_EQ(parse_u64("18446744073709551615"), ~0ull);
  for (const char* bad : {"", "2x", "x2", "-1", "+1", " 1", "1 ", "0x10", "1.5",
                          "18446744073709551616", "99999999999999999999999"})
    EXPECT_EQ(parse_u64(bad), std::nullopt) << "[" << bad << "]";
}

TEST(ArgScan, ExitUsageConstantMatchesToolConvention) {
  // viprof_fsck's verdicts own exit codes 0..2, which pinned usage at 3.
  EXPECT_EQ(kExitUsage, 3);
}

TEST(ArgScanDeathTest, MissingValueExitsUsage) {
  Argv a({"tool", "--in"});
  ArgScan args(a.argc(), a.argv(), kUsage);
  ASSERT_TRUE(args.next());
  EXPECT_EXIT({ (void)args.value(); }, ::testing::ExitedWithCode(kExitUsage),
              "--in needs a value");
}

TEST(ArgScanDeathTest, MalformedNumberExitsUsage) {
  for (const char* bad : {"2x", "-1", ""}) {
    Argv a({"tool", "--threads", bad});
    ArgScan args(a.argc(), a.argv(), kUsage);
    ASSERT_TRUE(args.next());
    EXPECT_EXIT({ (void)args.value_u64(); }, ::testing::ExitedWithCode(kExitUsage),
                "--threads needs a number")
        << "[" << bad << "]";
  }
}

TEST(ArgScanDeathTest, UnknownFlagExitsUsageWithDiagnostic) {
  Argv a({"tool", "--frobnicate"});
  ArgScan args(a.argc(), a.argv(), kUsage);
  ASSERT_TRUE(args.next());
  EXPECT_EXIT(args.fail_unknown(), ::testing::ExitedWithCode(kExitUsage),
              "unknown argument: --frobnicate");
}

TEST(ArgScanDeathTest, FailPrintsTheUsageText) {
  Argv a({"tool"});
  ArgScan args(a.argc(), a.argv(), kUsage);
  EXPECT_EXIT(args.fail(), ::testing::ExitedWithCode(kExitUsage),
              "usage: test-tool --in DIR");
}

TEST(ArgScanDeathTest, ConflictingModeFlagsExitUsage) {
  // Two mode flags that each parse fine, but selecting both at once is a
  // usage error, routed through the same fail() → exit-3 path as a bad flag.
  Argv a({"tool", "--store", "--fleet"});
  ArgScan args(a.argc(), a.argv(), kUsage);
  bool store_layout = false;
  bool fleet_layout = false;
  const auto parse = [&] {
    while (args.next()) {
      if (args.is("--store")) store_layout = true;
      else if (args.is("--fleet")) fleet_layout = true;
      else args.fail_unknown();
    }
    if (store_layout && fleet_layout) args.fail();
    std::exit(0);  // unreachable for this argv
  };
  EXPECT_EXIT(parse(), ::testing::ExitedWithCode(kExitUsage),
              "usage: test-tool");
}

TEST(ArgScanDeathTest, StatsVerbWithoutFleetDirExitsUsage) {
  // A verb that only answers over a directory it was not given (here
  // `stats` over an exported fleet namespace, no --fleet) is a usage error.
  Argv a({"viprof_query", "stats", "--json"});
  ArgScan args(a.argc(), a.argv(), kUsage);
  const auto parse = [&] {
    if (!args.next()) args.fail();
    const std::string cmd = args.arg();
    std::string fleet_dir;
    while (args.next()) {
      if (args.is("--fleet")) fleet_dir = args.value();
      else if (args.is("--json")) continue;
      else args.fail_unknown();
    }
    if ((cmd == "stats" || cmd == "trace") && fleet_dir.empty()) args.fail();
    std::exit(0);  // unreachable for this argv
  };
  EXPECT_EXIT(parse(), ::testing::ExitedWithCode(kExitUsage),
              "usage: test-tool");
}

TEST(ArgScanDeathTest, TraceMergeWithoutInputsExitsUsage) {
  // viprof_stat trace-merge/contention: at least one --in is mandatory —
  // merging or ranking nothing is a usage error, not an empty success.
  Argv a({"viprof_stat", "trace-merge", "--out", "merged.json"});
  ArgScan args(a.argc(), a.argv(), kUsage);
  const auto parse = [&] {
    if (!args.next()) args.fail();
    const std::string cmd = args.arg();
    std::vector<std::string> in_args;
    while (args.next()) {
      if (args.is("--in")) in_args.push_back(args.value());
      else if (args.is("--out")) (void)args.value();
      else if (args.is("--top")) (void)args.value_u64();
      else args.fail_unknown();
    }
    if ((cmd == "trace-merge" || cmd == "contention") && in_args.empty())
      args.fail();
    std::exit(0);
  };
  EXPECT_EXIT(parse(), ::testing::ExitedWithCode(kExitUsage),
              "usage: test-tool");
}

TEST(ArgScanDeathTest, ContentionRejectsUnknownFlags) {
  Argv a({"viprof_stat", "contention", "--in", "dir", "--percentile", "99"});
  ArgScan args(a.argc(), a.argv(), kUsage);
  const auto parse = [&] {
    args.next();  // verb
    while (args.next()) {
      if (args.is("--in")) (void)args.value();
      else if (args.is("--top")) (void)args.value_u64();
      else args.fail_unknown();
    }
    std::exit(0);
  };
  EXPECT_EXIT(parse(), ::testing::ExitedWithCode(kExitUsage),
              "unknown argument: --percentile");
}

}  // namespace
}  // namespace viprof::support
