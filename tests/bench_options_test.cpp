// Strict bench-flag parsing (bench/bench_util.h): unrecognized flags,
// missing values, non-numeric values and out-of-range LP counts are hard
// errors instead of being silently ignored — a typo'd `--lp-gruops=8` used
// to run one LP and "pass" a parallel-kernel check.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_util.h"

namespace bladerunner {
namespace {

struct ParseResult {
  bool ok = false;
  BenchOptions opts;
  std::string error;
};

ParseResult Parse(std::vector<std::string> args) {
  args.insert(args.begin(), "bench_under_test");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& arg : args) argv.push_back(arg.data());
  ParseResult result;
  result.ok = ParseBenchOptionsInto(static_cast<int>(argv.size()), argv.data(), &result.opts,
                                    &result.error);
  return result;
}

TEST(BenchOptionsTest, DefaultsWithNoFlags) {
  ParseResult r = Parse({});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.opts.smoke);
  EXPECT_FALSE(r.opts.perf);
  EXPECT_EQ(r.opts.threads, 1);
  EXPECT_EQ(r.opts.lp_groups, -1);
  EXPECT_DOUBLE_EQ(r.opts.tolerance, 0.25);
}

TEST(BenchOptionsTest, AcceptsBothSpellings) {
  ParseResult r = Parse({"--threads", "4", "--lp-groups=16", "--tolerance=0.5", "--out",
                         "/tmp/x.json", "--check=/tmp/y.json", "--fleet", "2000", "--cell",
                         "a", "--cell=b"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.opts.threads, 4);
  EXPECT_EQ(r.opts.lp_groups, 16);
  EXPECT_DOUBLE_EQ(r.opts.tolerance, 0.5);
  EXPECT_EQ(r.opts.out_path, "/tmp/x.json");
  EXPECT_EQ(r.opts.check_path, "/tmp/y.json");
  EXPECT_EQ(r.opts.fleet, 2000);
  ASSERT_EQ(r.opts.cells.size(), 2u);
  EXPECT_EQ(r.opts.cells[0], "a");
  EXPECT_EQ(r.opts.cells[1], "b");
}

TEST(BenchOptionsTest, SmokeImpliesPerf) {
  ParseResult r = Parse({"--smoke"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.opts.smoke);
  EXPECT_TRUE(r.opts.perf);
}

TEST(BenchOptionsTest, RejectsTypoedFlag) {
  // The motivating bug: this used to silently run one LP.
  ParseResult r = Parse({"--lp-gruops=8"});
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.error.find("--lp-gruops=8"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("unrecognized"), std::string::npos) << r.error;
}

TEST(BenchOptionsTest, RejectsNonIntegerValues) {
  ParseResult r = Parse({"--threads", "four"});
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.error.find("integer"), std::string::npos) << r.error;

  r = Parse({"--lp-groups=8x"});
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.error.find("integer"), std::string::npos) << r.error;

  r = Parse({"--tolerance=lots"});
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.error.find("number"), std::string::npos) << r.error;
}

TEST(BenchOptionsTest, RejectsMissingValue) {
  ParseResult r = Parse({"--threads"});
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.error.find("expects a value"), std::string::npos) << r.error;
}

TEST(BenchOptionsTest, RejectsValueOnBoolFlag) {
  ParseResult r = Parse({"--smoke=yes"});
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.error.find("takes no value"), std::string::npos) << r.error;
}

TEST(BenchOptionsTest, BenchmarkFlagsPassThrough) {
  // bench_micro forwards argv to google-benchmark; its flags must survive
  // the strict parse untouched.
  ParseResult r = Parse({"--benchmark_filter=Fanout", "--smoke", "--benchmark_list_tests"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.opts.smoke);
}

TEST(BenchOptionsTest, LpGroupsMustFitTheKernelLpLimit) {
  // LP 0 plus the groups may be at most kMaxLps (4095) LPs.
  ParseResult r = Parse({"--lp-groups=4094"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.opts.lp_groups, 4094);

  r = Parse({"--lp-groups=0"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.opts.lp_groups, 0);

  r = Parse({"--lp-groups", "4095"});
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.error.find("0..4094"), std::string::npos) << r.error;

  // A negative count is rejected, not read as "derive from --threads".
  r = Parse({"--lp-groups=-1"});
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.error.find("0..4094"), std::string::npos) << r.error;
}

TEST(BenchOptionsTest, ThreadsClampedToOne) {
  ParseResult r = Parse({"--threads", "0"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.opts.threads, 1);
}

}  // namespace
}  // namespace bladerunner
