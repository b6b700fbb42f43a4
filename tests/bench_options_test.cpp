// Strict bench-flag parsing (bench/bench_util.h): unrecognized flags,
// missing values, non-numeric values and out-of-range LP counts are hard
// errors instead of being silently ignored — a typo'd `--lp-gruops=8` used
// to run one LP and "pass" a parallel-kernel check.
//
// The committed-baseline gate (bench/baseline_gate.h): its rule at the
// tolerance edges, the failures that used to pass vacuously, and the
// committed baselines CI gates against.

#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/baseline_gate.h"
#include "bench/bench_util.h"

namespace bladerunner {
namespace {

struct ParseResult {
  bool ok = false;
  BenchOptions opts;
  std::string error;
};

// Parses as a bench that gates a baseline (every shared flag) unless told
// otherwise.
ParseResult Parse(std::vector<std::string> args, BaselineCheck baseline = BaselineCheck::kGated) {
  args.insert(args.begin(), "bench_under_test");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& arg : args) argv.push_back(arg.data());
  ParseResult result;
  result.ok = ParseBenchOptionsInto(static_cast<int>(argv.size()), argv.data(), &result.opts,
                                    &result.error, baseline);
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

TEST(BenchOptionsTest, CheckImpliesPerf) {
  // Without the harness rows a --check has nothing to gate and used to exit
  // 0 after running the microbenchmarks.
  ParseResult r = Parse({"--check", "BENCH_PR7.json"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.opts.perf);
  EXPECT_FALSE(r.opts.smoke);
}

TEST(BenchOptionsTest, BenchesThatGateNoBaselineRejectCheckAndTolerance) {
  // The motivating bug: `bench_table1_update_distribution --check
  // /nonexistent` exited 0 having checked nothing.
  for (std::vector<std::string> args :
       {std::vector<std::string>{"--check", "/nonexistent/baseline.json"},
        std::vector<std::string>{"--check=BENCH_PR7.json"},
        std::vector<std::string>{"--smoke", "--tolerance", "0.25"},
        std::vector<std::string>{"--tolerance=0.1"}}) {
    ParseResult r = Parse(args, BaselineCheck::kNone);
    ASSERT_FALSE(r.ok) << args.front();
    EXPECT_NE(r.error.find("gates no baseline"), std::string::npos) << r.error;
  }
  // Every other flag is still accepted.
  ParseResult r = Parse({"--smoke", "--out", "/tmp/x.json", "--threads=2", "--fleet", "10"},
                        BaselineCheck::kNone);
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(BenchOptionsDeathTest, CheckOnABenchThatGatesNoBaselineExitsTwo) {
  std::vector<std::string> args = {"bench_table1_update_distribution", "--check",
                                   "/nonexistent/baseline.json"};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  EXPECT_EXIT(ParseBenchOptions(static_cast<int>(argv.size()), argv.data()),
              ::testing::ExitedWithCode(2), "gates no baseline");
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

// ---- baseline gate ----

std::string WriteBaseline(const std::string& name, const std::string& text) {
  std::string path = testing::TempDir() + "baseline_gate_" + name;
  std::ofstream(path) << text;
  return path;
}

GatedValue Perf(const std::string& bench, const std::string& metric, double value) {
  return {{{"bench", bench}, {"metric", metric}}, "value", Better::kHigher, value};
}

GatedValue Scenario(const std::string& scenario, const std::string& field, Better better,
                    double value) {
  return {{{"scenario", scenario}, {"scale", "smoke"}}, field, better, value};
}

TEST(BaselineGateTest, FloorAndCeilingExactlyAtTheTolerance) {
  BaselineGate gate(WriteBaseline(
      "edges.json", "{\"scenario\":\"a\",\"scale\":\"smoke\",\"delivered\":100,"
                    "\"delivery_p99_ms\":100.0}\n"));
  ASSERT_TRUE(gate.ok()) << gate.error();
  EXPECT_TRUE(gate.Check(Scenario("a", "delivered", Better::kHigher, 75.0), 0.25));
  EXPECT_FALSE(gate.Check(Scenario("a", "delivered", Better::kHigher, 74.99), 0.25));
  EXPECT_TRUE(gate.Check(Scenario("a", "delivery_p99_ms", Better::kLower, 125.0), 0.25));
  EXPECT_FALSE(gate.Check(Scenario("a", "delivery_p99_ms", Better::kLower, 125.01), 0.25));
}

TEST(BaselineGateTest, MissingRowOrFieldFails) {
  BaselineGate gate(WriteBaseline(
      "missing_row.json", "[\n  {\"bench\": \"kernel\", \"metric\": \"events_per_sec\", "
                          "\"value\": 10.0, \"unit\": \"events/s\"}\n]\n"));
  ASSERT_TRUE(gate.ok()) << gate.error();
  EXPECT_TRUE(gate.Check(Perf("kernel", "events_per_sec", 10.0), 0.25));
  EXPECT_FALSE(gate.Check(Perf("kernel", "new_metric", 10.0), 0.25));
  EXPECT_FALSE(gate.Check(Perf("new_bench", "events_per_sec", 10.0), 0.25));
  EXPECT_FALSE(gate.Check({{{"bench", "kernel"}}, "unit", Better::kHigher, 10.0}, 0.25));
}

TEST(BaselineGateTest, MissingEmptyOrMalformedFileFails) {
  const std::vector<std::string> bad = {
      testing::TempDir() + "baseline_gate_no_such_file.json",
      WriteBaseline("empty.json", ""),
      WriteBaseline("empty_array.json", "[\n]\n"),
      WriteBaseline("bad_value.json",
                    "[\n  {\"bench\": \"kernel\", \"metric\": \"events_per_sec\", "
                    "\"value\": 12abc, \"unit\": \"events/s\"}\n]\n"),
      WriteBaseline("unterminated.json", "{\"bench\": \"kernel\", \"value\": 1.0\n"),
      WriteBaseline("open_string.json", "{\"bench\": \"kernel, \"value\": 1.0}\n"),
      WriteBaseline("not_json.json", "kernel events_per_sec 10\n"),
  };
  for (const std::string& path : bad) {
    BaselineGate gate(path);
    EXPECT_FALSE(gate.ok()) << path;
    EXPECT_FALSE(gate.error().empty()) << path;
    EXPECT_FALSE(gate.Check(Perf("kernel", "events_per_sec", 10.0), 0.25)) << path;
  }
}

// A zero baseline gates nothing: a run of 0 would pass a lower-is-better
// gate vacuously, and any run would pass a higher-is-better one.
TEST(BaselineGateTest, ZeroBaselineFails) {
  BaselineGate gate(WriteBaseline(
      "zero.json",
      "{\"scenario\":\"a\",\"scale\":\"smoke\",\"delivered\":0,\"delivery_p99_ms\":0.000}\n"));
  ASSERT_TRUE(gate.ok()) << gate.error();
  EXPECT_FALSE(gate.Check(Scenario("a", "delivery_p99_ms", Better::kLower, 0.0), 0.25));
  EXPECT_FALSE(gate.Check(Scenario("a", "delivery_p99_ms", Better::kLower, 10214.5), 0.25));
  EXPECT_FALSE(gate.Check(Scenario("a", "delivered", Better::kHigher, 0.0), 0.25));
  EXPECT_FALSE(gate.Check(Scenario("a", "delivered", Better::kHigher, 907.0), 0.25));
}

TEST(BaselineGateTest, ReadsArrayAndJsonLinesFiles) {
  BaselineGate array(WriteBaseline(
      "array.json",
      "[\n  {\"bench\": \"a\", \"metric\": \"m\", \"value\": 1.5, \"unit\": \"x\"},\n"
      "  {\"bench\": \"b\", \"metric\": \"m\", \"value\": 2.5, \"unit\": \"x\"}\n]\n"));
  ASSERT_TRUE(array.ok()) << array.error();
  EXPECT_TRUE(array.Check(Perf("a", "m", 1.5), 0.0));
  EXPECT_FALSE(array.Check(Perf("a", "m", 1.4), 0.0));
  EXPECT_TRUE(array.Check(Perf("b", "m", 2.5), 0.0));

  BaselineGate lines(WriteBaseline(
      "lines.json",
      "{\"scenario\":\"a\",\"scale\":\"full\",\"delivered\":7,\"durable_log_ok\":true}\n"
      "{\"scenario\":\"a\",\"scale\":\"smoke\",\"delivered\":3,\"durable_log_ok\":true}\n"));
  ASSERT_TRUE(lines.ok()) << lines.error();
  EXPECT_TRUE(lines.Check(Scenario("a", "delivered", Better::kHigher, 3.0), 0.0));
  EXPECT_FALSE(lines.Check(Scenario("a", "delivered", Better::kHigher, 2.0), 0.0));
}

// Every row CI gates is present, numeric and nonzero in the committed
// baselines, so a baseline edit that stops parsing, or records a zero, fails
// here rather than in the perf job. At tolerance 1 a run value of 0 passes
// any positive baseline value, so each check fails only on a row or field
// that is missing, does not parse or is zero.
TEST(BaselineGateTest, CommittedBaselinesHoldEveryGatedRow) {
  const std::string root = BR_SOURCE_DIR;
  BaselineGate pr7(root + "/BENCH_PR7.json");
  ASSERT_TRUE(pr7.ok()) << pr7.error();
  for (const auto& [bench, metric] : std::vector<std::pair<std::string, std::string>>{
           {"kernel", "events_per_sec"},
           {"pylon_fanout", "fanout_sends_per_sec"},
           {"e2e_lvc", "sim_events_per_wall_sec"},
           {"livequery_fold", "folds_per_sec"},
           {"durable_log", "log_ops_per_sec"}}) {
    EXPECT_TRUE(pr7.Check(Perf(bench, metric, 0.0), 1.0)) << bench;
  }

  BaselineGate pr9(root + "/BENCH_PR9.json");
  ASSERT_TRUE(pr9.ok()) << pr9.error();
  for (const char* metric : {"pop_payloads_per_backbone_mb", "backbone_reduction_vs_regional"}) {
    EXPECT_TRUE(pr9.Check(Perf("ablation_filter_location", metric, 0.0), 1.0)) << metric;
  }

  BaselineGate pr10(root + "/SCENARIO_PR10.json");
  ASSERT_TRUE(pr10.ok()) << pr10.error();
  for (const char* cell : {"flash_crowd+pop_failure@2k", "reconnect_storm@10k-durable",
                           "flash_crowd+placed@2k"}) {
    EXPECT_TRUE(pr10.Check(Scenario(cell, "delivered", Better::kHigher, 0.0), 1.0)) << cell;
    EXPECT_TRUE(pr10.Check(Scenario(cell, "delivery_p99_ms", Better::kLower, 0.0), 1.0))
        << cell;
  }
}

}  // namespace
}  // namespace bladerunner
