// Shared output helpers for the paper-reproduction benchmarks. Every bench
// prints (i) the rows/series of the table or figure it regenerates and
// (ii) a "paper vs measured" recap so EXPERIMENTS.md can be filled by
// reading the output.

#ifndef BLADERUNNER_BENCH_BENCH_UTIL_H_
#define BLADERUNNER_BENCH_BENCH_UTIL_H_

#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/device.h"
#include "src/net/topology.h"
#include "src/sim/histogram.h"
#include "src/sim/time.h"
#include "src/workload/social_gen.h"

namespace bladerunner {

// ---- shared command-line handling ----
//
// Every bench accepts the same flags (previously copy-pasted into each main
// that needed one of them):
//   --smoke            quick mode (implies --perf in harness benches)
//   --perf             perf-harness mode where the bench supports it
//   --out PATH         write machine-readable results (JSON) to PATH
//   --check PATH       gate against a committed baseline or a previous --out
//                      file (bench/baseline_gate.h: a row missing from it
//                      fails); implies --perf in harness benches. Only the
//                      benches that gate (BaselineCheck::kGated) accept it
//   --tolerance X      allowed relative regression for --check (default .25);
//                      accepted where --check is
//   --threads N        worker threads for the kernel's rounds; N > 1 also
//                      partitions the cluster unless --lp-groups says
//                      otherwise (with one LP, threads are unused)
//   --lp-groups N      number of device-group LPs, 0..4094 (default 16 when
//                      --threads > 1, else 0 = one LP for the whole
//                      cluster; deliberately independent of the thread
//                      count so --threads 2 and --threads 8 produce
//                      identical results)
//   --fleet N          override the bench's device-fleet size where it
//                      honours one
//   --cell NAME        restrict a matrix bench (bench_scenario_matrix) to
//                      the named cell; repeatable
struct BenchOptions {
  bool smoke = false;
  bool perf = false;
  std::string out_path;
  std::string check_path;
  double tolerance = 0.25;
  int threads = 1;
  int lp_groups = -1;  // -1 = derive from threads
  long fleet = 0;      // 0 = bench default
  std::vector<std::string> cells;  // empty = run every cell

  // The cluster-facing translation of --threads/--lp-groups. One LP (all
  // defaults) when threads == 1 and no explicit --lp-groups. The derived
  // group count is a constant, NOT a function of the thread count: the LP
  // layout determines results (each LP draws from its own random stream),
  // threads only determine wall-clock.
  ClusterParallelConfig Parallel() const {
    ClusterParallelConfig parallel;
    parallel.threads = threads;
    parallel.device_lp_groups = lp_groups >= 0 ? lp_groups : (threads > 1 ? 16 : 0);
    return parallel;
  }
  void ApplyTo(ClusterConfig* config) const { config->parallel = Parallel(); }
};

// Process-wide copy of the parsed options so helpers deep inside a bench
// (the RunWorkload/MeasureFanout style functions that build their own
// clusters) can honour --threads without threading an options argument
// through every signature. Set by ParseBenchOptions; defaults before that.
inline BenchOptions& MutableBenchOptions() {
  static BenchOptions opts;
  return opts;
}
inline const BenchOptions& bench_options() { return MutableBenchOptions(); }

// Whether a bench gates its rows against a --check baseline. A bench that
// does not rejects --check and --tolerance: accepting them would let a gate
// spelled on the wrong bench pass having checked nothing.
enum class BaselineCheck { kNone, kGated };

// Strict parser: every bench errors out on unrecognized flags, missing
// values, non-numeric values and out-of-range LP counts instead of
// silently ignoring them. (A typo'd `--lp-gruops=8` used to run one LP and
// "pass" a parallel-kernel check.) Both `--flag value` and `--flag=value` spellings
// are accepted; flags starting with `--benchmark` pass through untouched
// for benches that hand argv on to google-benchmark (bench_micro).
//
// This non-exiting variant exists so the unit test (bench_options_test) can
// exercise rejection paths; benches call ParseBenchOptions below, which
// prints the error and exits 2.
inline bool ParseBenchOptionsInto(int argc, char** argv, BenchOptions* opts,
                                  std::string* error,
                                  BaselineCheck baseline = BaselineCheck::kNone) {
  auto parse_long = [error](const std::string& flag, const std::string& text, long* out) {
    char* end = nullptr;
    errno = 0;
    long value = std::strtol(text.c_str(), &end, 10);
    if (text.empty() || errno != 0 || end == nullptr || *end != '\0') {
      *error = flag + " expects an integer, got '" + text + "'";
      return false;
    }
    *out = value;
    return true;
  };
  auto parse_double = [error](const std::string& flag, const std::string& text, double* out) {
    char* end = nullptr;
    errno = 0;
    double value = std::strtod(text.c_str(), &end);
    if (text.empty() || errno != 0 || end == nullptr || *end != '\0') {
      *error = flag + " expects a number, got '" + text + "'";
      return false;
    }
    *out = value;
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--benchmark", 0) == 0) {
      continue;  // google-benchmark's own flags (bench_micro forwards argv)
    }
    std::string flag = arg;
    std::string value;
    bool has_value = false;
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flag = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      has_value = true;
    }
    const bool is_bool = flag == "--smoke" || flag == "--perf";
    const bool is_known = is_bool || flag == "--out" || flag == "--check" ||
                          flag == "--tolerance" || flag == "--threads" ||
                          flag == "--lp-groups" || flag == "--fleet" || flag == "--cell";
    if (!is_known) {
      *error = "unrecognized flag '" + arg +
               "' (shared bench flags: --smoke --perf --out --check --tolerance "
               "--threads --lp-groups --fleet --cell)";
      return false;
    }
    if ((flag == "--check" || flag == "--tolerance") && baseline == BaselineCheck::kNone) {
      *error = flag + " is not supported: this bench gates no baseline (bench_micro, "
                      "bench_ablation_filter_location and bench_scenario_matrix do)";
      return false;
    }
    if (is_bool) {
      if (has_value) {
        *error = flag + " takes no value";
        return false;
      }
      opts->smoke = opts->smoke || flag == "--smoke";
      opts->perf = true;  // --smoke implies --perf in harness benches
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) {
        *error = flag + " expects a value";
        return false;
      }
      value = argv[++i];
    }
    if (flag == "--out") {
      opts->out_path = value;
    } else if (flag == "--check") {
      opts->check_path = value;
      opts->perf = true;  // a check needs the harness rows it gates
    } else if (flag == "--cell") {
      opts->cells.push_back(value);
    } else if (flag == "--tolerance") {
      if (!parse_double(flag, value, &opts->tolerance)) {
        return false;
      }
    } else if (flag == "--threads") {
      long threads = 0;
      if (!parse_long(flag, value, &threads)) {
        return false;
      }
      opts->threads = static_cast<int>(threads);
      if (opts->threads < 1) opts->threads = 1;
    } else if (flag == "--lp-groups") {
      long groups = 0;
      if (!parse_long(flag, value, &groups)) {
        return false;
      }
      // LP 0 plus the groups must fit the kernel's LP limit.
      if (groups < 0 || groups > static_cast<long>(kMaxLps) - 1) {
        *error = flag + " expects 0.." + std::to_string(kMaxLps - 1) + ", got '" + value + "'";
        return false;
      }
      opts->lp_groups = static_cast<int>(groups);
    } else {  // --fleet
      if (!parse_long(flag, value, &opts->fleet)) {
        return false;
      }
    }
  }
  return true;
}

inline BenchOptions ParseBenchOptions(int argc, char** argv,
                                      BaselineCheck baseline = BaselineCheck::kNone) {
  BenchOptions opts;
  std::string error;
  if (!ParseBenchOptionsInto(argc, argv, &opts, &error, baseline)) {
    std::fprintf(stderr, "%s: %s\n", argc > 0 ? argv[0] : "bench", error.c_str());
    std::exit(2);
  }
  MutableBenchOptions() = opts;
  return opts;
}

// ---- shared cluster/workload fixture ----
//
// Most benches open the same way: build a cluster from a ClusterConfig,
// generate a social graph into its TAO, and run a short warmup so
// replication and caches settle before the measured scenario starts.
// BladerunnerCluster is neither copyable nor movable, so the fixture owns
// it behind a unique_ptr.
struct BenchCluster {
  std::unique_ptr<BladerunnerCluster> cluster;
  SocialGraph graph;

  Simulator& sim() { return cluster->sim(); }
  MetricsRegistry& metrics() { return cluster->metrics(); }
};

inline BenchCluster MakeBenchCluster(const ClusterConfig& config,
                                     const SocialGraphConfig& graph_config,
                                     Topology topology = Topology::ThreeRegions(),
                                     SimTime warmup = Seconds(2)) {
  BenchCluster fixture;
  // --threads/--lp-groups reach every fixture-built cluster automatically;
  // a bench that set an explicit parallel config wins.
  ClusterConfig effective = config;
  if (effective.parallel.threads == 1 && effective.parallel.device_lp_groups == 0) {
    bench_options().ApplyTo(&effective);
  }
  fixture.cluster = std::make_unique<BladerunnerCluster>(effective, std::move(topology));
  fixture.graph =
      GenerateSocialGraph(fixture.cluster->tao(), fixture.cluster->sim().rng(), graph_config);
  fixture.sim().RunFor(warmup);
  return fixture;
}

// Same fixture with live queries enabled: the cluster registers the
// declarative LiveFeed/LiveCount apps (src/apps/comment_feed.h,
// src/apps/presence_counter.h) and owns a LiveQueryEngine, so a bench can
// subscribe devices with SubscribeRaw("LiveFeed", ...) and reach the
// engine via fixture.cluster->livequery().
inline BenchCluster MakeLiveQueryBenchCluster(ClusterConfig config,
                                              const SocialGraphConfig& graph_config,
                                              Topology topology = Topology::ThreeRegions(),
                                              SimTime warmup = Seconds(2)) {
  config.livequery.enabled = true;
  return MakeBenchCluster(config, graph_config, std::move(topology), warmup);
}

// The fleet-construction loop every bench used to hand-roll: `count`
// devices for graph.users[first_user ...], all in `region` (or spread
// round-robin across regions when region < 0), with `setup` run on each
// fresh device — the place for Subscribe*() calls.
inline std::vector<std::unique_ptr<DeviceAgent>> MakeDeviceFleet(
    BenchCluster& fixture, size_t first_user, size_t count,
    const std::function<void(DeviceAgent&, size_t)>& setup = nullptr,
    DeviceProfile profile = DeviceProfile::kWifi, RegionId region = 0) {
  std::vector<std::unique_ptr<DeviceAgent>> fleet;
  fleet.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    RegionId r = region >= 0 ? region
                             : static_cast<RegionId>(i % fixture.cluster->topology().num_regions());
    fleet.push_back(std::make_unique<DeviceAgent>(
        fixture.cluster.get(), fixture.graph.users[first_user + i], r, profile));
    if (setup) {
      setup(*fleet.back(), i);
    }
  }
  return fleet;
}

inline void PrintHeader(const std::string& id, const std::string& title) {
  std::printf("==============================================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("==============================================================================\n");
}

inline void PrintSection(const std::string& name) { std::printf("\n-- %s --\n", name.c_str()); }

inline void PrintRow(const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
  std::printf("\n");
}

// Prints a CDF as "p  value_seconds" pairs at the given quantiles.
inline void PrintCdfSeconds(const std::string& label, const Histogram& histogram) {
  std::printf("%-28s", label.c_str());
  for (double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99}) {
    std::printf("  p%02.0f=%.3fs", q * 100.0, histogram.Quantile(q) / 1e6);
  }
  std::printf("  (n=%llu)\n", static_cast<unsigned long long>(histogram.count()));
}

inline void PrintCdfMillis(const std::string& label, const Histogram& histogram) {
  std::printf("%-28s", label.c_str());
  for (double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99}) {
    std::printf("  p%02.0f=%.0fms", q * 100.0, histogram.Quantile(q) / 1e3);
  }
  std::printf("  (n=%llu)\n", static_cast<unsigned long long>(histogram.count()));
}

// One "paper vs measured" recap line.
inline void Recap(const std::string& what, const std::string& paper, const std::string& measured) {
  std::printf("  %-44s paper: %-22s measured: %s\n", what.c_str(), paper.c_str(),
              measured.c_str());
}

inline std::string Fmt(const char* format, ...) {
  char buf[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

}  // namespace bladerunner

#endif  // BLADERUNNER_BENCH_BENCH_UTIL_H_
