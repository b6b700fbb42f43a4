// Reproduces Fig. 8: "Per-user metrics from our production environment for
// a typical day" — active request-streams per user, and per-minute-per-user
// rates of client subscription requests, Pylon publications, decisions on
// updates, and update deliveries, in 15-minute buckets over 24 hours.
//
//   paper bands: active streams 6-11/user (diurnal);
//                subscriptions 0.5-0.75/min/user;
//                publications 0.8-1.5/min/user;
//                decisions 1.1-3.2/min/user;
//                deliveries 0.1-0.25/min/user.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/cluster.h"
#include "src/core/daily.h"
#include "src/sim/lp.h"
#include "src/sim/simulator.h"
#include "src/workload/social_gen.h"

using namespace bladerunner;

namespace {

// Trough-to-peak band, robust to small-population bucket noise: the 10th
// and 90th percentile of the 15-minute buckets.
struct Band {
  std::vector<double> values;
  void Update(double v) { values.push_back(v); }
  double Lo() const { return Pct(0.10); }
  double Hi() const { return Pct(0.90); }
  double Pct(double q) const {
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    if (sorted.empty()) {
      return 0.0;
    }
    size_t i = static_cast<size_t>(q * static_cast<double>(sorted.size() - 1));
    return sorted[i];
  }
  std::string ToString() const { return Fmt("%.2f - %.2f", Lo(), Hi()); }
};

// ---- --perf / --smoke: parallel-kernel scalability harness ----
//
// Instead of the 24h figure reproduction, measure the partitioned kernel
// (PERF.md "LP-partitioned execution") at several thread counts:
//   * "kernel" rows: a synthetic event plasma — self-rescheduling 1ms
//     timers spread evenly over 16 device-group LPs plus the global LP,
//     no cross-LP traffic — isolating raw round-execution throughput.
//     This is where the thread-scaling headroom of the kernel itself shows.
//   * "daily" rows: the Fig. 8 DailyScenario end to end at a large device
//     fleet. The shared backend (TAO/Pylon/WAS/BRASS, all on the global
//     LP) serializes a sizable fraction of the event stream, so e2e
//     speedups are Amdahl-bounded well below the kernel's.
// Identical seeds produce identical event counts at every thread count;
// only the wall-clock column varies.

struct PerfRow {
  std::string name;     // "kernel" or "daily"
  int threads = 1;
  long devices = 0;     // 0 for the synthetic kernel rows
  uint64_t events = 0;
  uint64_t rounds = 0;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
};

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

PerfRow RunKernelRow(int threads, SimTime horizon, int timers_per_lp) {
  constexpr uint32_t kGroups = 16;
  // Per-event handler cost, emulating what a real component does per event
  // (protocol bookkeeping, a map touch, some hashing). Without this the
  // round barrier dominates and no kernel measures anything but itself.
  constexpr int kWorkIters = 64;
  SimParallelOptions po;
  po.threads = threads;
  po.num_lps = 1 + kGroups;
  po.lookahead = Millis(5);
  Simulator sim(808, po);
  for (uint32_t lp = 0; lp < po.num_lps; ++lp) {
    for (int k = 0; k < timers_per_lp; ++k) {
      auto tick = std::make_shared<std::function<void()>>();
      *tick = [&sim, lp, tick]() {
        uint64_t h = 0x9e3779b97f4a7c15ULL + lp;
        for (int w = 0; w < kWorkIters; ++w) {
          h ^= h >> 33;
          h *= 0xff51afd7ed558ccdULL;
        }
        // A volatile store keeps the hash (and the loop) alive without
        // feeding wall-clock-dependent state back into the schedule.
        volatile uint64_t sink = h;
        (void)sink;
        sim.Schedule(LpId(lp), Millis(1), *tick);
      };
      sim.Schedule(LpId(lp), Millis(1 + k % 5), *tick);
    }
  }
  auto t0 = std::chrono::steady_clock::now();
  sim.RunFor(horizon);
  PerfRow row;
  row.name = "kernel";
  row.threads = threads;
  row.events = sim.events_executed();
  row.rounds = sim.rounds_executed();
  row.wall_s = SecondsSince(t0);
  row.events_per_sec = static_cast<double>(row.events) / std::max(1e-9, row.wall_s);
  return row;
}

PerfRow RunDailyRow(int threads, long devices, SimTime duration) {
  ClusterConfig config;
  config.seed = 808;
  config.parallel.threads = threads;
  config.parallel.device_lp_groups = 16;
  // Tracing at a 10^5-device fleet would dominate memory and lock traffic;
  // sample hard like production would.
  config.trace.sample_rate = 0.001;
  SocialGraphConfig graph_config;
  graph_config.num_users = devices;
  graph_config.num_videos = std::max<long>(150, devices / 100);
  graph_config.num_threads = std::max<long>(80, devices / 50);
  BenchCluster fixture =
      MakeBenchCluster(config, graph_config, Topology::ThreeRegions(), Seconds(3));
  uint64_t warmup_events = fixture.sim().events_executed();

  DailyScenarioConfig daily;
  daily.duration = duration;
  DailyScenario scenario(fixture.cluster.get(), &fixture.graph, daily);
  auto t0 = std::chrono::steady_clock::now();
  scenario.Run();
  PerfRow row;
  row.name = "daily";
  row.threads = threads;
  row.devices = devices;
  row.events = fixture.sim().events_executed() - warmup_events;
  row.rounds = fixture.sim().rounds_executed();
  row.wall_s = SecondsSince(t0);
  row.events_per_sec = static_cast<double>(row.events) / std::max(1e-9, row.wall_s);
  return row;
}

void WriteJson(const std::string& path, const std::vector<PerfRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"fig8_scalability\",\n  \"cpus\": %u,\n  \"rows\": [\n",
               std::thread::hardware_concurrency());
  for (size_t i = 0; i < rows.size(); ++i) {
    const PerfRow& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"threads\": %d, \"devices\": %ld, "
                 "\"events\": %llu, \"rounds\": %llu, \"wall_s\": %.3f, "
                 "\"events_per_sec\": %.0f}%s\n",
                 r.name.c_str(), r.threads, r.devices,
                 static_cast<unsigned long long>(r.events),
                 static_cast<unsigned long long>(r.rounds), r.wall_s,
                 r.events_per_sec, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

int RunScalabilityHarness(const BenchOptions& opts) {
  PrintHeader("Fig. 8 (perf)", "parallel kernel scalability: LP rounds at 1..N threads");

  const bool smoke = opts.smoke;
  const SimTime kernel_horizon = smoke ? Seconds(1) : Seconds(5);
  const int timers_per_lp = smoke ? 100 : 400;
  // 10^5 devices for two simulated minutes keeps the scale row ~10^8 events
  // — big enough to exercise per-LP heaps at depth, small enough to finish.
  const long devices = opts.fleet > 0 ? opts.fleet : (smoke ? 300 : 100000);
  const SimTime daily_duration = smoke ? Minutes(5) : Minutes(2);
  const std::vector<int> kernel_threads = smoke ? std::vector<int>{1, 4}
                                                : std::vector<int>{1, 2, 4, 8};
  const std::vector<int> daily_threads = smoke ? std::vector<int>{1, 4}
                                               : std::vector<int>{1, 8};

  std::vector<PerfRow> rows;
  PrintSection("kernel throughput (synthetic multi-LP event plasma, 17 LPs)");
  PrintRow("%-10s %-9s %-14s %-10s %s", "row", "threads", "events", "wall_s", "events/s");
  for (int t : kernel_threads) {
    rows.push_back(RunKernelRow(t, kernel_horizon, timers_per_lp));
    const PerfRow& r = rows.back();
    PrintRow("%-10s %-9d %-14llu %-10.3f %.0f", r.name.c_str(), r.threads,
             static_cast<unsigned long long>(r.events), r.wall_s, r.events_per_sec);
  }

  PrintSection(Fmt("end-to-end DailyScenario (%ld devices, %lld simulated minutes)",
                   devices, static_cast<long long>(daily_duration / Minutes(1))));
  PrintRow("%-10s %-9s %-14s %-10s %s", "row", "threads", "events", "wall_s", "events/s");
  for (int t : daily_threads) {
    rows.push_back(RunDailyRow(t, devices, daily_duration));
    const PerfRow& r = rows.back();
    PrintRow("%-10s %-9d %-14llu %-10.3f %.0f", r.name.c_str(), r.threads,
             static_cast<unsigned long long>(r.events), r.wall_s, r.events_per_sec);
  }

  // Determinism cross-check: every thread count must execute the exact same
  // schedule, so event counts per row family must match.
  bool deterministic = true;
  for (const char* family : {"kernel", "daily"}) {
    uint64_t expect = 0;
    for (const PerfRow& r : rows) {
      if (r.name != family) continue;
      if (expect == 0) expect = r.events;
      if (r.events != expect) deterministic = false;
    }
  }

  double kernel_base = 0.0;
  double kernel_best = 0.0;
  for (const PerfRow& r : rows) {
    if (r.name != "kernel") continue;
    if (r.threads == 1) kernel_base = r.events_per_sec;
    kernel_best = std::max(kernel_best, r.events_per_sec);
  }
  double speedup = kernel_base > 0.0 ? kernel_best / kernel_base : 0.0;
  const unsigned cpus = std::thread::hardware_concurrency();
  PrintSection("recap");
  Recap("machine parallelism (hardware CPUs)", ">= threads", Fmt("%u", cpus));
  Recap("kernel speedup at max threads", "> 2x", Fmt("%.2fx", speedup));
  Recap("same event count at every thread count", "yes", deterministic ? "yes" : "NO");
  // The speedup gate is only meaningful where wall-clock parallelism can
  // exist at all; on a 1-2 CPU machine the rows still demonstrate the
  // determinism contract (identical event counts), just not the scaling.
  const bool enforce_speedup = !smoke && cpus >= 4;
  if (!enforce_speedup && !smoke) {
    PrintRow("note: %u CPU(s) available; speedup gate not enforced", cpus);
  }

  if (!opts.out_path.empty()) {
    WriteJson(opts.out_path, rows);
    PrintRow("wrote %s", opts.out_path.c_str());
  }
  if (!deterministic) return 1;
  return enforce_speedup && speedup <= 2.0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opts = ParseBenchOptions(argc, argv);
  if (opts.perf) {
    return RunScalabilityHarness(opts);
  }
  PrintHeader("Fig. 8", "per-user daily metrics (15-minute buckets)");

  ClusterConfig cluster_config;
  cluster_config.seed = 808;
  SocialGraphConfig graph_config;
  graph_config.num_users = 120;
  graph_config.num_videos = 150;
  graph_config.num_threads = 80;
  BenchCluster fixture =
      MakeBenchCluster(cluster_config, graph_config, Topology::ThreeRegions(), Seconds(3));

  DailyScenarioConfig daily;
  daily.duration = Hours(24);
  DailyScenario scenario(fixture.cluster.get(), &fixture.graph, daily);
  scenario.Run();

  const double users = static_cast<double>(scenario.num_users());
  const TimeSeries& active = scenario.Series("daily.active_streams_per_user");
  const TimeSeries& subs = scenario.Series("daily.subscriptions");
  const TimeSeries& pubs = scenario.Series("daily.publications");
  const TimeSeries& decisions = scenario.Series("daily.decisions");
  const TimeSeries& deliveries = scenario.Series("daily.deliveries");

  PrintSection("15-minute buckets (every 2 hours shown)");
  PrintRow("%-7s %-14s %-13s %-13s %-13s %s", "time", "active/user", "subs/min/u",
           "pubs/min/u", "dec/min/u", "deliv/min/u");
  Band active_band;
  Band subs_band;
  Band pubs_band;
  Band dec_band;
  Band del_band;
  size_t buckets = active.BucketCount();
  for (size_t b = 0; b + 1 < buckets; ++b) {  // skip the final partial bucket
    double a = active.Mean(b);
    double s = subs.RatePerMinute(b) / users;
    double p = pubs.RatePerMinute(b) / users;
    double d = decisions.RatePerMinute(b) / users;
    double v = deliveries.RatePerMinute(b) / users;
    active_band.Update(a);
    subs_band.Update(s);
    pubs_band.Update(p);
    dec_band.Update(d);
    del_band.Update(v);
    if (b % 8 == 0) {
      PrintRow("%-7s %-14.2f %-13.3f %-13.3f %-13.3f %.3f",
               FormatTimeOfDay(active.BucketStart(b)).c_str(), a, s, p, d, v);
    }
  }

  PrintSection("paper vs measured (daily bands)");
  Recap("active request-streams per user", "6 - 11", active_band.ToString());
  Recap("client subscriptions /min/user", "0.5 - 0.75", subs_band.ToString());
  Recap("Pylon publications /min/user", "0.8 - 1.5", pubs_band.ToString());
  Recap("decisions on updates /min/user", "1.1 - 3.2", dec_band.ToString());
  Recap("update deliveries /min/user", "0.1 - 0.25", del_band.ToString());
  Recap("diurnal pattern (peak/trough of active)", "~1.7x",
        Fmt("%.1fx", active_band.Hi() / std::max(0.01, active_band.Lo())));
  return 0;
}
