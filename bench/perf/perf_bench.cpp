// perf_bench: one benchmark workload at one seed, in one process.
//
//   perf_bench --workload NAME --seed N --seconds T [--trace] [--threads N]
//              [--scale X]
//
// --threads sets the partitioned kernel's worker threads for diurnal_fleet
// (default 1; its results are identical at any thread count). --scale
// multiplies every fleet size (run.py --smoke uses 0.1).
//
// A run simulates K game-days one after another, each on a fresh cluster
// built through the public API, with game-day seeds N*K+1 .. N*K+K. K is as
// many game-days as fit in T seconds at the workload's nominal cost per
// game-day (below), so it depends on T but never on how fast this host is.
// Load is an open loop in simulated time: every comment, tick and session is
// pre-scheduled from the seed, so the generator can never run late. Each
// game-day is audited; the run then prints exactly one JSON line:
//
//   host      host-clock metrics: set-up time and events per second in
//             reference seconds (see ReferenceKernel), the same in raw wall
//             time, benchmark spans (median over game-days), peak RSS
//   sim       simulated-time end-to-end metrics, pooled over the game-days
//             (deterministic for a seed)
//   layer     per-layer counters, summed over the game-days
//   trace     per-hop span statistics (--trace only)
//   failures  every check that did not hold; empty on success
//
// Pooling sums counters and merges histograms across game-days, so one
// game-day that tips into overload moves a pooled ratio by its share
// instead of flipping a median. Tracing is on by default in ClusterConfig;
// untraced runs turn it off so host time excludes the collector.
// bench/perf/run.py drives this program; bench/perf/README.md defines every
// metric.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/daily.h"
#include "src/pylon/topic.h"
#include "src/trace/analysis.h"
#include "src/was/resolvers.h"
#include "src/workload/scenario_lib.h"

namespace bladerunner {
namespace {

using Clock = std::chrono::steady_clock;
using Values = std::vector<std::pair<std::string, double>>;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

rusage SelfUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru;
}

// Resident memory now, in KiB (Linux). ru_maxrss cannot measure a growth: a
// child starts with the peak of the process it was forked from.
long ResidentKb() {
  long pages = 0;
  long resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) {
      resident = 0;
    }
    std::fclose(f);
  }
  return resident * (sysconf(_SC_PAGESIZE) / 1024);
}

double ProcessCpuSeconds() {
  const rusage ru = SelfUsage();
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

// A fixed miniature of the simulator's inner loop: pop the earliest event
// from a heap, look up a hash map, run a heap-allocated closure that stores
// into a few MB of state, push the next event. A shared host's speed drifts
// by up to a third over minutes, and the simulator and this kernel slow down
// together. The benchmark times the kernel right before and right after every
// game-day's measured window and reports that game-day's host time in
// reference seconds: measured seconds times kReferenceSeconds / the mean of
// the two kernel times. Over 64 interleaved runs on a 4-vCPU VM this cut the
// seed-to-seed spread of events per second from 13-25% to 2-9%. A change to
// the repository, which never touches this code, shows in full.
class ReferenceKernel {
 public:
  // The kernel's time on a quiet 4-vCPU, 2.1 GHz VM: one reference second is
  // a second of that VM.
  static constexpr double kReferenceSeconds = 0.025;

  ReferenceKernel() : table_(kTableSlots) {
    for (uint64_t i = 0; i < kKeys; ++i) {
      index_[i * 7919] = i;
    }
    // Allocated once, so that the kernel leaves the simulator's heap alone.
    events_.reserve(kPending + 1);
    Seconds();  // first touch of every page, outside any measurement
  }

  // Wall seconds for one fixed run of the kernel.
  double Seconds() {
    events_.clear();
    for (uint64_t id = 0; id < kPending; ++id) {
      events_.emplace_back(Next() % kPending, id);
    }
    std::make_heap(events_.begin(), events_.end(), std::greater<>());
    const auto t0 = Clock::now();
    for (int i = 0; i < kSteps; ++i) {
      std::pop_heap(events_.begin(), events_.end(), std::greater<>());
      const auto [at, id] = events_.back();
      events_.pop_back();
      const uint64_t value = index_.find((Next() % kKeys) * 7919)->second;
      uint64_t& slot = table_[(value ^ id) % kTableSlots];
      const std::function<void()> handler = [&slot, label = std::to_string(at), id] {
        slot += label.size() + id;
      };
      handler();
      events_.emplace_back(at + 1 + Next() % 64, id);
      std::push_heap(events_.begin(), events_.end(), std::greater<>());
    }
    return SecondsSince(t0);
  }

 private:
  static constexpr uint64_t kKeys = 200000;
  static constexpr uint64_t kPending = 20000;
  static constexpr uint64_t kTableSlots = 1 << 19;  // 4 MB
  static constexpr int kSteps = 50000;

  uint64_t Next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return state_ >> 33;
  }

  std::vector<std::pair<uint64_t, uint64_t>> events_;  // (time, id), a min-heap
  std::vector<uint64_t> table_;
  std::unordered_map<uint64_t, uint64_t> index_;
  uint64_t state_ = 1;
};

// Histogram::Quantile reports the geometric midpoint of a ~4% bucket, so a
// percentile moves in bucket steps and often reads identically across seeds.
// Inverting the bucket-interpolated CDF gives a continuous estimate.
double SmoothQuantile(const Histogram& h, double q) {
  if (h.count() == 0) {
    return 0.0;
  }
  double lo = h.min();
  double hi = h.max();
  if (h.CdfAt(lo) >= q) {
    return lo;
  }
  for (int i = 0; i < 64; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (h.CdfAt(mid) >= q) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

// Every app that records per-app histograms on delivery (src/apps).
const char* const kApps[] = {"LVC",    "AS",     "TI",       "Stories",
                             "Messenger", "Ticker", "LiveFeed", "LiveCount"};

// The per-hop spans the traced pass reports (docs/TRACING.md).
const char* const kHops[] = {"was.publish", "pylon.deliver", "brass.process", "brass.fetch",
                             "burst.deliver"};
const char* const kComponents[] = {"was", "pylon", "brass", "burst"};

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  int threads = 1;
  double scale = 1.0;
};

// Run scaffolding: per-game-day host spans and measured window, checks, and
// the pooled counters and histograms every reported metric is computed from.
class Bench {
 public:
  explicit Bench(Options options) : opts_(std::move(options)) {
    const long before_kb = ResidentKb();
    reference_ = std::make_unique<ReferenceKernel>();
    reference_kb_ = ResidentKb() - before_kb;
  }

  const Options& opts() const { return opts_; }
  uint64_t seed() const { return seed_; }

  size_t Scaled(size_t n) const {
    return std::max<size_t>(
        1, static_cast<size_t>(std::lround(static_cast<double>(n) * opts_.scale)));
  }

  void BeginGameDay(uint64_t seed) {
    seed_ = seed;
    days_.emplace_back();
  }

  template <typename F>
  void Span(const char* name, F&& fn) {
    const auto t0 = Clock::now();
    fn();
    days_.back()[name] += SecondsSince(t0);
  }

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      failures_.push_back("seed " + std::to_string(seed_) + ": " + what);
    }
  }

  // The game-day cluster posture shared by every workload: the scenario
  // layer's overload knobs (pacing, tight queue bounds, degrade armed), and
  // tracing only when asked for. A traced run keeps every trace, so nothing
  // is evicted inside the window.
  ClusterConfig BaseConfig() const {
    ClusterConfig config;
    config.seed = seed_;
    config.trace.enabled = opts_.trace;
    config.trace.sample_rate = 1.0;
    config.trace.max_traces = 0;
    config.brass.overload.min_push_gap = Millis(200);
    config.brass.overload.max_pending_per_stream = 8;
    config.brass.overload.degrade_min_sheds = 4;
    config.brass.overload.degrade_shed_fraction = 0.25;
    config.brass.overload.shed_window = Seconds(2);
    config.brass.overload.recover_check_interval = Seconds(2);
    return config;
  }

  // MakeBenchCluster's steps (construct, generate the graph, warm up), timed
  // one by one so set-up cost can be attributed.
  BenchCluster BuildFixture(const ClusterConfig& config, const SocialGraphConfig& graph_config) {
    BenchCluster fixture;
    Span("host.cluster_build_s", [&] {
      fixture.cluster = std::make_unique<BladerunnerCluster>(config, Topology::ThreeRegions());
    });
    Span("host.graph_gen_s", [&] {
      fixture.graph = GenerateSocialGraph(fixture.cluster->tao(), fixture.cluster->sim().rng(),
                                          graph_config);
      fixture.sim().RunFor(Seconds(2));
    });
    return fixture;
  }

  // The measured window: everything simulated after set-up and before the
  // audits (settle, load, drain), bracketed by the reference kernel.
  void BeginWindow(const Simulator& sim) {
    reference_before_ = reference_->Seconds();
    window_events_ = sim.events_executed();
    window_cpu_ = ProcessCpuSeconds();
    window_start_ = Clock::now();
  }
  void EndWindow(const Simulator& sim) {
    const double events = static_cast<double>(sim.events_executed() - window_events_);
    days_.back()["sim.run_wall_s"] = SecondsSince(window_start_);
    days_.back()["sim.events"] = events;
    cpu_s_ += ProcessCpuSeconds() - window_cpu_;
    total_["sim.events"] += events;
    days_.back()["host.reference_s"] = 0.5 * (reference_before_ + reference_->Seconds());
  }

  // Audits the finished game-day and folds its metrics into the run's.
  void EndGameDay(BladerunnerCluster& cluster, size_t devices);

  // Prints the run's JSON line; returns whether every check held.
  bool Print() const;

 private:
  double Total(const std::string& name) const {
    auto it = total_.find(name);
    return it == total_.end() ? 0.0 : it->second;
  }
  const Histogram& Pooled(const std::string& name) const {
    static const Histogram kEmpty;
    auto it = hist_.find(name);
    return it == hist_.end() ? kEmpty : it->second;
  }
  void PoolTrace(const TraceCollector& collector);
  Values HostValues() const;
  Values SimValues() const;
  Values LayerValues() const;
  Values TraceValues() const;

  Options opts_;
  uint64_t seed_ = 0;
  std::vector<std::map<std::string, double>> days_;  // host spans etc., per game-day
  std::vector<std::string> failures_;
  std::map<std::string, double> total_;      // counters summed over game-days
  std::map<std::string, Histogram> hist_;    // histograms merged over game-days
  std::map<std::string, double> self_time_;  // component -> exclusive span time
  std::unique_ptr<ReferenceKernel> reference_;
  long reference_kb_ = 0;  // resident for the whole run; left out of peak RSS
  double reference_before_ = 0.0;  // kernel seconds before the current window
  double cpu_s_ = 0.0;
  uint64_t window_events_ = 0;
  double window_cpu_ = 0.0;
  Clock::time_point window_start_;
};

void Bench::EndGameDay(BladerunnerCluster& cluster, size_t devices) {
  const MetricsRegistry& m = cluster.metrics();
  const Simulator& sim = cluster.sim();
  auto merge = [&](const std::string& into, const std::string& name) {
    if (const Histogram* h = m.FindHistogram(name)) {
      hist_[into].Merge(*h);
    }
  };
  const Counter* received = m.FindCounter("device.payloads_received");
  Check(received != nullptr && received->value() > 0, "zero deliveries");
  Check(sim.lookahead_clamps() == 0, std::to_string(sim.lookahead_clamps()) + " lookahead clamps");
  Span("host.audit_s", [&] {
    const SubscriptionAudit subs = AuditSubscriptionDurability(cluster);
    Check(subs.lost == 0, std::to_string(subs.lost) + " of " + std::to_string(subs.audited) +
                              " Pylon subscriptions lost");
    if (LiveQueryEngine* lq = cluster.livequery()) {
      std::string diagnostic;
      Check(lq->AuditAll(&diagnostic), "live-query audit failed: " + diagnostic);
    }
  });

  // Delivery latency: `_createdAt` at the writer to arrival at the device,
  // merged over every app's device-side histogram (simulated microseconds).
  for (const char* app : kApps) {
    merge("latency", std::string("e2e.total_us.") + app);
    merge("brass.push_delay_us", std::string("brass.push_delay_us.") + app);
  }
  merge("brass.delivery_queue_depth", "brass.delivery_queue_depth");
  merge("pylon.fanout_send_delay_us", "pylon.fanout_send_delay_us");
  for (const std::string& name : m.CounterNames()) {
    total_[name] += static_cast<double>(m.FindCounter(name)->value());
  }
  total_["core.devices"] += static_cast<double>(devices);
  total_["sim.all_events"] += static_cast<double>(sim.events_executed());
  total_["sim.rounds"] += static_cast<double>(sim.rounds_executed());
  total_["sim.cross_lp_sends"] += static_cast<double>(sim.cross_lp_sends());
  total_["sim.lookahead_clamps"] += static_cast<double>(sim.lookahead_clamps());
  if (opts_.trace) {
    PoolTrace(cluster.trace());
  }
}

void Bench::PoolTrace(const TraceCollector& collector) {
  for (const char* hop : kHops) {
    SpanQuery query;
    query.name = hop;
    hist_[std::string("hop.") + hop].Merge(SpanDurationHistogram(collector, query));
  }
  // Self time: span time not covered by child spans, per component.
  for (const TraceRecord* trace : collector.AllTraces()) {
    for (const auto& [component, stat] : ComponentBreakdown(*trace)) {
      self_time_[component] += static_cast<double>(stat.exclusive);
    }
  }
  Check(collector.traces_evicted() == 0,
        std::to_string(collector.traces_evicted()) + " traces evicted inside the window");
}

Values Bench::HostValues() const {
  auto span = [](const std::map<std::string, double>& day, const char* name) {
    auto it = day.find(name);
    return it == day.end() ? 0.0 : it->second;
  };
  auto median = [&](const char* name) {
    std::vector<double> v;
    for (const auto& day : days_) {
      v.push_back(span(day, name));
    }
    return Median(v);
  };
  // Each game-day's host seconds convert to reference seconds at the speed
  // the reference kernel measured around its window.
  std::vector<double> setup;
  double events = 0.0;
  double wall = 0.0;
  double reference_wall = 0.0;
  for (const auto& day : days_) {
    const double to_reference =
        ReferenceKernel::kReferenceSeconds / span(day, "host.reference_s");
    setup.push_back(to_reference * (span(day, "host.cluster_build_s") +
                                    span(day, "host.graph_gen_s") +
                                    span(day, "host.fleet_build_s")));
    events += span(day, "sim.events");
    wall += span(day, "sim.run_wall_s");
    reference_wall += to_reference * span(day, "sim.run_wall_s");
  }
  Values v = {
      {"setup_s", Median(setup)},
      {"sim_events_per_s", events / reference_wall},
      {"peak_rss_mb",  // Linux: KiB
       static_cast<double>(SelfUsage().ru_maxrss - reference_kb_) / 1024.0},
      {"sim.cpu_per_wall", cpu_s_ / wall},
      {"host.wall_events_per_s", events / wall},
  };
  for (const char* name : {"sim.run_wall_s", "host.reference_s", "host.cluster_build_s",
                           "host.graph_gen_s", "host.fleet_build_s", "host.settle_s",
                           "host.load_window_s", "host.drain_s", "host.audit_s"}) {
    v.emplace_back(name, median(name));
  }
  return v;
}

Values Bench::SimValues() const {
  const Histogram& latency = Pooled("latency");
  const double received = Total("device.payloads_received");
  const double failed = Total("brass.shed") + Total("burst.pop_shed") +
                        Total("brass.degraded_drops") + Total("brass.deliveries_dropped") +
                        Total("burst.server_pushes_dropped");
  const double attempted =
      failed + received + Total("brass.conflated") + Total("burst.pop_conflated");
  const double backbone =
      Total("burst.pop_backbone_bytes_up") + Total("burst.pop_backbone_bytes_down");
  // Every WAS request the delivery system makes: payload fetches, stream
  // subscription resolves, and the degrade-to-poll fallback's queries.
  const double was_requests =
      Total("was.fetches") + Total("was.subscription_resolves") + Total("was.queries");
  const double per_delivery = 1.0 / std::max(1.0, received);
  return {
      {"delivery_p50_ms", SmoothQuantile(latency, 0.50) / 1e3},
      {"delivery_p99_ms", SmoothQuantile(latency, 0.99) / 1e3},
      {"latency_samples", static_cast<double>(latency.count())},
      {"attempted", attempted},
      {"failed", failed},
      {"delivered_frac", attempted > 0.0 ? 1.0 - failed / attempted : 0.0},
      {"backbone_bytes_per_delivery", backbone * per_delivery},
      {"was_requests_per_1k_deliveries", was_requests * 1000.0 * per_delivery},
  };
}

Values Bench::LayerValues() const {
  auto c = [this](const char* name) { return Total(name); };
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  auto p99 = [this](const char* name) { return SmoothQuantile(Pooled(name), 0.99); };
  return {
      {"sim.events", c("sim.events")},
      {"sim.rounds", c("sim.rounds")},
      {"sim.cross_lp_sends", c("sim.cross_lp_sends")},
      {"sim.lookahead_clamps", c("sim.lookahead_clamps")},
      {"core.devices", c("core.devices")},
      {"core.subscriptions", c("device.subscriptions")},
      {"core.payloads_received", c("device.payloads_received")},
      {"core.streams_terminated", c("device.streams_terminated")},
      {"core.fallback_polls", c("device.fallback_polls")},
      {"pylon.publishes", c("pylon.publishes")},
      {"pylon.fanout_sends", c("pylon.fanout_sends")},
      {"pylon.fanout_shed", c("pylon.fanout_shed")},
      {"pylon.fanout_send_delay_p99_ms", p99("pylon.fanout_send_delay_us") / 1e3},
      {"pylon.kv_adds", c("pylon.kv_adds")},
      {"pylon.kv_removes", c("pylon.kv_removes")},
      {"pylon.subscribes", c("pylon.subscribes")},
      {"pylon.quorum_failures", c("pylon.quorum_failures")},
      {"brass.events_received", c("brass.events_received")},
      {"brass.decisions", c("brass.decisions")},
      {"brass.decisions_positive", c("brass.decisions_positive")},
      {"brass.filtered", c("brass.filtered")},
      {"brass.deliveries", c("brass.deliveries")},
      {"brass.conflated", c("brass.conflated")},
      {"brass.shed", c("brass.shed")},
      {"brass.degraded_drops", c("brass.degraded_drops")},
      {"brass.queue_depth_p99", p99("brass.delivery_queue_depth")},
      {"brass.push_delay_p99_ms", p99("brass.push_delay_us") / 1e3},
      {"brass.fetch_requests", c("brass.fetch.requests")},
      {"brass.fetch_reuse_ratio", ratio(c("brass.fetch.cache_hits") + c("brass.fetch.coalesced"),
                                        c("brass.fetch.requests"))},
      {"brass.was_fetches", c("brass.was_fetches")},
      {"brass.durable_appends", c("brass.durable_appends")},
      {"brass.durable_replayed", c("brass.durable_replayed")},
      {"burst.server_pushes", c("burst.server_pushes")},
      {"burst.server_pushes_dropped", c("burst.server_pushes_dropped")},
      {"burst.client_resubscribes", c("burst.client_resubscribes")},
      {"burst.reconnect_attempts", c("burst.device_reconnect_attempts")},
      {"burst.stream_resumes", c("burst.server_stream_resumes")},
      {"burst.backbone_bytes",
       c("burst.pop_backbone_bytes_up") + c("burst.pop_backbone_bytes_down")},
      {"burst.pop_envelopes", c("burst.pop_envelopes")},
      {"burst.pop_filtered", c("burst.pop_filtered")},
      {"burst.pop_conflated", c("burst.pop_conflated")},
      {"burst.pop_shed", c("burst.pop_shed")},
      {"burst.pop_deliveries", c("burst.pop_deliveries")},
      {"burst.pop_cache_hit_ratio",
       ratio(c("burst.pop_cache_hits"), c("burst.pop_cache_hits") + c("burst.pop_cache_misses"))},
      {"burst.pop_fetches", c("burst.pop_fetches")},
      {"was.queries", c("was.queries")},
      {"was.mutations", c("was.mutations")},
      {"was.fetches", c("was.fetches")},
      {"was.viewers_per_fetch", ratio(c("was.fetch_viewers"), c("was.fetches"))},
      {"was.privacy_checks", c("was.privacy_checks")},
      {"tao.point_reads", c("tao.point_reads")},
      {"tao.range_reads", c("tao.range_reads")},
      {"tao.shards_touched", c("tao.shards_touched")},
      {"tao.writes", c("tao.object_writes") + c("tao.assoc_writes") + c("tao.assoc_deletes")},
      {"livequery.deltas", c("livequery.deltas")},
      {"livequery.applied", c("livequery.applied")},
      {"livequery.publishes", c("livequery.publishes")},
      {"livequery.suppressed", c("livequery.suppressed")},
      {"livequery.fallback_reexecs", c("livequery.fallback_reexecs")},
      {"livequery.maintenance_reads", c("livequery.maintenance_reads")},
  };
}

Values Bench::TraceValues() const {
  Values v;
  if (!opts_.trace) {
    return v;
  }
  for (const char* hop : kHops) {
    const Histogram& h = Pooled(std::string("hop.") + hop);
    v.emplace_back(std::string("trace.hop.") + hop + ".p50_ms", SmoothQuantile(h, 0.50) / 1e3);
    v.emplace_back(std::string("trace.hop.") + hop + ".p99_ms", SmoothQuantile(h, 0.99) / 1e3);
  }
  double total = 0.0;
  for (const auto& [component, t] : self_time_) {
    total += t;
  }
  for (const char* component : kComponents) {
    auto it = self_time_.find(component);
    v.emplace_back(std::string("trace.self_share.") + component,
                   it == self_time_.end() || total <= 0.0 ? 0.0 : it->second / total);
  }
  return v;
}

void PrintGroup(const char* name, const Values& values) {
  std::printf(",\"%s\":{", name);
  for (size_t i = 0; i < values.size(); ++i) {
    std::printf("%s\"%s\":%.17g", i == 0 ? "" : ",", values[i].first.c_str(), values[i].second);
  }
  std::printf("}");
}

bool Bench::Print() const {
  // Checks that cannot pass vacuously: a p99 needs 1000 samples to have ten
  // beyond it; smoke runs scale the floor with the fleet.
  std::vector<std::string> failures = failures_;
  const double floor = std::max(100.0, std::round(1000.0 * std::min(1.0, opts_.scale)));
  const Histogram& latency = Pooled("latency");
  if (static_cast<double>(latency.count()) < floor) {
    failures.push_back("only " + std::to_string(latency.count()) + " latency samples");
  }
  const uint64_t delivers = Pooled("hop.burst.deliver").count();
  if (opts_.trace && static_cast<double>(delivers) < floor) {
    failures.push_back("only " + std::to_string(delivers) + " burst.deliver spans kept");
  }

  std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"traced\":%d,\"threads\":%d,"
              "\"scale\":%.17g,\"game_days\":%zu",
              opts_.workload.c_str(), opts_.seed, opts_.trace ? 1 : 0, opts_.threads, opts_.scale,
              days_.size());
  PrintGroup("host", HostValues());
  PrintGroup("sim", SimValues());
  PrintGroup("layer", LayerValues());
  PrintGroup("trace", TraceValues());
  // Determinism witness: equal for equal seeds at any thread count.
  std::printf(",\"fingerprint\":\"events=%.17g delivered=%.17g lat_n=%" PRIu64
              " lat_sum=%.17g lat_p50=%.17g lat_p99=%.17g\",\"failures\":[",
              Total("sim.all_events"), Total("device.payloads_received"), latency.count(),
              latency.sum(), latency.Quantile(0.50), latency.Quantile(0.99));
  for (size_t i = 0; i < failures.size(); ++i) {
    std::string text = failures[i];
    std::replace(text.begin(), text.end(), '"', '\'');
    std::printf("%s\"%s\"", i == 0 ? "" : ",", text.c_str());
  }
  std::printf("]}\n");
  return failures.empty();
}

// ---- workloads ----

// A hot-video comment flood (lvc_flash, and lvc_flash_pop with POP
// placement): viewers and live-query viewers on one video, a commenter pool
// posting at a fixed rate, and a typing storm on the same cadence.
void RunFlash(Bench& b, bool placed) {
  const size_t viewers = b.Scaled(placed ? 500 : 1500);
  const size_t commenters = b.Scaled(placed ? 150 : 375);
  const size_t lq_viewers = placed ? 0 : b.Scaled(150);
  const int per_second = placed ? 40 : 50;
  const SimTime flood = placed ? Seconds(10) : Seconds(30);

  ClusterConfig config = b.BaseConfig();
  config.apps.typing.backend_check = false;  // typing deltas push synchronously
  config.livequery.enabled = lq_viewers > 0;
  if (placed) {
    config.apps.lvc.placement = BrassPlacement::kPopFilterConflate;
    config.burst.pop_placement_enabled = true;
  }
  SocialGraphConfig graph_config;
  graph_config.num_users = static_cast<int>(viewers + commenters + lq_viewers + 2);
  graph_config.num_videos = 8;
  graph_config.num_threads = 8;
  BenchCluster fixture = b.BuildFixture(config, graph_config);
  BladerunnerCluster& cluster = *fixture.cluster;
  Simulator& sim = fixture.sim();
  const ObjectId video = fixture.graph.videos[0];

  std::vector<std::unique_ptr<DeviceAgent>> viewer_fleet, commenter_fleet, lq_fleet;
  std::unique_ptr<DeviceAgent> watcher, typist;
  ObjectId thread = kInvalidObjectId;
  b.Span("host.fleet_build_s", [&] {
    size_t next = 0;
    viewer_fleet = MakeDeviceFleet(fixture, next, viewers,
                                   [&](DeviceAgent& d, size_t) { d.SubscribeLvc(video); });
    next += viewers;
    commenter_fleet = MakeDeviceFleet(fixture, next, commenters);
    next += commenters;
    const std::string feed =
        "subscription { liveCommentFeed(videoId: " + std::to_string(video) + ") }";
    lq_fleet = MakeDeviceFleet(fixture, next, lq_viewers,
                               [&](DeviceAgent& d, size_t) { d.SubscribeRaw("LiveFeed", feed); });
    next += lq_viewers;
    // The typing pair gets its own thread: the setTyping resolver checks
    // membership, and the generated threads belong to other users.
    const UserId watcher_user = fixture.graph.users[next];
    const UserId typist_user = fixture.graph.users[next + 1];
    thread = CreateThread(cluster.tao(), {watcher_user, typist_user});
    watcher = std::make_unique<DeviceAgent>(&cluster, watcher_user, 0, DeviceProfile::kWifi);
    typist = std::make_unique<DeviceAgent>(&cluster, typist_user, 0, DeviceProfile::kWifi);
  });

  b.BeginWindow(sim);
  b.Span("host.settle_s", [&] {
    sim.RunFor(Seconds(1));  // the typing thread replicates before the subscribe resolves
    watcher->SubscribeTyping(thread);
    sim.RunFor(Seconds(5));
  });
  b.Span("host.load_window_s", [&] {
    Rng workload_rng(b.seed() * 2654435761ull + 977);
    ScheduleCommentLoad(cluster, commenter_fleet, video, per_second, 0, flood, workload_rng,
                        "flash comment");
    const int toggles = static_cast<int>(flood / Seconds(1)) * per_second;
    const SimTime gap = Seconds(1) / per_second;
    DeviceAgent* t = typist.get();
    for (int i = 0; i < toggles; ++i) {
      const bool on = i % 2 == 0;
      t->ctx().Schedule(gap * i, [t, thread, on]() { t->SetTyping(thread, on); });
    }
    sim.RunFor(flood);
  });
  b.Span("host.drain_s", [&] { sim.RunFor(Seconds(20)); });
  b.EndWindow(sim);

  b.EndGameDay(cluster, viewers + commenters + lq_viewers + 2);
}

// Diurnal session churn over a mixed app set on the partitioned kernel.
// Activity rates run at kDiurnalLoad times the DailyScenario defaults, as the
// scenario matrix's diurnal phases do, so a two-minute window delivers
// enough updates to measure latency on.
constexpr double kDiurnalLoad = 3.0;

void RunDiurnal(Bench& b) {
  const size_t users = b.Scaled(1000);

  ClusterConfig config = b.BaseConfig();
  config.parallel.threads = b.opts().threads;
  config.parallel.device_lp_groups = 16;  // the LP layout fixes results; threads only wall time
  SocialGraphConfig graph_config;
  graph_config.num_users = static_cast<int>(users);
  graph_config.num_videos = static_cast<int>(std::max<size_t>(150, users / 100));
  graph_config.num_threads = static_cast<int>(std::max<size_t>(80, users / 50));
  BenchCluster fixture = b.BuildFixture(config, graph_config);
  Simulator& sim = fixture.sim();

  DailyScenarioConfig daily_config;
  daily_config.duration = Minutes(2);
  daily_config.streams_per_minute *= kDiurnalLoad;
  daily_config.typing_toggles_per_minute *= kDiurnalLoad;
  daily_config.comments_per_minute *= kDiurnalLoad;
  daily_config.messages_per_minute *= kDiurnalLoad;
  daily_config.stories_per_minute *= kDiurnalLoad;
  std::unique_ptr<DailyScenario> daily;
  b.Span("host.fleet_build_s", [&] {
    daily = std::make_unique<DailyScenario>(fixture.cluster.get(), &fixture.graph, daily_config);
  });

  b.BeginWindow(sim);
  b.Span("host.settle_s", [&] { sim.RunFor(Seconds(1)); });
  b.Span("host.load_window_s", [&] { daily->Run(); });
  b.Span("host.drain_s", [&] { sim.RunFor(Seconds(20)); });
  b.EndWindow(sim);

  b.EndGameDay(*fixture.cluster, users);
  daily.reset();  // cancels the scenario's timers before the cluster goes
}

// Ticker device ids live far above generated user ids (TaoStore allocates
// upward from 1e6), as in the scenario layer.
constexpr int64_t kTickerDeviceBase = 9000000000;

// How often each _seq reached one (device, channel) stream, indexed by seq:
// O(1) per payload. Turned into the scenario library's TickerSeqsSeen only
// for the audit, outside the measured window.
struct StreamSeqs {
  int64_t channel = 0;
  Topic topic;
  std::vector<uint32_t> count;
};

// A durable ticker fleet riding through a catastrophic POP failure.
void RunReconnectStorm(Bench& b) {
  const size_t devices = b.Scaled(2000);
  // Device d subscribes to channels d, d+7 and d+14 (mod channels); at least
  // ten channels keeps the three distinct at every scale.
  const int channels = static_cast<int>(std::max<size_t>(10, b.Scaled(20)));
  const int subs_per_device = 3;
  const int ticks = 24;
  const SimTime tick_gap = Millis(500);

  ClusterConfig config = b.BaseConfig();
  config.apps.ticker.durable = true;
  SocialGraphConfig graph_config;
  graph_config.num_users = 12;
  graph_config.num_videos = 8;
  graph_config.num_threads = 8;
  BenchCluster fixture = b.BuildFixture(config, graph_config);
  BladerunnerCluster& cluster = *fixture.cluster;
  Simulator& sim = fixture.sim();

  std::vector<std::vector<StreamSeqs>> seen(devices);
  int64_t strays = 0;
  std::vector<std::unique_ptr<DeviceAgent>> fleet;
  b.Span("host.fleet_build_s", [&] {
    fleet.reserve(devices);
    for (size_t d = 0; d < devices; ++d) {
      fleet.push_back(std::make_unique<DeviceAgent>(
          &cluster, kTickerDeviceBase + static_cast<int64_t>(d), 0, DeviceProfile::kWifi));
      for (int s = 0; s < subs_per_device; ++s) {
        const int64_t channel = 1 + (static_cast<int64_t>(d) + s * 7) % channels;
        fleet.back()->SubscribeTicker(channel);
        seen[d].push_back(StreamSeqs{channel, TickerTopic(channel), {}});
      }
      fleet.back()->set_payload_hook([streams = &seen[d], &strays](uint64_t, const Value& payload) {
        const Value& seq = payload.Get("_seq");
        if (!seq.is_int()) {
          return;
        }
        const std::string& topic = payload.Get("channel").AsString();
        for (StreamSeqs& stream : *streams) {
          if (stream.topic == topic) {
            const size_t at = static_cast<size_t>(seq.AsInt(0));
            if (at >= stream.count.size()) {
              stream.count.resize(at + 1, 0);
            }
            stream.count[at] += 1;
            return;
          }
        }
        strays += 1;
      });
    }
  });

  TickerPublishState published;
  b.BeginWindow(sim);
  b.Span("host.settle_s", [&] { sim.RunFor(Seconds(5)); });
  b.Span("host.load_window_s", [&] {
    ScheduleTickerTicks(cluster, channels, ticks, tick_gap, 0, &published);
    BladerunnerCluster* cl = &cluster;
    sim.Schedule(Seconds(4), [cl]() { cl->pop(0).FailPop(); });
    sim.RunFor(Seconds(16));
  });
  b.Span("host.drain_s", [&] { sim.RunFor(Seconds(30)); });
  b.EndWindow(sim);

  b.Span("host.audit_s", [&] {
    TickerSeqsSeen seqs;
    for (size_t d = 0; d < devices; ++d) {
      for (const StreamSeqs& stream : seen[d]) {
        std::multiset<uint64_t>& got = seqs[static_cast<int>(d)][stream.channel];
        for (size_t q = 0; q < stream.count.size(); ++q) {
          for (uint32_t n = 0; n < stream.count[q]; ++n) {
            got.insert(q);
          }
        }
      }
    }
    const DurableTickerAudit audit =
        AuditDurableTicker(cluster, channels, published.per_channel, seqs);
    b.Check(audit.lost == 0, std::to_string(audit.lost) + " durable ticks lost");
    b.Check(audit.duplicates == 0, std::to_string(audit.duplicates) + " durable duplicates");
    b.Check(audit.log_matches_publishes, "durable log head != publishes");
    b.Check(strays == 0, std::to_string(strays) + " ticks on unsubscribed channels");
  });

  b.EndGameDay(cluster, devices);
}

struct Workload {
  const char* name;
  // Host seconds one untraced game-day takes, set-up and audits included, on
  // the quiet reference VM. A run of T seconds simulates T / day_seconds
  // game-days (at least one).
  double day_seconds;
  std::function<void(Bench&)> run;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"lvc_flash", 1.35, [](Bench& b) { RunFlash(b, /*placed=*/false); }},
      {"lvc_flash_pop", 0.85, [](Bench& b) { RunFlash(b, /*placed=*/true); }},
      {"diurnal_fleet", 2.3, RunDiurnal},
      {"reconnect_storm", 1.75, RunReconnectStorm},
  };
  return kWorkloads;
}

[[noreturn]] void UsageError(const std::string& error) {
  std::fprintf(stderr,
               "perf_bench: %s\nusage: perf_bench --workload NAME --seed N --seconds T "
               "[--trace] [--threads N] [--scale X]\nworkloads:",
               error.c_str());
  for (const Workload& w : Workloads()) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--trace") {
      o.trace = true;
      continue;
    }
    if (i + 1 >= argc) {
      UsageError("missing value for " + flag);
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
      continue;
    }
    if (flag == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value, &end);
    } else if (flag == "--threads") {
      o.threads = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--scale") {
      o.scale = std::strtod(value, &end);
    } else {
      UsageError("unknown flag " + flag);
    }
    if (end == value || *end != '\0') {
      UsageError("bad value for " + flag);
    }
  }
  if (!(o.seconds > 0.0 && o.seconds <= 3600.0) || o.threads < 1 || !(o.scale > 0.0)) {
    UsageError("--seconds must be in (0, 3600]; --threads and --scale positive");
  }
  return o;
}

}  // namespace
}  // namespace bladerunner

int main(int argc, char** argv) {
  using namespace bladerunner;
  const Options options = ParseOptions(argc, argv);
  auto it = std::find_if(Workloads().begin(), Workloads().end(),
                         [&](const Workload& w) { return options.workload == w.name; });
  if (it == Workloads().end()) {
    UsageError("unknown --workload '" + options.workload + "'");
  }
  const uint64_t game_days =
      std::max<uint64_t>(1, static_cast<uint64_t>(options.seconds / it->day_seconds));
  Bench bench(options);
  for (uint64_t k = 0; k < game_days; ++k) {
    bench.BeginGameDay(options.seed * game_days + 1 + k);
    it->run(bench);
  }
  return bench.Print() ? 0 : 1;
}
