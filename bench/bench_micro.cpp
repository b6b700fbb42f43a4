// Component microbenchmarks (google-benchmark): the hot paths of the
// simulated infrastructure itself — rendezvous hashing, topic ops, BURST
// framing, the LVC ranked buffer, histograms, the event queue, and the
// query-language front end.
//
// Invoked with `--perf` the binary is instead the standing perf-regression
// harness (docs/PERF.md): it times the simulation kernel, Pylon fanout,
// and an end-to-end LVC scenario against wall clock and emits one JSON
// row per measurement ({bench, metric, value, unit}).
//   --perf            run the harness at full size
//   --smoke           shrink the workloads (CI sanity; seconds, not minutes)
//   --out FILE        write the JSON rows to FILE (default: stdout only)
//   --check FILE      gate against a committed baseline (BENCH_PR7.json;
//                     implies --perf): exit nonzero if any row is missing
//                     from it or regressed by more than --tolerance
//                     (default 0.25)

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/baseline_gate.h"
#include "bench/bench_util.h"
#include "src/burst/durable_log.h"
#include "src/burst/frames.h"
#include "src/core/cluster.h"
#include "src/core/device.h"
#include "src/graphql/parser.h"
#include "src/graphql/value.h"
#include "src/pylon/rendezvous.h"
#include "src/pylon/topic.h"
#include "src/sim/histogram.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/livequery/engine.h"
#include "src/was/resolvers.h"
#include "src/workload/comment_feed.h"
#include "src/workload/social_gen.h"

namespace bladerunner {
namespace {

void BM_TopicHash(benchmark::State& state) {
  Topic topic = LvcTopic(1234567);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TopicHash(topic));
  }
}
BENCHMARK(BM_TopicHash);

void BM_TopicSplit(benchmark::State& state) {
  Topic topic = "/TI/123456/7890";
  for (auto _ : state) {
    benchmark::DoNotOptimize(SplitTopic(topic));
  }
}
BENCHMARK(BM_TopicSplit);

void BM_RendezvousTopK(benchmark::State& state) {
  std::vector<uint64_t> nodes;
  for (uint64_t i = 1; i <= static_cast<uint64_t>(state.range(0)); ++i) {
    nodes.push_back(i);
  }
  int64_t topic_id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RendezvousTopK(LvcTopic(topic_id++), nodes, 3));
  }
}
BENCHMARK(BM_RendezvousTopK)->Arg(8)->Arg(64)->Arg(512);

void BM_ZipfSample(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Zipf(1000000, 1.1));
  }
}
BENCHMARK(BM_ZipfSample);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  Rng rng(2);
  for (auto _ : state) {
    h.Record(rng.LogNormal(5000.0, 0.8));
  }
}
BENCHMARK(BM_HistogramRecord);

void BM_HistogramQuantile(benchmark::State& state) {
  Histogram h;
  Rng rng(3);
  for (int i = 0; i < 100000; ++i) {
    h.Record(rng.LogNormal(5000.0, 0.8));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.Quantile(0.99));
  }
}
BENCHMARK(BM_HistogramQuantile);

void BM_SimulatorScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim(1);
    for (int i = 0; i < 1000; ++i) {
      sim.Schedule(Micros(i * 7 % 997), []() {});
    }
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorScheduleRun);

void BM_GraphqlParseQuery(benchmark::State& state) {
  std::string text =
      "query { comments(video: 123456, after: 98765, first: 25) "
      "{ id text author time indexTime suppressed } }";
  for (auto _ : state) {
    benchmark::DoNotOptimize(Parse(text));
  }
}
BENCHMARK(BM_GraphqlParseQuery);

void BM_ValueToJson(benchmark::State& state) {
  Value v;
  v.Set("id", 123456789);
  v.Set("text", "a typical comment body with some length to it");
  v.Set("author", 424242);
  v.Set("quality", 0.87);
  ValueList tags;
  for (int i = 0; i < 5; ++i) {
    tags.push_back(Value("tag" + std::to_string(i)));
  }
  v.Set("tags", Value(std::move(tags)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.ToJson());
  }
}
BENCHMARK(BM_ValueToJson);

void BM_BurstFrameWireSize(benchmark::State& state) {
  ResponseFrame frame;
  frame.key = StreamKey{42, 7};
  for (int i = 0; i < 4; ++i) {
    Value payload;
    payload.Set("id", 1000 + i);
    payload.Set("text", "delta payload body");
    frame.batch.push_back(Delta::Data(std::move(payload), static_cast<uint64_t>(i)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(frame.WireSize());
  }
}
BENCHMARK(BM_BurstFrameWireSize);

void BM_StreamKeyHash(benchmark::State& state) {
  StreamKeyHash hasher;
  StreamKey key{123456789, 42};
  for (auto _ : state) {
    benchmark::DoNotOptimize(hasher(key));
    key.sid += 1;
  }
}
BENCHMARK(BM_StreamKeyHash);

// ---- perf harness (--perf / --smoke) ----

struct PerfShape {
  // Kernel: total timer events pushed through a bare Simulator.
  size_t kernel_events = 4000000;
  // One cancel per this many scheduled events (exercises the slot table).
  size_t kernel_cancel_every = 4;
  // Fanout: viewers subscribed to the hot video / comments published.
  int fanout_viewers = 60;
  int fanout_comments = 400;
  // End-to-end: LVC burst length driven through the full cluster.
  int e2e_viewers = 40;
  int e2e_comments = 600;
  // Live query: mutation ops folded into materialized views.
  int livequery_ops = 40000;
  int livequery_views = 8;
  // Durable log: entries appended (rotation/retention churn included)
  // before a full replay of the retained suffix.
  size_t durable_appends = 400000;
};

PerfShape SmokeShape() {
  PerfShape shape;
  shape.kernel_events = 400000;
  shape.fanout_viewers = 15;
  shape.fanout_comments = 60;
  shape.e2e_viewers = 10;
  shape.e2e_comments = 80;
  shape.livequery_ops = 4000;
  shape.durable_appends = 40000;
  return shape;
}

double WallSeconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Kernel events/sec: schedule/cancel/run batches through a bare Simulator
// with no cluster on top, so the number isolates the event-queue rewrite
// (4-ary heap + slot table) from everything else.
PerfRow BenchKernel(const PerfShape& shape) {
  Simulator sim(1);
  Rng workload_rng(4242);
  uint64_t executed_target = 0;
  auto start = std::chrono::steady_clock::now();
  constexpr size_t kBatch = 1000;
  std::vector<TimerId> batch_ids(kBatch, kInvalidTimerId);
  for (size_t scheduled = 0; scheduled < shape.kernel_events; scheduled += kBatch) {
    for (size_t i = 0; i < kBatch; ++i) {
      SimTime delay = Micros(static_cast<int64_t>(workload_rng.Uniform(0.0, 5000.0)));
      batch_ids[i] = sim.Schedule(delay, []() {});
    }
    for (size_t i = 0; i < kBatch; i += shape.kernel_cancel_every) {
      sim.Cancel(batch_ids[i]);
    }
    sim.Run();
  }
  executed_target = sim.events_executed();
  double elapsed = WallSeconds(start);
  PerfRow row;
  row.bench = "kernel";
  row.metric = "events_per_sec";
  row.value = static_cast<double>(executed_target) / elapsed;
  row.unit = "events/s";
  return row;
}

// Pylon fanout throughput: a hot LVC video with many subscribed viewers;
// every published comment fans out to every viewer's BRASS host. Reports
// fanout sends per wall second across publish + fanout + delivery.
PerfRow BenchPylonFanout(const PerfShape& shape) {
  ClusterConfig config;
  config.seed = 1337;
  SocialGraphConfig graph_config;
  graph_config.num_users = static_cast<size_t>(shape.fanout_viewers + 50);
  BenchCluster fixture = MakeBenchCluster(config, graph_config, Topology::OneRegion());
  BladerunnerCluster& cluster = *fixture.cluster;
  ObjectId video = fixture.graph.videos[0];

  std::vector<std::unique_ptr<DeviceAgent>> viewers;
  for (int i = 0; i < shape.fanout_viewers; ++i) {
    viewers.push_back(std::make_unique<DeviceAgent>(
        &cluster, fixture.graph.users[static_cast<size_t>(i)], 0, DeviceProfile::kWifi));
    viewers.back()->SubscribeLvc(video);
  }
  cluster.sim().RunFor(Seconds(5));
  DeviceAgent commenter(&cluster, fixture.graph.users[fixture.graph.users.size() - 1], 0,
                        DeviceProfile::kWifi);

  const Counter& fanout_sends = cluster.metrics().GetCounter("pylon.fanout_sends");
  int64_t sends_before = fanout_sends.value();
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < shape.fanout_comments; ++i) {
    commenter.PostComment(video, "perf comment", "en");
    cluster.sim().RunFor(Millis(250));
  }
  cluster.sim().RunFor(Seconds(10));
  double elapsed = WallSeconds(start);

  PerfRow row;
  row.bench = "pylon_fanout";
  row.metric = "fanout_sends_per_sec";
  row.value = static_cast<double>(fanout_sends.value() - sends_before) / elapsed;
  row.unit = "sends/s";
  return row;
}

// End-to-end throughput: the same LVC burst driven through the full stack
// (device -> WAS -> TAO -> Pylon -> BRASS -> BURST -> device), reported as
// simulator events retired per wall second — the number that bounds how
// much scenario any bench can afford.
PerfRow BenchEndToEnd(const PerfShape& shape) {
  ClusterConfig config;
  config.seed = 2024;
  SocialGraphConfig graph_config;
  graph_config.num_users = static_cast<size_t>(shape.e2e_viewers + 50);
  BenchCluster fixture = MakeBenchCluster(config, graph_config, Topology::ThreeRegions());
  BladerunnerCluster& cluster = *fixture.cluster;
  ObjectId video = fixture.graph.videos[0];

  std::vector<std::unique_ptr<DeviceAgent>> viewers;
  for (int i = 0; i < shape.e2e_viewers; ++i) {
    viewers.push_back(std::make_unique<DeviceAgent>(
        &cluster, fixture.graph.users[static_cast<size_t>(i)], i % 3, DeviceProfile::kWifi));
    viewers.back()->SubscribeLvc(video);
  }
  cluster.sim().RunFor(Seconds(5));
  DeviceAgent commenter(&cluster, fixture.graph.users[fixture.graph.users.size() - 1], 0,
                        DeviceProfile::kWifi);

  uint64_t events_before = cluster.sim().events_executed();
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < shape.e2e_comments; ++i) {
    commenter.PostComment(video, "perf comment", "en");
    cluster.sim().RunFor(Millis(200));
  }
  cluster.sim().RunFor(Seconds(10));
  double elapsed = WallSeconds(start);

  PerfRow row;
  row.bench = "e2e_lvc";
  row.metric = "sim_events_per_wall_sec";
  row.value = static_cast<double>(cluster.sim().events_executed() - events_before) / elapsed;
  row.unit = "events/s";
  return row;
}

// Live-query fold throughput: a bare Simulator + TAO + WAS + engine (no
// Pylon, so publishes are no-ops and the number isolates delta folding;
// tracing off), replaying a deterministic comment-feed workload against a
// handful of registered views. Reports deltas applied per wall second.
PerfRow BenchLiveQueryFold(const PerfShape& shape) {
  Topology topology = Topology::OneRegion();
  Simulator sim(7);
  MetricsRegistry metrics;
  TraceCollector trace(TraceConfig{.enabled = false});
  TaoStore tao(&sim, &topology, TaoConfig{}, &metrics);
  WebAppServer was(&sim, 0, &tao, nullptr, WasConfig{}, &metrics, &trace);
  InstallSocialSchema(was);
  LiveQueryConfig lq_config;
  lq_config.enabled = true;
  LiveQueryEngine engine(&sim, &tao, &was, lq_config, &metrics, &trace);

  std::vector<UserId> users;
  for (int i = 0; i < 20; ++i) {
    users.push_back(CreateUser(tao, "perf_user" + std::to_string(i), "en"));
  }
  std::vector<ObjectId> videos;
  for (int i = 0; i < shape.livequery_views / 2; ++i) {
    videos.push_back(CreateVideo(tao, users[0], "perf video " + std::to_string(i)));
  }
  sim.RunFor(Seconds(1));
  for (ObjectId video : videos) {
    LiveQueryRegistration feed;
    feed.topic = LiveFeedTopic(video);
    feed.viewer = users[0];
    feed.query = "{ comments(video: " + std::to_string(video) + ", first: 25) { id text } }";
    engine.Register(feed);
    LiveQueryRegistration count;
    count.topic = LiveCountTopic(video);
    count.viewer = users[0];
    count.query = "{ likeCount(post: " + std::to_string(video) + ") }";
    engine.Register(count);
  }

  CommentFeedShape feed_shape;
  feed_shape.num_ops = shape.livequery_ops;
  feed_shape.spacing = Micros(50);
  Rng workload_rng(4242);
  std::vector<CommentFeedOp> ops = GenerateCommentFeedOps(feed_shape, videos, users, workload_rng);
  CommentFeedApplier applier(&sim, &tao);

  const Counter& applied = metrics.GetCounter("livequery.applied");
  int64_t applied_before = applied.value();
  auto start = std::chrono::steady_clock::now();
  applier.ScheduleAll(ops, sim.Now());
  sim.Run();
  double elapsed = WallSeconds(start);

  PerfRow row;
  row.bench = "livequery_fold";
  row.metric = "folds_per_sec";
  row.value = static_cast<double>(applied.value() - applied_before) / elapsed;
  row.unit = "folds/s";
  return row;
}

// Durable-log throughput: appends through rotation + retention churn on a
// bare DurableTopicLog, then a full batched replay of the retained suffix.
// Reports log ops (appends + entries read) per wall second.
PerfRow BenchDurableLog(const PerfShape& shape) {
  DurableTopicLog log{DurableLogConfig{}};
  Value payload;
  payload.Set("__type", "Tick");
  payload.Set("channel", "/Ticker/1");
  payload.Set("tick", static_cast<int64_t>(0));
  auto start = std::chrono::steady_clock::now();
  for (size_t i = 1; i <= shape.durable_appends; ++i) {
    log.Append(i, payload, Micros(static_cast<int64_t>(i)));
  }
  uint64_t entries_read = 0;
  uint64_t cursor = log.oldest_retained_seq() - 1;
  while (cursor < log.last_seq()) {
    ReadResult r = log.ReadAfter(cursor, 64);
    if (r.entries.empty()) {
      break;
    }
    entries_read += r.entries.size();
    cursor = r.entries.back()->seq;
  }
  double elapsed = WallSeconds(start);
  PerfRow row;
  row.bench = "durable_log";
  row.metric = "log_ops_per_sec";
  row.value = static_cast<double>(shape.durable_appends + entries_read) / elapsed;
  row.unit = "ops/s";
  return row;
}

// Every row is a throughput, so the baseline gate checks each as
// higher-is-better.
int RunPerfHarness(const BenchOptions& opts) {
  PerfShape shape = opts.smoke ? SmokeShape() : PerfShape{};
  std::vector<PerfRow> rows;
  rows.push_back(BenchKernel(shape));
  rows.push_back(BenchPylonFanout(shape));
  rows.push_back(BenchEndToEnd(shape));
  rows.push_back(BenchLiveQueryFold(shape));
  rows.push_back(BenchDurableLog(shape));

  int status = ReportPerfRows(rows, opts.out_path, opts.check_path, opts.tolerance);
  for (const PerfRow& row : rows) {
    if (!(row.value > 0.0)) {
      std::fprintf(stderr, "perf: %s/%s produced a non-positive value\n", row.bench.c_str(),
                   row.metric.c_str());
      status = 1;
    }
  }
  return status;
}

}  // namespace
}  // namespace bladerunner

int main(int argc, char** argv) {
  bladerunner::BenchOptions opts =
      bladerunner::ParseBenchOptions(argc, argv, bladerunner::BaselineCheck::kGated);
  if (opts.perf) {
    return bladerunner::RunPerfHarness(opts);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
