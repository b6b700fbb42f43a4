// Ablation (docs/OVERLOAD.md): end-to-end overload control under a
// hot-topic spike.
//
// One BRASS host serves a handful of LVC viewers of a single live video in
// firehose mode (every comment reaches every stream), plus a typing-
// indicator watcher whose thread has a hot typist. The workload runs four
// phases: a baseline commenting rate, a 10x comment spike (with rapid
// typing toggles riding along), a quiet settle window, and a post-spike
// baseline. Reported: per-stream delivery-queue depth against its bound,
// shed / conflated / degraded fractions, the device-side degrade-to-poll
// fallback activity, and pre- vs post-spike end-to-end delivery latency —
// the recovery claim is that the spike leaves no residue.
//
// `--smoke` runs shortened phases and exits nonzero if the queue bound was
// violated, nothing was shed or conflated, no stream degraded and
// recovered, the fallback poller never fetched a comment, or the
// post-spike p99 exceeds 2x the pre-spike p99 (used by CI).

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/cluster.h"
#include "src/core/device.h"
#include "src/workload/scenario_lib.h"
#include "src/workload/social_gen.h"

using namespace bladerunner;

namespace {

struct SpikeShape {
  int num_viewers = 6;
  int baseline_comments_per_sec = 1;
  int spike_comments_per_sec = 10;  // 10x the baseline
  SimTime pre_phase = Seconds(30);
  SimTime spike_phase = Seconds(30);
  SimTime settle = Seconds(12);
  SimTime post_phase = Seconds(30);
};

struct Result {
  double queue_depth_max = 0.0;
  uint64_t queue_depth_samples = 0;
  int64_t deliveries = 0;
  int64_t conflated = 0;
  int64_t shed = 0;
  int64_t degraded_drops = 0;
  int64_t degrade_signals = 0;
  int64_t recover_signals = 0;
  size_t streams = 0;
  uint64_t device_degrades = 0;
  uint64_t device_resumes = 0;
  uint64_t fallback_polls = 0;
  uint64_t fallback_comments = 0;
  size_t pollers_left = 0;
  Histogram pre_latency;   // end-to-end comment delivery latency, us
  Histogram post_latency;
  size_t queue_bound = 0;
};

enum class Phase { kIdle, kPre, kPost };

Result RunSpike(const SpikeShape& shape, uint64_t seed) {
  ClusterConfig config;
  config.seed = seed;
  config.brass_hosts_per_region = 1;
  config.apps.lvc.placement = BrassPlacement::kDeviceFirehose;  // every comment pushes
  config.apps.typing.backend_check = false;  // typing deltas push synchronously
  config.brass.overload.min_push_gap = Millis(500);
  config.brass.overload.max_pending_per_stream = 4;
  config.brass.overload.degrade_min_sheds = 4;
  config.brass.overload.degrade_shed_fraction = 0.25;
  config.brass.overload.shed_window = Seconds(2);
  config.brass.overload.recover_check_interval = Seconds(2);
  SocialGraphConfig graph_config;
  graph_config.num_users = 60;
  graph_config.num_videos = 1;
  graph_config.num_threads = 4;
  BenchCluster fixture = MakeBenchCluster(config, graph_config, Topology::OneRegion());
  BladerunnerCluster& cluster = *fixture.cluster;
  ObjectId video = fixture.graph.videos[0];
  Rng workload_rng(977);

  Result result;
  result.queue_bound = config.brass.overload.max_pending_per_stream;

  // Device ids share the user-id space (DeviceIdFor), so the typing pair is
  // picked first and those users are kept off the viewer/commenter rosters —
  // two agents for one user would collide on StreamKey{device, sid}.
  ObjectId thread = fixture.graph.threads[0];
  const auto& members = fixture.graph.thread_members[thread];
  const UserId watcher_user = members[0];
  const UserId typist_user = members[1];
  auto taken = [&](size_t index) {
    UserId u = fixture.graph.users[index];
    return u == watcher_user || u == typist_user;
  };

  // Viewers of the one live video; their payload hooks feed the per-phase
  // latency histograms (the cluster-wide histogram mixes all phases).
  Phase phase = Phase::kIdle;
  std::vector<std::unique_ptr<DeviceAgent>> viewers;
  size_t next_viewer = 0;
  for (int i = 0; i < shape.num_viewers; ++i) {
    while (taken(next_viewer)) {
      ++next_viewer;
    }
    auto viewer = std::make_unique<DeviceAgent>(
        &cluster, fixture.graph.users[next_viewer++], 0, DeviceProfile::kWifi);
    viewer->set_fallback_poll_interval(Seconds(1));
    viewer->set_payload_hook([&result, &phase, &cluster](uint64_t, const Value& payload) {
      if (payload.Get("_app").AsString() != "LVC") {
        return;
      }
      SimTime created = payload.Get("_createdAt").AsInt(0);
      if (created <= 0) {
        return;
      }
      double latency = static_cast<double>(cluster.sim().Now() - created);
      if (phase == Phase::kPre) {
        result.pre_latency.Record(latency);
      } else if (phase == Phase::kPost) {
        result.post_latency.Record(latency);
      }
    });
    viewer->SubscribeLvc(video);
    viewers.push_back(std::move(viewer));
  }

  // The typing-indicator side channel: a watcher of a thread whose other
  // member types furiously during the spike (conflation workload).
  auto watcher = std::make_unique<DeviceAgent>(&cluster, watcher_user, 0, DeviceProfile::kWifi);
  auto typist = std::make_unique<DeviceAgent>(&cluster, typist_user, 0, DeviceProfile::kWifi);
  watcher->SubscribeTyping(thread);

  std::vector<std::unique_ptr<DeviceAgent>> commenters;
  for (size_t i = 20; commenters.size() < 30; ++i) {
    if (taken(i)) {
      continue;
    }
    commenters.push_back(std::make_unique<DeviceAgent>(
        &cluster, fixture.graph.users[i], 0, DeviceProfile::kWifi));
  }
  cluster.sim().RunFor(Seconds(5));  // subscriptions settle

  // Phase 1: baseline load, pre-spike latency (shared flash-crowd driver,
  // src/workload/scenario_lib.h).
  phase = Phase::kPre;
  DriveCommentLoad(cluster, commenters, video, shape.baseline_comments_per_sec, shape.pre_phase,
                   workload_rng, "comment");
  cluster.sim().RunFor(Seconds(8));  // drain in-flight pre-phase deliveries
  phase = Phase::kIdle;

  // Phase 2: the 10x spike, with typing toggles riding along on the
  // driver's per-comment hook (same call order as the old inline loop:
  // post, toggle, pacing wait).
  DriveCommentLoad(cluster, commenters, video, shape.spike_comments_per_sec, shape.spike_phase,
                   workload_rng, "spike comment", [&](int i) {
                     typist->SetTyping(thread, (i % shape.spike_comments_per_sec) % 2 == 0);
                   });

  // Phase 3: quiet settle — offered load subsides, streams resume.
  cluster.sim().RunFor(shape.settle);

  // Phase 4: baseline load again, post-spike latency.
  phase = Phase::kPost;
  DriveCommentLoad(cluster, commenters, video, shape.baseline_comments_per_sec, shape.post_phase,
                   workload_rng, "comment");
  cluster.sim().RunFor(Seconds(8));
  phase = Phase::kIdle;

  MetricsRegistry& m = cluster.metrics();
  const Histogram& depth = m.GetHistogram("brass.delivery_queue_depth");
  result.queue_depth_max = depth.max();
  result.queue_depth_samples = depth.count();
  result.deliveries = m.GetCounter("brass.deliveries").value();
  result.conflated = m.GetCounter("brass.conflated").value();
  result.shed = m.GetCounter("brass.shed").value();
  result.degraded_drops = m.GetCounter("brass.degraded_drops").value();
  result.degrade_signals = m.GetCounter("brass.degrade_signals").value();
  result.recover_signals = m.GetCounter("brass.recover_signals").value();
  result.streams = static_cast<size_t>(shape.num_viewers);
  for (const auto& viewer : viewers) {
    result.device_degrades += viewer->degrade_to_poll_signals();
    result.device_resumes += viewer->resume_stream_signals();
    result.fallback_polls += viewer->fallback_polls();
    result.fallback_comments += viewer->fallback_comments();
    result.pollers_left += viewer->active_fallback_pollers();
  }
  return result;
}

int Report(const Result& r, bool enforce) {
  const int64_t attempts = r.deliveries + r.conflated + r.shed + r.degraded_drops;
  PrintSection("overload response at the BRASS host");
  PrintRow("%-40s %.0f (bound %zu, %llu samples)", "delivery queue depth max",
           r.queue_depth_max, r.queue_bound,
           static_cast<unsigned long long>(r.queue_depth_samples));
  PrintRow("%-40s %lld", "delivery attempts", static_cast<long long>(attempts));
  PrintRow("%-40s %-8lld (%.1f%% of attempts)", "delivered",
           static_cast<long long>(r.deliveries),
           100.0 * static_cast<double>(r.deliveries) / std::max<int64_t>(1, attempts));
  PrintRow("%-40s %-8lld (%.1f%% of attempts)", "conflated (newest version wins)",
           static_cast<long long>(r.conflated),
           100.0 * static_cast<double>(r.conflated) / std::max<int64_t>(1, attempts));
  PrintRow("%-40s %-8lld (%.1f%% of attempts)", "shed from full queues",
           static_cast<long long>(r.shed),
           100.0 * static_cast<double>(r.shed) / std::max<int64_t>(1, attempts));
  PrintRow("%-40s %-8lld (%.1f%% of attempts)", "dropped while degraded",
           static_cast<long long>(r.degraded_drops),
           100.0 * static_cast<double>(r.degraded_drops) / std::max<int64_t>(1, attempts));
  PrintRow("%-40s %lld of %zu streams (%lld resumed)", "degraded to poll",
           static_cast<long long>(r.degrade_signals), r.streams,
           static_cast<long long>(r.recover_signals));

  PrintSection("device-side fallback");
  PrintRow("%-40s %llu signals, %llu resumes", "degrade-to-poll / resume-stream",
           static_cast<unsigned long long>(r.device_degrades),
           static_cast<unsigned long long>(r.device_resumes));
  PrintRow("%-40s %llu polls, %llu comments", "polling-baseline fallback",
           static_cast<unsigned long long>(r.fallback_polls),
           static_cast<unsigned long long>(r.fallback_comments));
  PrintRow("%-40s %zu", "pollers still active at end", r.pollers_left);

  const double pre_p99 = r.pre_latency.Quantile(0.99);
  const double post_p99 = r.post_latency.Quantile(0.99);
  PrintSection("pre- vs post-spike delivery latency (baseline load)");
  PrintCdfSeconds("pre-spike e2e", r.pre_latency);
  PrintCdfSeconds("post-spike e2e", r.post_latency);

  PrintSection("paper vs measured");
  Recap("queue depth under the spike", "bounded per stream",
        Fmt("max %.0f vs bound %zu", r.queue_depth_max, r.queue_bound));
  Recap("conflation under heat", "hot objects coalesce newest-version-wins",
        Fmt("%lld conflated, %lld shed", static_cast<long long>(r.conflated),
            static_cast<long long>(r.shed)));
  Recap("overloaded streams degrade to polling", "devices fall back, then return",
        Fmt("%llu degraded, %llu resumed, %llu poll comments",
            static_cast<unsigned long long>(r.device_degrades),
            static_cast<unsigned long long>(r.device_resumes),
            static_cast<unsigned long long>(r.fallback_comments)));
  Recap("post-spike latency recovery", "spike leaves no residue",
        Fmt("p99 %.2fs pre vs %.2fs post", pre_p99 / 1e6, post_p99 / 1e6));

  if (!enforce) {
    return 0;
  }
  int failures = 0;
  if (r.queue_depth_max > static_cast<double>(r.queue_bound)) {
    PrintRow("FAIL: queue depth %.0f exceeded the bound %zu", r.queue_depth_max, r.queue_bound);
    ++failures;
  }
  if (r.shed <= 0) {
    PrintRow("FAIL: the spike shed nothing");
    ++failures;
  }
  if (r.conflated <= 0) {
    PrintRow("FAIL: nothing conflated");
    ++failures;
  }
  if (r.degrade_signals < 1 || r.device_degrades < 1) {
    PrintRow("FAIL: no stream degraded to poll");
    ++failures;
  }
  if (r.recover_signals < 1 || r.device_resumes < 1 || r.pollers_left != 0) {
    PrintRow("FAIL: degraded streams did not resume");
    ++failures;
  }
  if (r.fallback_polls == 0 || r.fallback_comments == 0) {
    PrintRow("FAIL: the polling fallback fetched nothing");
    ++failures;
  }
  if (r.post_latency.count() == 0 ||
      post_p99 > 2.0 * pre_p99) {
    PrintRow("FAIL: post-spike p99 %.2fs vs pre-spike %.2fs (limit 2x)", post_p99 / 1e6,
             pre_p99 / 1e6);
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = ParseBenchOptions(argc, argv).smoke;

  SpikeShape shape;
  if (smoke) {
    PrintHeader("Ablation 6 (smoke)", "overload control under a shortened hot-topic spike");
    shape.pre_phase = Seconds(20);
    shape.spike_phase = Seconds(15);
    shape.settle = Seconds(10);
    shape.post_phase = Seconds(20);
  } else {
    PrintHeader("Ablation 6",
                "pacing, conflation, and degrade-to-poll under a 10x hot-topic spike");
  }
  PrintRow("phases: %ds baseline -> %ds spike at %dx -> %ds settle -> %ds baseline",
           static_cast<int>(shape.pre_phase / Seconds(1)),
           static_cast<int>(shape.spike_phase / Seconds(1)),
           shape.spike_comments_per_sec / shape.baseline_comments_per_sec,
           static_cast<int>(shape.settle / Seconds(1)),
           static_cast<int>(shape.post_phase / Seconds(1)));

  Result result = RunSpike(shape, 51);
  return Report(result, /*enforce=*/true);
}
