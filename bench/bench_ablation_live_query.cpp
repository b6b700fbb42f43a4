// Ablation (DESIGN.md §5.8): database-level live queries (src/livequery).
//
// The same deterministic comment-feed mutation replay (comments, edits,
// deletes, likes, unlikes — applied directly to TAO at fixed simulated
// times) runs against three serving strategies:
//
//   live     incremental view maintenance — deltas fold into materialized
//            views, re-executing only on window refills and unsupported
//            shapes
//   reexec   the same engine with reexecute_always: every delta re-runs
//            the registered query against TAO (the "no IVM" strawman)
//   poll     no live queries at all; devices poll the WAS on an interval
//            (the Table 1 baseline)
//
// Because the replay is fixed up front and a OneRegion write consumes no
// simulator randomness, the live and reexec clusters see byte-identical
// stores and change streams, so the bench can assert the incremental views
// are *bit-identical* to full re-execution (ViewStateJson comparison plus
// the engine's own in-run audit) while costing >=10x fewer TAO reads per
// mutation. `--smoke` runs a shortened replay with the same assertions
// (used by CI).

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/baseline/polling.h"
#include "src/core/cluster.h"
#include "src/core/device.h"
#include "src/workload/comment_feed.h"

using namespace bladerunner;

namespace {

struct Shape {
  int num_ops = 600;
  int num_viewers = 12;
  SimTime settle = Seconds(10);
};

struct Result {
  int64_t mutations = 0;  // replayed ops
  // Engine-side accounting (live / reexec modes).
  int64_t maintenance_reads = 0;  // TAO reads spent keeping views current
  int64_t deltas = 0;
  int64_t applied = 0;
  int64_t publishes = 0;
  int64_t suppressed = 0;
  int64_t reexecs = 0;
  int64_t refills = 0;
  bool audit_ok = false;
  std::string audit_diagnostic;
  std::vector<std::pair<Topic, std::string>> views;  // topic -> ViewStateJson
  // Poll-side accounting (poll mode).
  int64_t tao_reads = 0;  // point + range reads spent by the pollers
  int64_t polls = 0;
  int64_t empty_polls = 0;
};

ClusterConfig BaseConfig(uint64_t seed) {
  ClusterConfig config;
  config.seed = seed;
  config.brass_hosts_per_region = 1;
  return config;
}

SocialGraphConfig BaseGraph() {
  SocialGraphConfig graph_config;
  graph_config.num_users = 60;
  graph_config.num_videos = 2;
  return graph_config;
}

std::vector<CommentFeedOp> MakeOps(const BenchCluster& fixture, const Shape& shape) {
  CommentFeedShape feed;
  feed.num_ops = shape.num_ops;
  feed.delete_fraction = 0.08;
  feed.edit_fraction = 0.12;
  // Anchors: the graph's videos; likes target the first video as the
  // presence-counter post.
  Rng workload_rng(4242);
  std::vector<UserId> users(fixture.graph.users.begin(), fixture.graph.users.begin() + 40);
  return GenerateCommentFeedOps(feed, fixture.graph.videos, users, workload_rng);
}

// live / reexec: identical except for config.livequery.reexecute_always.
Result RunEngineMode(bool reexecute_always, const Shape& shape) {
  ClusterConfig config = BaseConfig(63);
  config.livequery.reexecute_always = reexecute_always;
  BenchCluster fixture = MakeLiveQueryBenchCluster(config, BaseGraph(), Topology::OneRegion());
  BladerunnerCluster& cluster = *fixture.cluster;
  LiveQueryEngine* engine = cluster.livequery();

  // Viewers split between the two declarative apps: comment feeds on both
  // videos, presence counters on the first.
  auto viewers = MakeDeviceFleet(
      fixture, 0, static_cast<size_t>(shape.num_viewers),
      [&fixture](DeviceAgent& viewer, size_t i) {
        ObjectId video = fixture.graph.videos[i % fixture.graph.videos.size()];
        viewer.SubscribeRaw("LiveFeed", "subscription { liveCommentFeed(videoId: " +
                                            std::to_string(video) + ") }");
        if (i % 3 == 0) {
          viewer.SubscribeRaw("LiveCount", "subscription { presenceCount(topicId: " +
                                              std::to_string(fixture.graph.videos[0]) + ") }");
        }
      });
  cluster.sim().RunFor(Seconds(5));  // registrations + snapshots settle

  // The replay measures maintenance work only: snapshot reads taken at
  // registration time above are excluded by sampling the counter here.
  MetricsRegistry& m = cluster.metrics();
  int64_t reads_before = m.GetCounter("livequery.maintenance_reads").value();

  std::vector<CommentFeedOp> ops = MakeOps(fixture, shape);
  CommentFeedApplier applier(&cluster.sim(), &cluster.tao());
  applier.ScheduleAll(ops, cluster.sim().Now());
  cluster.sim().RunFor(static_cast<SimTime>(shape.num_ops + 2) * CommentFeedShape{}.spacing);
  cluster.sim().RunFor(shape.settle);

  Result result;
  result.mutations = static_cast<int64_t>(ops.size());
  result.maintenance_reads = m.GetCounter("livequery.maintenance_reads").value() - reads_before;
  result.deltas = m.GetCounter("livequery.deltas").value();
  result.applied = m.GetCounter("livequery.applied").value();
  result.publishes = m.GetCounter("livequery.publishes").value();
  result.suppressed = m.GetCounter("livequery.suppressed").value();
  result.reexecs = m.GetCounter("livequery.reexecs").value();
  result.refills = m.GetCounter("livequery.refills").value();
  result.audit_ok = engine->AuditAll(&result.audit_diagnostic);
  for (const Topic& topic : engine->Topics()) {
    result.views.emplace_back(topic, engine->ViewStateJson(topic));
  }
  return result;
}

// poll: same replay, no live queries; viewers poll the comment range query.
Result RunPollMode(const Shape& shape) {
  BenchCluster fixture = MakeBenchCluster(BaseConfig(63), BaseGraph(), Topology::OneRegion());
  BladerunnerCluster& cluster = *fixture.cluster;

  std::vector<std::unique_ptr<LvcPollingClient>> pollers;
  for (int i = 0; i < shape.num_viewers; ++i) {
    ObjectId video = fixture.graph.videos[static_cast<size_t>(i) % fixture.graph.videos.size()];
    pollers.push_back(std::make_unique<LvcPollingClient>(
        &cluster, fixture.graph.users[static_cast<size_t>(i)], 0, DeviceProfile::kWifi, video,
        Seconds(2)));
    pollers.back()->Start();
  }
  cluster.sim().RunFor(Seconds(5));

  MetricsRegistry& m = cluster.metrics();
  int64_t reads_before =
      m.GetCounter("tao.point_reads").value() + m.GetCounter("tao.range_reads").value();

  std::vector<CommentFeedOp> ops = MakeOps(fixture, shape);
  CommentFeedApplier applier(&cluster.sim(), &cluster.tao());
  applier.ScheduleAll(ops, cluster.sim().Now());
  cluster.sim().RunFor(static_cast<SimTime>(shape.num_ops + 2) * CommentFeedShape{}.spacing);
  cluster.sim().RunFor(shape.settle);

  Result result;
  result.mutations = static_cast<int64_t>(ops.size());
  result.tao_reads = m.GetCounter("tao.point_reads").value() +
                     m.GetCounter("tao.range_reads").value() - reads_before;
  for (const auto& poller : pollers) {
    result.polls += static_cast<int64_t>(poller->polls());
    result.empty_polls += static_cast<int64_t>(poller->empty_polls());
    poller->Stop();
  }
  return result;
}

double PerMutation(int64_t reads, int64_t mutations) {
  return static_cast<double>(reads) / static_cast<double>(std::max<int64_t>(1, mutations));
}

int RunAndCompare(const Shape& shape) {
  Result live = RunEngineMode(/*reexecute_always=*/false, shape);
  Result reexec = RunEngineMode(/*reexecute_always=*/true, shape);
  Result poll = RunPollMode(shape);

  PrintSection(Fmt("the same %d-op replay, %d viewers", shape.num_ops, shape.num_viewers));
  PrintRow("%-36s %-12s %-12s %s", "", "live", "reexec", "poll");
  PrintRow("%-36s %-12lld %-12lld %lld", "TAO reads for query results",
           static_cast<long long>(live.maintenance_reads),
           static_cast<long long>(reexec.maintenance_reads),
           static_cast<long long>(poll.tao_reads));
  PrintRow("%-36s %-12.2f %-12.2f %.2f", "  per mutation",
           PerMutation(live.maintenance_reads, live.mutations),
           PerMutation(reexec.maintenance_reads, reexec.mutations),
           PerMutation(poll.tao_reads, poll.mutations));
  PrintRow("%-36s %-12lld %-12lld -", "deltas seen / applied",
           static_cast<long long>(live.deltas), static_cast<long long>(reexec.deltas));
  PrintRow("%-36s %-12lld %-12lld -", "ops published",
           static_cast<long long>(live.publishes), static_cast<long long>(reexec.publishes));
  PrintRow("%-36s %-12lld %-12lld -", "no-net-change deltas suppressed",
           static_cast<long long>(live.suppressed), static_cast<long long>(reexec.suppressed));
  PrintRow("%-36s %-12lld %-12lld -", "full re-executions",
           static_cast<long long>(live.reexecs + live.refills),
           static_cast<long long>(reexec.reexecs));
  PrintRow("%-36s %-12s %-12s -", "in-run audit vs TAO",
           live.audit_ok ? "pass" : "FAIL", reexec.audit_ok ? "pass" : "FAIL");
  PrintRow("%-36s -            -            %lld / %lld empty", "polls issued",
           static_cast<long long>(poll.polls), static_cast<long long>(poll.empty_polls));

  bool views_identical = live.views == reexec.views;
  double reduction =
      PerMutation(reexec.maintenance_reads, reexec.mutations) /
      std::max(1e-9, PerMutation(live.maintenance_reads, live.mutations));

  PrintSection("paper vs measured");
  Recap("query work per mutation", "IVM folds deltas instead of re-running queries",
        Fmt("%.1fx fewer TAO reads than re-execute", reduction));
  Recap("incremental == full re-execution", "views must not drift",
        views_identical ? "bit-identical ViewStateJson across modes" : "VIEWS DIVERGED");
  Recap("vs polling", "polls mostly return nothing (Table 1)",
        Fmt("%.2f reads/mutation polling vs %.2f live", PerMutation(poll.tao_reads, poll.mutations),
            PerMutation(live.maintenance_reads, live.mutations)));

  int failures = 0;
  if (!live.audit_ok) {
    PrintRow("FAIL: live-mode audit: %s", live.audit_diagnostic.c_str());
    ++failures;
  }
  if (!reexec.audit_ok) {
    PrintRow("FAIL: reexec-mode audit: %s", reexec.audit_diagnostic.c_str());
    ++failures;
  }
  if (!views_identical) {
    PrintRow("FAIL: incremental views differ from full re-execution");
    for (size_t i = 0; i < live.views.size() && i < reexec.views.size(); ++i) {
      if (live.views[i] != reexec.views[i]) {
        PrintRow("  %s:\n    live:   %s\n    reexec: %s", live.views[i].first.c_str(),
                 live.views[i].second.c_str(), reexec.views[i].second.c_str());
      }
    }
    ++failures;
  }
  if (live.views.empty()) {
    PrintRow("FAIL: no views registered");
    ++failures;
  }
  if (live.deltas == 0 || live.publishes == 0) {
    PrintRow("FAIL: no deltas flowed (deltas=%lld publishes=%lld)",
             static_cast<long long>(live.deltas), static_cast<long long>(live.publishes));
    ++failures;
  }
  if (reduction < 10.0) {
    PrintRow("FAIL: read reduction %.1fx is below 10x", reduction);
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = ParseBenchOptions(argc, argv).smoke;
  Shape shape;
  if (smoke) {
    PrintHeader("Ablation 6 (smoke)", "live queries vs re-execute vs poll, short replay");
    shape.num_ops = 150;
    shape.num_viewers = 8;
    shape.settle = Seconds(5);
  } else {
    PrintHeader("Ablation 6", "database-level live queries vs re-execute vs poll");
  }
  return RunAndCompare(shape);
}
