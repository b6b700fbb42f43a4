// Tests for the src/trace subsystem: span tree structure across RPC hops,
// error-closure of failed stream spans, critical-path telescoping,
// determinism of exports, and head-based sampling stability.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/device.h"
#include "src/trace/analysis.h"
#include "src/trace/collector.h"
#include "src/trace/export.h"
#include "src/was/resolvers.h"
#include "src/workload/social_gen.h"

namespace bladerunner {
namespace {

// A small end-to-end LVC scenario: viewers stream comments on one video
// while posters mutate through the WAS. Returns the cluster (and the
// devices that must outlive the run) for trace inspection.
struct ScenarioRun {
  std::unique_ptr<BladerunnerCluster> cluster;
  std::vector<std::unique_ptr<DeviceAgent>> devices;
};

ScenarioRun RunLvcScenario(uint64_t seed, double sample_rate = 1.0, bool tracing = true) {
  ScenarioRun run;
  ClusterConfig config;
  config.seed = seed;
  config.trace.sample_rate = sample_rate;
  config.trace.enabled = tracing;
  run.cluster = std::make_unique<BladerunnerCluster>(config);
  BladerunnerCluster& cluster = *run.cluster;

  SocialGraphConfig graph_config;
  graph_config.num_users = 30;
  graph_config.num_videos = 1;
  graph_config.num_threads = 5;
  SocialGraph graph = GenerateSocialGraph(cluster.tao(), cluster.sim().rng(), graph_config);
  // The LVC filter only surfaces friends' comments; guarantee the poster
  // (users[20]) is a friend of every viewer so updates reach devices.
  for (int i = 0; i < 6; ++i) {
    MakeFriends(cluster.tao(), graph.users[static_cast<size_t>(i)], graph.users[20]);
  }
  cluster.sim().RunFor(Seconds(2));

  for (int i = 0; i < 6; ++i) {
    run.devices.push_back(std::make_unique<DeviceAgent>(
        &cluster, graph.users[static_cast<size_t>(i)], 0, DeviceProfile::kWifi));
    run.devices.back()->SubscribeLvc(graph.videos[0]);
  }
  cluster.sim().RunFor(Seconds(5));

  run.devices.push_back(std::make_unique<DeviceAgent>(&cluster, graph.users[20], 0,
                                                      DeviceProfile::kWifi));
  DeviceAgent* poster = run.devices.back().get();
  for (int round = 0; round < 10; ++round) {
    // Post in the first viewer's language so the BRASS-side language filter
    // passes for at least that stream and the update reaches a device.
    poster->PostComment(graph.videos[0], "c", graph.language[graph.users[0]]);
    cluster.sim().RunFor(Seconds(2));
  }
  cluster.sim().RunFor(Seconds(20));
  return run;
}

// Returns the first retained trace whose root span has the given name and
// which contains at least one "burst.deliver" span (i.e. an update that
// made it all the way to a device).
const TraceRecord* FindDeliveredUpdateTrace(const TraceCollector& trace) {
  for (const TraceRecord* record : trace.AllTraces()) {
    if (record->root() == nullptr || record->root()->name != "update") {
      continue;
    }
    for (const Span& span : record->spans) {
      if (span.name == "burst.deliver" && !span.open()) {
        return record;
      }
    }
  }
  return nullptr;
}

TEST(TraceTreeTest, UpdateSpansFormSingleRootedTreeAcrossHops) {
  ScenarioRun run = RunLvcScenario(101);
  const TraceRecord* record = FindDeliveredUpdateTrace(run.cluster->trace());
  ASSERT_NE(record, nullptr);

  // Exactly one root; every non-root span's parent exists in the same
  // trace, so the spans form a single rooted tree.
  int roots = 0;
  std::set<std::string> components;
  for (const Span& span : record->spans) {
    components.insert(span.component);
    if (span.parent_span_id == 0) {
      ++roots;
      EXPECT_EQ(span.name, "update");
      continue;
    }
    const Span* parent = record->Find(span.parent_span_id);
    ASSERT_NE(parent, nullptr) << "span " << span.name << " has a dangling parent";
    EXPECT_LE(parent->start, span.start);
  }
  EXPECT_EQ(roots, 1);

  // The journey crosses at least WAS -> Pylon -> BRASS -> BURST (3+ RPC
  // hops), each contributing spans under the one root.
  EXPECT_TRUE(components.count("was"));
  EXPECT_TRUE(components.count("pylon"));
  EXPECT_TRUE(components.count("brass"));
  EXPECT_TRUE(components.count("burst"));
}

TEST(TraceTreeTest, FailedHostStreamSpansAreClosedWithError) {
  ScenarioRun run = RunLvcScenario(202);
  BladerunnerCluster& cluster = *run.cluster;
  for (size_t i = 0; i < cluster.NumBrassHosts(); ++i) {
    cluster.brass_host(i).FailHost();
  }
  cluster.sim().RunFor(Seconds(2));

  SpanQuery query;
  query.name = "brass.stream";
  std::vector<const Span*> streams = FindSpans(cluster.trace(), query);
  ASSERT_FALSE(streams.empty());
  bool saw_error = false;
  for (const Span* span : streams) {
    if (!span->error) {
      continue;
    }
    saw_error = true;
    EXPECT_FALSE(span->open()) << "error-marked stream span left open";
    const Value* message = span->FindAnnotation("error");
    ASSERT_NE(message, nullptr);
    EXPECT_EQ(message->AsString(), "host failure");
  }
  EXPECT_TRUE(saw_error);
}

TEST(CriticalPathTest, ContributionsTelescopeOnLinearTrace) {
  TraceCollector trace;
  TraceContext root = trace.StartTrace("update", "was", 0, Millis(10));
  TraceContext child = trace.StartSpan(root, "pylon.publish", "pylon", 0, Millis(20));
  TraceContext grandchild = trace.StartSpan(child, "pylon.deliver", "pylon", 1, Millis(30));
  trace.EndSpan(grandchild, Millis(80));
  trace.EndSpan(child, Millis(90));
  trace.EndSpan(root, Millis(110));

  const TraceRecord* record = trace.FindTrace(root.trace_id);
  ASSERT_NE(record, nullptr);
  std::vector<CriticalPathSegment> path = CriticalPath(*record);
  ASSERT_EQ(path.size(), 3u);
  // On a linear fully-nested trace the per-segment contributions telescope:
  // their sum is exactly the root duration.
  EXPECT_EQ(CriticalPathDuration(*record), record->root()->duration());
  EXPECT_EQ(CriticalPathDuration(*record), Millis(100));
}

TEST(TraceDeterminismTest, SameSeedRunsExportByteIdenticalJson) {
  ScenarioRun a = RunLvcScenario(303);
  ScenarioRun b = RunLvcScenario(303);
  std::string json_a = ChromeTraceJson(a.cluster->trace());
  std::string json_b = ChromeTraceJson(b.cluster->trace());
  ASSERT_FALSE(json_a.empty());
  EXPECT_GT(a.cluster->trace().TraceCount(), 0u);
  EXPECT_EQ(json_a, json_b);
}

TEST(TraceDeterminismTest, SamplingKeepsSameTraceIds) {
  ScenarioRun full = RunLvcScenario(404, /*sample_rate=*/1.0);
  ScenarioRun sampled = RunLvcScenario(404, /*sample_rate=*/0.1);

  std::set<TraceId> full_ids;
  for (const TraceRecord* record : full.cluster->trace().AllTraces()) {
    full_ids.insert(record->trace_id);
  }
  std::set<TraceId> sampled_ids;
  for (const TraceRecord* record : sampled.cluster->trace().AllTraces()) {
    sampled_ids.insert(record->trace_id);
  }
  // Head-based sampling is a pure function of the trace id, so the sampled
  // run keeps a strict subset of the full run's trace ids.
  ASSERT_FALSE(full_ids.empty());
  EXPECT_LT(sampled_ids.size(), full_ids.size());
  for (TraceId id : sampled_ids) {
    EXPECT_TRUE(full_ids.count(id)) << "sampled run produced an unknown trace id";
  }
}

// TraceConfig::enabled is the one way to run untraced, and the collector's
// contract is that it changes no simulated outcome: ids never come from the
// simulator's Rng, and spans schedule nothing.
TEST(TraceDeterminismTest, DisabledTracingLeavesSimulationUnchanged) {
  ScenarioRun traced = RunLvcScenario(606);
  ScenarioRun untraced = RunLvcScenario(606, /*sample_rate=*/1.0, /*tracing=*/false);
  ASSERT_GT(traced.cluster->trace().TraceCount(), 0u);
  EXPECT_EQ(untraced.cluster->trace().TraceCount(), 0u);

  EXPECT_EQ(traced.cluster->sim().events_executed(), untraced.cluster->sim().events_executed());
  auto deliveries = [](ScenarioRun& run) {
    return run.cluster->metrics().GetCounter("brass.deliveries").value();
  };
  EXPECT_GT(deliveries(traced), 0);
  EXPECT_EQ(deliveries(traced), deliveries(untraced));
  ASSERT_EQ(traced.devices.size(), untraced.devices.size());
  for (size_t i = 0; i < traced.devices.size(); ++i) {
    EXPECT_EQ(traced.devices[i]->payloads_received(), untraced.devices[i]->payloads_received())
        << "device " << i;
  }
  for (const char* name : {"e2e.total_us.LVC", "e2e.brass_to_device_us.LVC"}) {
    const Histogram* with = traced.cluster->metrics().FindHistogram(name);
    const Histogram* without = untraced.cluster->metrics().FindHistogram(name);
    ASSERT_NE(with, nullptr) << name;
    ASSERT_NE(without, nullptr) << name;
    EXPECT_GT(with->count(), 0u) << name;
    EXPECT_EQ(with->count(), without->count()) << name;
  }
}

TEST(TraceExportTest, ChromeJsonHasAllComponentsUnderOneRoot) {
  ScenarioRun run = RunLvcScenario(505);
  const TraceRecord* record = FindDeliveredUpdateTrace(run.cluster->trace());
  ASSERT_NE(record, nullptr);
  std::string json = ChromeTraceJson(*record);

  // Structurally valid: balanced braces/brackets, trace-event envelope.
  long depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Every pipeline component appears as a named thread in the export.
  for (const char* component : {"was", "pylon", "brass", "burst"}) {
    EXPECT_NE(json.find(std::string("\"") + component + "\""), std::string::npos)
        << "missing component " << component;
  }
  // And the trace renders as a tree rooted at the update span.
  std::string text = RenderTrace(*record);
  EXPECT_NE(text.find("update"), std::string::npos);
  EXPECT_NE(text.find("burst.deliver"), std::string::npos);
}

}  // namespace
}  // namespace bladerunner
