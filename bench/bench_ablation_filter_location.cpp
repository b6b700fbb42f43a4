// Ablation (DESIGN.md §5.4, docs/BURST.md "Placement"): where LVC's
// per-event processing runs. Three arms over an identical flash-crowd
// workload — a celebrity post whose few hot comments are edited at high
// rate while many viewers on the same POP watch:
//
//   device  (kDeviceFirehose)     no server-side filtering or pacing; every
//                                 event is fetched and pushed (§2's firehose)
//   region  (kRegional)           production baseline: filter, rank, pace,
//                                 fetch at the BRASS host
//   pop     (kPopFilterConflate)  quality floor + newest-version-wins
//                                 conflation + versioned payload cache at the
//                                 POP; residual filters, fetch, and privacy
//                                 stay regional
//
// Every per-viewer filter is made non-binding (quality floors at 0, language
// uniform, commenters disjoint from viewers) so the three arms must deliver
// the same per-viewer set of distinct comment objects — audited below; what
// the placement changes is *where bytes flow*: backbone bytes (POP<->proxy),
// last-mile payload bytes (device battery proxy), and delivery latency.
//
// With --perf/--smoke/--check the bench emits deterministic rows (simulated
// byte counters) for the CI gate against BENCH_PR9.json. The gate checks
// every row as higher-is-better (bench/baseline_gate.h), so the headline row
// is delivered payloads per backbone megabyte (the inverse of backbone bytes
// per delivered payload).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench/baseline_gate.h"
#include "bench/bench_util.h"
#include "src/core/cluster.h"
#include "src/core/device.h"
#include "src/was/resolvers.h"
#include "src/workload/social_gen.h"

using namespace bladerunner;

namespace {

struct Shape {
  int viewers = 20;
  int hot_comments = 4;     // the flash crowd concentrates on these
  int edits_per_sec = 8;    // aggregate, round-robin over the hot comments
  int storm_seconds = 30;
  int payload_chars = 1500;  // payload >> envelope, so placement shows up
};

Shape SmokeShape() {
  Shape shape;
  shape.viewers = 12;
  shape.edits_per_sec = 4;
  shape.storm_seconds = 12;
  return shape;
}

struct Result {
  int64_t backbone_bytes = 0;   // POP<->proxy leg, both directions
  int64_t last_mile_bytes = 0;  // payload bytes at devices (battery proxy)
  int64_t payloads = 0;
  int64_t was_fetches = 0;
  double p99_ms = 0.0;  // e2e comment latency (creation -> device)
  // Placement-arm internals (zero in the other arms).
  int64_t envelopes = 0;
  int64_t conflated = 0;
  int64_t cache_hits = 0;
  int64_t pop_fetches = 0;
  // Per-viewer distinct comment objects delivered, for the cross-arm audit.
  std::vector<std::set<int64_t>> delivered_ids;
};

Result RunArm(BrassPlacement placement, DeviceProfile profile, const Shape& shape,
              uint64_t seed) {
  ClusterConfig config;
  config.seed = seed;
  config.apps.lvc.placement = placement;
  // Non-binding filters: the arms must agree on *what* is delivered so the
  // comparison isolates *where* the processing ran. Coarse-filter
  // effectiveness is covered by tests/pop_placement_test.cpp instead
  // (quality draws consume shared RNG state, so a binding floor would let
  // the arms diverge on different draw orders, not on placement).
  config.apps.lvc.min_quality = 0.0;
  config.apps.lvc.non_friend_quality = 0.0;
  // The graph assigns viewers mixed languages; the firehose arm bypasses
  // the language filter, so it must be off for the delivered-set audit.
  config.apps.lvc.filter_language = false;
  config.apps.lvc.push_interval = Seconds(1);
  if (placement == BrassPlacement::kPopFilterConflate) {
    config.burst.pop_placement_enabled = true;
  }
  SocialGraphConfig graph_config;
  graph_config.num_users = 80;
  graph_config.num_videos = 1;
  BenchCluster fixture = MakeBenchCluster(config, graph_config, Topology::OneRegion());
  BladerunnerCluster& cluster = *fixture.cluster;
  ObjectId video = fixture.graph.videos[0];

  Result result;
  result.delivered_ids.resize(static_cast<size_t>(shape.viewers));
  auto viewers = MakeDeviceFleet(
      fixture, 0, shape.viewers,
      [video](DeviceAgent& viewer, size_t) { viewer.SubscribeLvc(video); }, profile);
  for (size_t i = 0; i < viewers.size(); ++i) {
    viewers[i]->set_payload_hook([&result, i](uint64_t, const Value& payload) {
      int64_t id = payload.Get("id").AsInt(0);
      if (id != 0) {
        result.delivered_ids[i].insert(id);
      }
      result.last_mile_bytes += static_cast<int64_t>(payload.WireSize());
    });
  }
  cluster.sim().RunFor(Seconds(5));

  // The celebrity moment: a handful of hot comments, posted a couple of
  // seconds apart so every arm delivers each at least once before the storm.
  auto commenters = MakeDeviceFleet(fixture, 40, shape.hot_comments);
  std::vector<ObjectId> hot;
  for (auto& commenter : commenters) {
    commenter->Mutate(
        "mutation { postComment(video: " + std::to_string(video) + ", text: \"" +
            std::string(static_cast<size_t>(shape.payload_chars), 'x') +
            "\", language: \"en\") { id } }",
        [&hot](bool ok, Value data) {
          if (ok) {
            hot.push_back(data.Get("postComment").Get("id").AsInt(0));
          }
        });
    cluster.sim().RunFor(Seconds(2));
  }
  cluster.sim().RunFor(Seconds(3));

  // The storm: the hot comments are edited round-robin (score updates,
  // typo fixes — the newest version supersedes). Each edit bumps the TAO
  // object version and republishes to the video's LVC topic.
  const std::string edit_text(static_cast<size_t>(shape.payload_chars), 'y');
  size_t next = 0;
  for (int s = 0; s < shape.storm_seconds; ++s) {
    for (int k = 0; k < shape.edits_per_sec && !hot.empty(); ++k) {
      DeviceAgent& editor = *commenters[next % commenters.size()];
      editor.EditComment(hot[next % hot.size()], edit_text);
      ++next;
    }
    cluster.sim().RunFor(Seconds(1));
  }
  cluster.sim().RunFor(Seconds(15));

  MetricsRegistry& m = cluster.metrics();
  result.backbone_bytes = m.GetCounter("burst.pop_backbone_bytes_up").value() +
                          m.GetCounter("burst.pop_backbone_bytes_down").value();
  result.was_fetches = m.GetCounter("brass.was_fetches").value();
  result.envelopes = m.GetCounter("burst.pop_envelopes").value();
  result.conflated = m.GetCounter("burst.pop_conflated").value();
  result.cache_hits = m.GetCounter("burst.pop_cache_hits").value();
  result.pop_fetches = m.GetCounter("burst.pop_fetches").value();
  result.p99_ms = m.GetHistogram("e2e.total_us.LVC").Quantile(0.99) / 1e3;
  for (auto& viewer : viewers) {
    result.payloads += static_cast<int64_t>(viewer->payloads_received());
  }
  return result;
}

// The audit behind the whole comparison: identical per-viewer delivered
// object sets, so the arms differ only in transport cost, not in content.
bool SameDeliveredSets(const Result& a, const Result& b, const char* label_a,
                       const char* label_b) {
  if (a.delivered_ids.size() != b.delivered_ids.size()) {
    PrintRow("FAIL: %s and %s ran different viewer counts", label_a, label_b);
    return false;
  }
  bool ok = true;
  for (size_t i = 0; i < a.delivered_ids.size(); ++i) {
    if (a.delivered_ids[i] != b.delivered_ids[i]) {
      PrintRow("FAIL: viewer %zu delivered sets differ (%s: %zu objects, %s: %zu objects)", i,
               label_a, a.delivered_ids[i].size(), label_b, b.delivered_ids[i].size());
      ok = false;
    }
  }
  return ok;
}

void PrintArmTable(const char* profile, const Result& device, const Result& region,
                   const Result& pop) {
  PrintSection(Fmt("last mile: %s", profile).c_str());
  PrintRow("%-34s %-14s %-14s %s", "", "device", "region", "pop");
  PrintRow("%-34s %-14lld %-14lld %lld", "backbone bytes (POP<->proxy)",
           static_cast<long long>(device.backbone_bytes),
           static_cast<long long>(region.backbone_bytes),
           static_cast<long long>(pop.backbone_bytes));
  PrintRow("%-34s %-14lld %-14lld %lld", "last-mile payload bytes (battery)",
           static_cast<long long>(device.last_mile_bytes),
           static_cast<long long>(region.last_mile_bytes),
           static_cast<long long>(pop.last_mile_bytes));
  PrintRow("%-34s %-14lld %-14lld %lld", "payloads delivered",
           static_cast<long long>(device.payloads), static_cast<long long>(region.payloads),
           static_cast<long long>(pop.payloads));
  PrintRow("%-34s %-14lld %-14lld %lld", "WAS payload fetches",
           static_cast<long long>(device.was_fetches),
           static_cast<long long>(region.was_fetches),
           static_cast<long long>(pop.was_fetches));
  PrintRow("%-34s %-14.1f %-14.1f %.1f", "delivery p99 (ms)", device.p99_ms, region.p99_ms,
           pop.p99_ms);
  PrintRow("%-34s %-14s %-14s %lld/%lld/%lld", "pop envelopes/conflated/cache hits", "-", "-",
           static_cast<long long>(pop.envelopes), static_cast<long long>(pop.conflated),
           static_cast<long long>(pop.cache_hits));
}

double PayloadsPerBackboneMb(const Result& r) {
  return static_cast<double>(r.payloads) /
         (static_cast<double>(std::max<int64_t>(1, r.backbone_bytes)) / 1e6);
}

}  // namespace

int main(int argc, char** argv) {
  ParseBenchOptions(argc, argv, BaselineCheck::kGated);
  const BenchOptions& opts = bench_options();
  PrintHeader("Ablation 4", "processing placement: device firehose vs region vs POP");

  Shape shape = opts.smoke ? SmokeShape() : Shape{};

  Result device = RunArm(BrassPlacement::kDeviceFirehose, DeviceProfile::kMobile4g, shape, 41);
  Result region = RunArm(BrassPlacement::kRegional, DeviceProfile::kMobile4g, shape, 41);
  Result pop = RunArm(BrassPlacement::kPopFilterConflate, DeviceProfile::kMobile4g, shape, 41);

  bool audit_ok = SameDeliveredSets(region, pop, "region", "pop") &
                  SameDeliveredSets(region, device, "region", "device");

  PrintArmTable("mobile 4g", device, region, pop);

  Result device_wifi;
  Result region_wifi;
  Result pop_wifi;
  if (!opts.smoke) {
    device_wifi = RunArm(BrassPlacement::kDeviceFirehose, DeviceProfile::kWifi, shape, 43);
    region_wifi = RunArm(BrassPlacement::kRegional, DeviceProfile::kWifi, shape, 43);
    pop_wifi = RunArm(BrassPlacement::kPopFilterConflate, DeviceProfile::kWifi, shape, 43);
    audit_ok = audit_ok && SameDeliveredSets(region_wifi, pop_wifi, "region", "pop") &&
               SameDeliveredSets(region_wifi, device_wifi, "region", "device");
    PrintArmTable("wifi", device_wifi, region_wifi, pop_wifi);
  }

  PrintSection("paper vs measured");
  Recap("per-viewer delivered comment sets", "identical across the three arms",
        audit_ok ? "identical (audited per viewer)" : "DIVERGED");
  Recap("backbone bytes, POP vs regional", "one payload per POP, not per stream",
        Fmt("%.2fx less backbone traffic",
            static_cast<double>(region.backbone_bytes) /
                static_cast<double>(std::max<int64_t>(1, pop.backbone_bytes))));
  Recap("device battery proxy vs firehose", "server-side pacing shields the device",
        Fmt("%.1fx less last-mile payload",
            static_cast<double>(device.last_mile_bytes) /
                static_cast<double>(std::max<int64_t>(1, region.last_mile_bytes))));
  Recap("flash-crowd delivery p99", "POP placement must not regress latency",
        Fmt("pop %.1fms vs region %.1fms", pop.p99_ms, region.p99_ms));

  bool latency_ok = pop.p99_ms <= 2.0 * std::max(1.0, region.p99_ms);
  bool backbone_ok = pop.backbone_bytes < region.backbone_bytes;
  if (!audit_ok || !latency_ok || !backbone_ok) {
    if (!latency_ok) {
      PrintRow("FAIL: pop p99 %.1fms vs region %.1fms (limit 2x)", pop.p99_ms, region.p99_ms);
    }
    if (!backbone_ok) {
      PrintRow("FAIL: pop backbone %lld bytes not below region %lld",
               static_cast<long long>(pop.backbone_bytes),
               static_cast<long long>(region.backbone_bytes));
    }
    return 1;
  }

  if (opts.perf) {
    std::vector<PerfRow> rows;
    rows.push_back({"ablation_filter_location", "pop_payloads_per_backbone_mb",
                    PayloadsPerBackboneMb(pop), "payloads/MB"});
    rows.push_back({"ablation_filter_location", "backbone_reduction_vs_regional",
                    static_cast<double>(region.backbone_bytes) /
                        static_cast<double>(std::max<int64_t>(1, pop.backbone_bytes)),
                    "x"});
    return ReportPerfRows(rows, opts.out_path, opts.check_path, opts.tolerance);
  }
  return 0;
}
