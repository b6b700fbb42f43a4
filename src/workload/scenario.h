// Scenario composition: typed, seeded game-day schedules (docs/SCENARIOS.md).
//
// A Scenario is a declarative composition of orthogonal phases — diurnal
// Fig. 8 load, a hot-video flash crowd, a regional partition, a POP failure
// (mass reconnect storm), a seeded Pylon KV crash campaign, rolling BRASS
// upgrades — over an app mix (durable ticker, live queries, placed LVC) and
// a fleet size. RunScenario drives the composition through the shared
// BenchCluster/MakeDeviceFleet fixtures and the phase library
// (src/workload/scenario_lib.h), then emits exactly one JSON row: delivery
// p50/p99, shed/conflated/degraded fractions, the durable zero-loss audit,
// the live-query audit, subscription durability, and backbone bytes.
//
// Rows are deterministic: for a fixed spec + seed the JSON is byte-identical
// at any worker-thread count with the same LP layout (the PR 8 contract) —
// the seed-sweep test in tests/scenario_test.cpp pins this.

#ifndef BLADERUNNER_SRC_WORKLOAD_SCENARIO_H_
#define BLADERUNNER_SRC_WORKLOAD_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/brass/app_descriptor.h"
#include "src/core/cluster.h"
#include "src/sim/time.h"

namespace bladerunner {

// One composable phase. `at` is the offset from scenario start (after the
// fixture warmup and subscription settle); windowed kinds span
// [at, at + duration]. Point kinds (kPopFailure) ignore duration.
enum class ScenarioPhaseKind {
  // Diurnal Fig. 8 session/activity load over the window, driven by
  // DailyScenario on the spec's daily population. At most one per scenario
  // (the daily driver owns the simulator while it runs; everything else is
  // pre-scheduled and fires during it).
  kDiurnal,
  // Hot-video comment flood at `comments_per_sec` against the scenario's
  // hot video, with a typing storm riding along (the conflation workload).
  kFlashCrowd,
  // Catastrophic POP failure: every stream riding pop_index drops at once
  // and the fleet reconnects to the surviving POPs.
  kPopFailure,
  // Regional partition: every BRASS host in `region` fails at `at` and
  // revives at `at + duration`; the region's KV node crashes and recovers
  // (without state loss) on the same window.
  kRegionalPartition,
  // Seeded KV crash/recovery campaign (scenario_lib MakeKvCampaignConfig)
  // running over the window.
  kKvCampaign,
  // Rolling BRASS upgrades: every `upgrade_interval` inside the window one
  // host drains and revives two minutes later (round-robin).
  kHostUpgrades,
};

struct ScenarioPhase {
  ScenarioPhaseKind kind = ScenarioPhaseKind::kFlashCrowd;
  SimTime at = 0;
  SimTime duration = 0;
  // kFlashCrowd
  int comments_per_sec = 10;
  // kDiurnal: scales session/stream/activity rates relative to the
  // DailyScenario defaults.
  double load_scale = 1.0;
  // kRegionalPartition
  RegionId region = 1;
  // kPopFailure
  size_t pop_index = 0;
  // kHostUpgrades
  SimTime upgrade_interval = Minutes(2);
  // kKvCampaign (campaign density; compressed vs the 3h/8m Fig. 10 shape)
  SimTime kv_mtbf = Minutes(20);
  SimTime kv_mean_outage = Minutes(2);
};

// The app/fleet mix. Device populations are disjoint: daily_users drive the
// first graph users, the viewer/commenter/live-query fleets take reserved
// graph users after them, and the ticker fleet uses synthetic off-graph
// device ids.
struct ScenarioAppMix {
  size_t daily_users = 0;        // diurnal population (0 = no daily fleet)
  size_t viewers = 0;            // hot-video LVC viewers (latency probes)
  size_t commenters = 0;         // flash-crowd commenter pool
  size_t livequery_viewers = 0;  // LiveFeed subscribers on the hot video
  BrassPlacement lvc_placement = BrassPlacement::kRegional;

  // Durable ticker fleet (reconnect-storm style; durable when
  // ticker_durable, best-effort otherwise).
  size_t ticker_devices = 0;
  int ticker_channels = 0;
  int ticker_subs_per_device = 3;
  int ticker_ticks_per_channel = 0;
  SimTime ticker_gap = Millis(500);
  bool ticker_durable = true;
};

struct ScenarioSpec {
  std::string name;       // the matrix cell name, e.g. "flash_crowd+pop_failure@2k"
  std::string scale = "full";  // "full" | "smoke" — stamped into the row
  uint64_t seed = 1;
  SimTime duration = Minutes(2);  // measured horizon (phases live inside it)
  SimTime settle = Seconds(5);    // after subscriptions, before phase 0
  SimTime drain = Seconds(20);    // quiesce before the audits
  ScenarioAppMix mix;
  std::vector<ScenarioPhase> phases;
};

// The one JSON row a composed run emits (SCENARIO_PR10.json).
struct ScenarioRow {
  std::string scenario;
  std::string scale;
  uint64_t seed = 0;
  int64_t fleet = 0;      // total devices across all fleets
  int64_t delivered = 0;  // successful pushes, host + POP delivery paths
  double delivery_p50_ms = 0.0;  // e2e publish -> device, every device
  double delivery_p99_ms = 0.0;
  double shed_fraction = 0.0;       // of delivery attempts (host + POP)
  double conflated_fraction = 0.0;  // of delivery attempts (host + POP)
  double degraded_fraction = 0.0;   // degraded-mode drops, of attempts
  int64_t degrade_signals = 0;
  int64_t durable_published = 0;
  int64_t durable_lost = 0;
  int64_t durable_duplicates = 0;
  bool durable_log_ok = true;
  bool durability_ok = true;   // zero loss + zero dup + log head matches
  bool livequery_ok = true;    // LiveQueryEngine::AuditAll (true if unused)
  int64_t backbone_bytes = 0;  // POP backbone up + down
  int64_t subs_audited = 0;    // subscription durability audit
  int64_t subs_lost = 0;
  uint64_t events = 0;  // simulator events executed (determinism witness)

  // One line, fixed key order, deterministic number formatting.
  std::string ToJson() const;
};

// Runs one composed scenario on a fresh cluster. `parallel` picks the LP
// layout (one LP by default); the row's contents are independent of
// `parallel.threads` for a fixed LP layout.
ScenarioRow RunScenario(const ScenarioSpec& spec,
                        const ClusterParallelConfig& parallel = ClusterParallelConfig{});

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_WORKLOAD_SCENARIO_H_
