// Scenario matrix: named game-days composed from the orthogonal phase
// catalog (src/workload/scenario.h, docs/SCENARIOS.md) — diurnal load,
// flash crowds, POP failures, regional partitions, KV crash campaigns, and
// rolling host upgrades, over app mixes spanning LVC viewers, the durable
// ticker tier, database live queries, and POP-placed delivery.
//
// Each cell runs RunScenario once and emits exactly one JSON row; the
// committed baseline is SCENARIO_PR10.json (full + smoke rows).
//
//   (no args)          run every cell at full scale
//   --smoke            shrunken cells for CI; audits become hard failures
//   --cell NAME        run only the named cell(s); repeatable
//   --out PATH         write the JSON rows to PATH
//   --check PATH       gate against a previous --out / committed baseline
//                      (bench/baseline_gate.h): delivered >= (1 - tolerance)
//                      x base, p99 <= (1 + tolerance) x base, audits must pass
//   --tolerance X      allowed relative regression (default 0.25)
//   --threads/--lp-groups  run the cells on the partitioned kernel (rows
//                      are byte-identical for a fixed LP layout)

#include <cinttypes>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench/baseline_gate.h"
#include "bench/bench_util.h"
#include "src/workload/scenario.h"

namespace bladerunner {
namespace {

ScenarioPhase Diurnal(SimTime at, SimTime duration, double load_scale) {
  ScenarioPhase p;
  p.kind = ScenarioPhaseKind::kDiurnal;
  p.at = at;
  p.duration = duration;
  p.load_scale = load_scale;
  return p;
}

ScenarioPhase FlashCrowd(SimTime at, SimTime duration, int comments_per_sec) {
  ScenarioPhase p;
  p.kind = ScenarioPhaseKind::kFlashCrowd;
  p.at = at;
  p.duration = duration;
  p.comments_per_sec = comments_per_sec;
  return p;
}

ScenarioPhase PopFailure(SimTime at, size_t pop_index = 0) {
  ScenarioPhase p;
  p.kind = ScenarioPhaseKind::kPopFailure;
  p.at = at;
  p.pop_index = pop_index;
  return p;
}

ScenarioPhase RegionalPartition(SimTime at, SimTime duration, RegionId region = 1) {
  ScenarioPhase p;
  p.kind = ScenarioPhaseKind::kRegionalPartition;
  p.at = at;
  p.duration = duration;
  p.region = region;
  return p;
}

ScenarioPhase KvCampaign(SimTime at, SimTime duration, SimTime mtbf, SimTime mean_outage) {
  ScenarioPhase p;
  p.kind = ScenarioPhaseKind::kKvCampaign;
  p.at = at;
  p.duration = duration;
  p.kv_mtbf = mtbf;
  p.kv_mean_outage = mean_outage;
  return p;
}

ScenarioPhase HostUpgrades(SimTime at, SimTime duration, SimTime interval) {
  ScenarioPhase p;
  p.kind = ScenarioPhaseKind::kHostUpgrades;
  p.at = at;
  p.duration = duration;
  p.upgrade_interval = interval;
  return p;
}

// A durable ticker fleet sized so its publish window fits inside `window`.
void TickerFleet(ScenarioAppMix* mix, size_t devices, int channels, int ticks, SimTime gap,
                 bool durable = true) {
  mix->ticker_devices = devices;
  mix->ticker_channels = channels;
  mix->ticker_ticks_per_channel = ticks;
  mix->ticker_gap = gap;
  mix->ticker_durable = durable;
}

struct Cell {
  const char* name;
  const char* what;  // one-line description for the human summary
  std::function<ScenarioSpec(bool smoke)> make;
};

// The matrix. Smoke cells shrink fleets/rates ~10x and shorten windows so
// CI finishes fast; the composition (phase kinds, overlaps) is identical.
std::vector<Cell> BuildMatrix() {
  std::vector<Cell> cells;

  cells.push_back({"diurnal@2k", "baseline: diurnal Fig. 8 load, no failures", [](bool smoke) {
                     ScenarioSpec spec;
                     spec.name = "diurnal@2k";
                     spec.seed = 101;
                     spec.duration = smoke ? Seconds(60) : Minutes(2);
                     spec.mix.daily_users = smoke ? 200 : 2000;
                     spec.phases = {Diurnal(0, spec.duration, 10.0)};
                     return spec;
                   }});

  cells.push_back({"flash_crowd@2k", "hot-video comment flood + typing storm", [](bool smoke) {
                     ScenarioSpec spec;
                     spec.name = "flash_crowd@2k";
                     spec.seed = 102;
                     spec.duration = Seconds(60);
                     spec.mix.viewers = smoke ? 120 : 1200;
                     spec.mix.commenters = smoke ? 60 : 400;
                     spec.phases = {FlashCrowd(Seconds(5), Seconds(20), smoke ? 20 : 40)};
                     return spec;
                   }});

  cells.push_back({"flash_crowd+pop_failure@2k",
                   "POP dies mid-flood; fleet reconnects under load", [](bool smoke) {
                     ScenarioSpec spec;
                     spec.name = "flash_crowd+pop_failure@2k";
                     spec.seed = 103;
                     spec.duration = Seconds(60);
                     spec.mix.viewers = smoke ? 120 : 1200;
                     spec.mix.commenters = smoke ? 60 : 400;
                     spec.phases = {FlashCrowd(Seconds(5), Seconds(30), smoke ? 20 : 40),
                                    PopFailure(Seconds(15))};
                     return spec;
                   }});

  cells.push_back({"reconnect_storm@10k-durable",
                   "catastrophic POP failure under durable ticker load", [](bool smoke) {
                     ScenarioSpec spec;
                     spec.name = "reconnect_storm@10k-durable";
                     spec.seed = 104;
                     spec.duration = Seconds(16);
                     spec.drain = Seconds(30);
                     TickerFleet(&spec.mix, smoke ? 150 : 10000, smoke ? 10 : 100,
                                 smoke ? 30 : 24, smoke ? Millis(300) : Millis(500));
                     spec.phases = {PopFailure(Seconds(4))};
                     return spec;
                   }});

  cells.push_back({"diurnal+kv_campaign@2k-durable",
                   "KV crash campaign under diurnal + durable load", [](bool smoke) {
                     ScenarioSpec spec;
                     spec.name = "diurnal+kv_campaign@2k-durable";
                     spec.seed = 105;
                     spec.duration = smoke ? Seconds(75) : Minutes(2);
                     spec.drain = Seconds(30);
                     spec.mix.daily_users = smoke ? 150 : 1500;
                     TickerFleet(&spec.mix, smoke ? 50 : 400, smoke ? 8 : 20, smoke ? 40 : 120,
                                 Seconds(1) / 2);
                     spec.phases = {Diurnal(0, spec.duration, 10.0),
                                    KvCampaign(0, spec.duration, Seconds(30), Seconds(30))};
                     return spec;
                   }});

  cells.push_back({"diurnal+regional_partition@2k",
                   "a whole region's BRASS + KV drop out, then heal", [](bool smoke) {
                     ScenarioSpec spec;
                     spec.name = "diurnal+regional_partition@2k";
                     spec.seed = 106;
                     spec.duration = smoke ? Seconds(75) : Minutes(2);
                     spec.mix.daily_users = smoke ? 150 : 1500;
                     spec.phases = {Diurnal(0, spec.duration, 10.0),
                                    RegionalPartition(Seconds(30), Seconds(25), /*region=*/1)};
                     return spec;
                   }});

  cells.push_back({"diurnal+host_upgrades@2k-livequery",
                   "rolling BRASS upgrades under diurnal + live queries", [](bool smoke) {
                     ScenarioSpec spec;
                     spec.name = "diurnal+host_upgrades@2k-livequery";
                     spec.seed = 107;
                     spec.duration = smoke ? Seconds(75) : Minutes(2);
                     spec.mix.daily_users = smoke ? 100 : 1000;
                     spec.mix.livequery_viewers = smoke ? 40 : 300;
                     spec.phases = {Diurnal(0, spec.duration, 10.0),
                                    HostUpgrades(Seconds(10), spec.duration - Seconds(15),
                                                 Seconds(30))};
                     return spec;
                   }});

  cells.push_back({"flash_crowd+placed@2k",
                   "the flood again with POP filter+conflate placement", [](bool smoke) {
                     ScenarioSpec spec;
                     spec.name = "flash_crowd+placed@2k";
                     spec.seed = 108;
                     spec.duration = Seconds(60);
                     spec.mix.viewers = smoke ? 120 : 1000;
                     spec.mix.commenters = smoke ? 60 : 300;
                     spec.mix.lvc_placement = BrassPlacement::kPopFilterConflate;
                     spec.phases = {FlashCrowd(Seconds(5), Seconds(20), smoke ? 20 : 40)};
                     return spec;
                   }});

  cells.push_back({"kitchen_sink@2k-durable-livequery",
                   "everything at once: diurnal + flood + POP death + upgrades + KV campaign",
                   [](bool smoke) {
                     ScenarioSpec spec;
                     spec.name = "kitchen_sink@2k-durable-livequery";
                     spec.seed = 109;
                     spec.duration = smoke ? Seconds(90) : Minutes(2);
                     spec.drain = Seconds(30);
                     spec.mix.daily_users = smoke ? 100 : 800;
                     spec.mix.viewers = smoke ? 60 : 500;
                     spec.mix.commenters = smoke ? 40 : 200;
                     spec.mix.livequery_viewers = smoke ? 30 : 200;
                     TickerFleet(&spec.mix, smoke ? 60 : 2000, smoke ? 10 : 50,
                                 smoke ? 40 : 120, Seconds(1) / 2);
                     spec.phases = {Diurnal(0, spec.duration, 8.0),
                                    FlashCrowd(Seconds(20), Seconds(20), smoke ? 15 : 30),
                                    PopFailure(Seconds(50)),
                                    HostUpgrades(Seconds(55), Seconds(30), Seconds(15)),
                                    KvCampaign(0, spec.duration, Seconds(40), Seconds(30))};
                     return spec;
                   }});

  return cells;
}

int Run(const BenchOptions& opts) {
  const bool smoke = opts.smoke;
  std::vector<Cell> matrix = BuildMatrix();

  if (!opts.cells.empty()) {
    std::vector<Cell> selected;
    for (const std::string& name : opts.cells) {
      bool known = false;
      for (const Cell& cell : matrix) {
        if (name == cell.name) {
          selected.push_back(cell);
          known = true;
          break;
        }
      }
      if (!known) {
        std::fprintf(stderr, "unknown cell '%s'; cells are:\n", name.c_str());
        for (const Cell& cell : matrix) std::fprintf(stderr, "  %s\n", cell.name);
        return 2;
      }
    }
    matrix = std::move(selected);
  }

  std::optional<BaselineGate> gate;
  if (!opts.check_path.empty()) {
    gate.emplace(opts.check_path);
    if (!gate->ok()) {
      std::fprintf(stderr, "%s\n", gate->error().c_str());
      return 1;
    }
  }

  PrintHeader(smoke ? "Scenario matrix (smoke)" : "Scenario matrix",
              "composed game-days: load x failures x app mix -> one JSON row each");

  std::vector<ScenarioRow> rows;
  int failures = 0;
  for (const Cell& cell : matrix) {
    ScenarioSpec spec = cell.make(smoke);
    spec.scale = smoke ? "smoke" : "full";
    ScenarioRow row = RunScenario(spec, opts.Parallel());
    rows.push_back(row);

    PrintSection(cell.name);
    PrintRow("  %s", cell.what);
    PrintRow("  fleet %" PRId64 "  delivered %" PRId64 "  p50 %.1fms  p99 %.1fms", row.fleet,
             row.delivered, row.delivery_p50_ms, row.delivery_p99_ms);
    PrintRow("  shed %.4f  conflated %.4f  degraded %.4f  (degrade signals %" PRId64 ")",
             row.shed_fraction, row.conflated_fraction, row.degraded_fraction,
             row.degrade_signals);
    if (row.durable_published > 0) {
      PrintRow("  durable: published %" PRId64 "  lost %" PRId64 "  dup %" PRId64 "  log %s",
               row.durable_published, row.durable_lost, row.durable_duplicates,
               row.durable_log_ok ? "ok" : "MISMATCH");
    }
    PrintRow("  audits: durability %s  livequery %s  subs %" PRId64 "/%" PRId64 " lost",
             row.durability_ok ? "PASS" : "FAIL", row.livequery_ok ? "PASS" : "FAIL",
             row.subs_lost, row.subs_audited);
    PrintRow("  backbone %" PRId64 " bytes  events %" PRIu64, row.backbone_bytes, row.events);

    const bool audits_ok = row.durability_ok && row.livequery_ok && row.durable_log_ok &&
                           row.subs_lost == 0;
    if (!audits_ok) {
      std::fprintf(stderr, "scenario %s: audit FAILED\n", cell.name);
      ++failures;
    }
    if (gate) {
      const std::vector<std::pair<std::string, std::string>> id = {{"scenario", row.scenario},
                                                                   {"scale", row.scale}};
      failures += !gate->Check({id, "delivered", Better::kHigher,
                                static_cast<double>(row.delivered)},
                               opts.tolerance);
      failures += !gate->Check({id, "delivery_p99_ms", Better::kLower, row.delivery_p99_ms},
                               opts.tolerance);
    }
  }

  PrintSection("rows");
  for (const ScenarioRow& row : rows) std::printf("%s\n", row.ToJson().c_str());

  if (!opts.out_path.empty()) {
    std::FILE* f = std::fopen(opts.out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", opts.out_path.c_str());
      return 2;
    }
    for (const ScenarioRow& row : rows) std::fprintf(f, "%s\n", row.ToJson().c_str());
    std::fclose(f);
    std::printf("\nwrote %zu rows to %s\n", rows.size(), opts.out_path.c_str());
  }

  if (failures > 0) {
    std::fprintf(stderr, "scenario matrix: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("\nscenario matrix: %zu cell(s) OK\n", rows.size());
  return 0;
}

}  // namespace
}  // namespace bladerunner

int main(int argc, char** argv) {
  return bladerunner::Run(
      bladerunner::ParseBenchOptions(argc, argv, bladerunner::BaselineCheck::kGated));
}
