#include "src/workload/scenario.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/daily.h"
#include "src/core/device.h"
#include "src/pylon/cluster.h"
#include "src/pylon/failure_injector.h"
#include "src/pylon/kv_node.h"
#include "src/pylon/topic.h"
#include "src/sim/histogram.h"
#include "src/was/resolvers.h"
#include "src/workload/scenario_lib.h"

namespace bladerunner {
namespace {

// Ticker devices live off-graph: their ids start far above any generated
// user id (TaoStore allocates object/user ids upward from 1e6) so composed
// fleets can never collide on StreamKey{device, sid}.
constexpr int64_t kTickerDeviceBase = 9000000000;

// Ticker probe: counts the device's payloads (the best-effort shortfall)
// and records the per-stream _seq multiset the durable zero-loss audit
// consumes. Each device has its own count, and the per-(device, channel)
// multisets are pre-materialized, so a hook running in a device-group LP
// touches only its own device's slots and never rebalances the outer maps.
void AttachTickerProbe(DeviceAgent& device, int64_t* payloads, TickerSeqsSeen* seen, int d) {
  device.set_payload_hook([payloads, seen, d](uint64_t, const Value& payload) {
    *payloads += 1;
    const Value& seq = payload.Get("_seq");
    if (!seq.is_int()) {
      return;  // best-effort run: no sequence numbers on the wire
    }
    Topic topic = payload.Get("channel").AsString();
    int64_t channel = std::stoll(SplitTopic(topic)[1]);
    (*seen)[d][channel].insert(static_cast<uint64_t>(seq.AsInt(0)));
  });
}

const char* Bool(bool b) { return b ? "true" : "false"; }

}  // namespace

std::string ScenarioRow::ToJson() const {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"scenario\":\"%s\",\"scale\":\"%s\",\"seed\":%llu,\"fleet\":%lld,"
      "\"delivered\":%lld,\"delivery_p50_ms\":%.3f,\"delivery_p99_ms\":%.3f,"
      "\"shed_fraction\":%.6f,\"conflated_fraction\":%.6f,\"degraded_fraction\":%.6f,"
      "\"degrade_signals\":%lld,\"durable_published\":%lld,\"durable_lost\":%lld,"
      "\"durable_duplicates\":%lld,\"durable_log_ok\":%s,\"durability_ok\":%s,"
      "\"livequery_ok\":%s,\"backbone_bytes\":%lld,\"subs_audited\":%lld,"
      "\"subs_lost\":%lld,\"events\":%llu}",
      scenario.c_str(), scale.c_str(), static_cast<unsigned long long>(seed),
      static_cast<long long>(fleet), static_cast<long long>(delivered), delivery_p50_ms,
      delivery_p99_ms, shed_fraction, conflated_fraction, degraded_fraction,
      static_cast<long long>(degrade_signals), static_cast<long long>(durable_published),
      static_cast<long long>(durable_lost), static_cast<long long>(durable_duplicates),
      Bool(durable_log_ok), Bool(durability_ok), Bool(livequery_ok),
      static_cast<long long>(backbone_bytes), static_cast<long long>(subs_audited),
      static_cast<long long>(subs_lost), static_cast<unsigned long long>(events));
  return buf;
}

ScenarioRow RunScenario(const ScenarioSpec& spec, const ClusterParallelConfig& parallel) {
  const ScenarioAppMix& mix = spec.mix;
  const ScenarioPhase* diurnal = nullptr;
  bool flash = false;
  for (const ScenarioPhase& phase : spec.phases) {
    if (phase.kind == ScenarioPhaseKind::kDiurnal) {
      // The daily driver owns the simulator while it runs, so only one
      // diurnal window fits into a composed schedule.
      assert(diurnal == nullptr && "at most one kDiurnal phase per scenario");
      diurnal = &phase;
      assert(mix.daily_users > 0 && "kDiurnal needs mix.daily_users > 0");
    }
    flash = flash || phase.kind == ScenarioPhaseKind::kFlashCrowd;
  }

  // ---- cluster ----
  ClusterConfig config;
  config.seed = spec.seed;
  config.parallel = parallel;
  config.apps.lvc.placement = mix.lvc_placement;
  if (mix.lvc_placement != BrassPlacement::kRegional) {
    config.burst.pop_placement_enabled = true;
  }
  config.apps.ticker.durable = mix.ticker_durable;
  config.apps.typing.backend_check = false;  // typing deltas push synchronously
  config.livequery.enabled = mix.livequery_viewers > 0;
  // Game-day overload posture: pacing, tight queue bounds, degrade armed — a
  // gentler version of bench_ablation_overload's knobs, so moderate phases
  // shed little but a flash crowd makes the shed/conflated/degraded
  // fractions move.
  config.brass.overload.min_push_gap = Millis(200);
  config.brass.overload.max_pending_per_stream = 8;
  config.brass.overload.degrade_min_sheds = 4;
  config.brass.overload.degrade_shed_fraction = 0.25;
  config.brass.overload.shed_window = Seconds(2);
  config.brass.overload.recover_check_interval = Seconds(2);

  // Graph users partition disjointly: [0, daily) drives the diurnal fleet
  // (DailyScenarioConfig::user_limit), then viewers, commenters, live-query
  // viewers, and the typing pair take the reserved tail.
  const size_t reserved =
      mix.viewers + mix.commenters + mix.livequery_viewers + (flash ? 2 : 0);
  SocialGraphConfig graph_config;
  graph_config.num_users =
      static_cast<int>(std::max<size_t>(mix.daily_users + reserved, 12));
  graph_config.num_videos = 8;
  graph_config.num_threads = 8;

  BenchCluster fixture = MakeBenchCluster(config, graph_config);
  BladerunnerCluster& cluster = *fixture.cluster;
  Simulator& sim = fixture.sim();

  // ---- fleets ----
  const ObjectId hot_video = fixture.graph.videos[0];
  size_t next_user = mix.daily_users;

  std::vector<std::unique_ptr<DeviceAgent>> viewers = MakeDeviceFleet(
      fixture, next_user, mix.viewers, [&](DeviceAgent& d, size_t) { d.SubscribeLvc(hot_video); });
  next_user += mix.viewers;

  std::vector<std::unique_ptr<DeviceAgent>> commenters =
      MakeDeviceFleet(fixture, next_user, mix.commenters);
  next_user += mix.commenters;

  std::vector<std::unique_ptr<DeviceAgent>> lq_viewers = MakeDeviceFleet(
      fixture, next_user, mix.livequery_viewers, [&](DeviceAgent& d, size_t) {
        d.SubscribeRaw("LiveFeed", "subscription { liveCommentFeed(videoId: " +
                                       std::to_string(hot_video) + ") }");
      });
  next_user += mix.livequery_viewers;

  // The typing pair: a watcher whose stream the flash crowd's typing storm
  // conflates (per-(thread, typist) conflation key), and the typist. They
  // get their own thread — the setTyping resolver checks membership, and
  // the graph's generated threads belong to the daily population.
  std::unique_ptr<DeviceAgent> watcher;
  std::unique_ptr<DeviceAgent> typist;
  ObjectId typing_thread = kInvalidObjectId;
  if (flash) {
    const UserId watcher_user = fixture.graph.users[next_user];
    const UserId typist_user = fixture.graph.users[next_user + 1];
    typing_thread = CreateThread(cluster.tao(), {watcher_user, typist_user});
    sim.RunFor(Seconds(1));  // let the thread replicate before the resolve
    watcher = std::make_unique<DeviceAgent>(&cluster, watcher_user, 0, DeviceProfile::kWifi);
    watcher->SubscribeTyping(typing_thread);
    typist = std::make_unique<DeviceAgent>(&cluster, typist_user, 0, DeviceProfile::kWifi);
    next_user += 2;
  }

  std::vector<int64_t> ticker_payloads(mix.ticker_devices);
  TickerSeqsSeen seen;
  std::vector<std::unique_ptr<DeviceAgent>> ticker_fleet;
  ticker_fleet.reserve(mix.ticker_devices);
  for (size_t d = 0; d < mix.ticker_devices; ++d) {
    ticker_fleet.push_back(std::make_unique<DeviceAgent>(
        &cluster, kTickerDeviceBase + static_cast<int64_t>(d), 0, DeviceProfile::kWifi));
    for (int s = 0; s < mix.ticker_subs_per_device; ++s) {
      int64_t channel = 1 + (static_cast<int64_t>(d) + s * 7) % mix.ticker_channels;
      ticker_fleet.back()->SubscribeTicker(channel);
      seen[static_cast<int>(d)][channel];  // materialize the expected stream set
    }
    AttachTickerProbe(*ticker_fleet.back(), &ticker_payloads[d], &seen, static_cast<int>(d));
  }

  sim.RunFor(spec.settle);

  // ---- phases (pre-scheduled; everything below is a pure function of the
  // spec + seed because the workload rng is drawn in schedule order) ----
  Rng workload_rng(spec.seed * 2654435761ull + 977);
  TickerPublishState published;
  if (!ticker_fleet.empty() && mix.ticker_ticks_per_channel > 0) {
    ScheduleTickerTicks(cluster, mix.ticker_channels, mix.ticker_ticks_per_channel,
                        mix.ticker_gap, /*start=*/0, &published);
  }

  std::vector<std::unique_ptr<KvFailureInjector>> injectors;
  BladerunnerCluster* cl = &cluster;
  // Failures, heals and upgrades act on backend state: the global LP.
  const SimContext backend(&sim);
  int phase_index = 0;
  for (const ScenarioPhase& phase : spec.phases) {
    ++phase_index;
    switch (phase.kind) {
      case ScenarioPhaseKind::kDiurnal:
        break;  // driven inline below (owns the simulator for its window)
      case ScenarioPhaseKind::kFlashCrowd: {
        assert(!commenters.empty() && "kFlashCrowd needs mix.commenters > 0");
        ScheduleCommentLoad(cluster, commenters, hot_video, phase.comments_per_sec,
                            phase.at, phase.duration, workload_rng, "flash comment");
        // The typing storm rides the same cadence: one toggle per comment
        // slot, alternating on/off — the conflation workload.
        const int total =
            static_cast<int>(phase.duration / Seconds(1)) * phase.comments_per_sec;
        const SimTime gap = Seconds(1) / phase.comments_per_sec;
        DeviceAgent* t = typist.get();
        for (int i = 0; i < total; ++i) {
          const bool on = i % 2 == 0;
          t->ctx().Schedule(phase.at + gap * i, [t, typing_thread, on]() {
            t->SetTyping(typing_thread, on);
          });
        }
        break;
      }
      case ScenarioPhaseKind::kPopFailure: {
        const size_t pop = phase.pop_index;
        backend.Schedule(phase.at, [cl, pop]() {
          if (pop < cl->NumPops()) {
            cl->pop(pop).FailPop();
          }
        });
        break;
      }
      case ScenarioPhaseKind::kRegionalPartition: {
        const RegionId r = phase.region;
        backend.Schedule(phase.at, [cl, r]() {
          for (size_t h = 0; h < cl->NumBrassHosts(); ++h) {
            BrassHost& host = cl->brass_host(h);
            if (host.region() == r && host.alive()) {
              host.FailHost();
            }
          }
          for (size_t k = 0; k < cl->pylon()->NumKvNodes(); ++k) {
            if (cl->pylon()->KvNodeAt(k)->region() == r) {
              cl->pylon()->KvNodeAt(k)->Fail();
            }
          }
        });
        // Heal: KV first (a reviving host re-registers its subscriptions
        // through Pylon), then the hosts.
        backend.Schedule(phase.at + phase.duration, [cl, r]() {
          for (size_t k = 0; k < cl->pylon()->NumKvNodes(); ++k) {
            if (cl->pylon()->KvNodeAt(k)->region() == r) {
              cl->pylon()->KvNodeAt(k)->Recover(/*lose_state=*/false);
            }
          }
          for (size_t h = 0; h < cl->NumBrassHosts(); ++h) {
            BrassHost& host = cl->brass_host(h);
            if (host.region() == r && !host.alive()) {
              host.Revive();
            }
          }
        });
        break;
      }
      case ScenarioPhaseKind::kKvCampaign: {
        injectors.push_back(std::make_unique<KvFailureInjector>(
            cluster.pylon(),
            MakeKvCampaignConfig(spec.seed * 1000003ull + static_cast<uint64_t>(phase_index),
                                 phase.duration, phase.kv_mtbf, phase.kv_mean_outage)));
        KvFailureInjector* injector = injectors.back().get();
        backend.Schedule(phase.at, [injector]() { injector->Start(); });
        break;
      }
      case ScenarioPhaseKind::kHostUpgrades: {
        const int ticks = static_cast<int>(phase.duration / phase.upgrade_interval);
        for (int k = 0; k < ticks; ++k) {
          const size_t victim = static_cast<size_t>(k) % cluster.NumBrassHosts();
          backend.Schedule(phase.at + phase.upgrade_interval * (k + 1), [cl, victim, backend]() {
            BrassHost& host = cl->brass_host(victim);
            if (!host.alive()) {
              return;
            }
            host.Drain();
            backend.Schedule(Minutes(2), [cl, victim]() {
              cl->brass_host(victim).Revive();
            });
          });
        }
        break;
      }
    }
  }

  // Counter snapshots so the row measures the composed window, not the
  // fixture warmup / subscription settle.
  auto counter = [&cluster](const char* name) {
    return cluster.metrics().GetCounter(name).value();
  };
  struct Snapshot {
    int64_t deliveries, conflated, shed, degraded, degrade_signals;
    int64_t pop_deliveries, pop_conflated, pop_shed, backbone_up, backbone_down;
  };
  const Snapshot base = {counter("brass.deliveries"),
                         counter("brass.conflated"),
                         counter("brass.shed"),
                         counter("brass.degraded_drops"),
                         counter("brass.degrade_signals"),
                         counter("burst.pop_deliveries"),
                         counter("burst.pop_conflated"),
                         counter("burst.pop_shed"),
                         counter("burst.pop_backbone_bytes_up"),
                         counter("burst.pop_backbone_bytes_down")};

  // ---- run ----
  SimTime elapsed = 0;
  if (diurnal != nullptr) {
    if (diurnal->at > 0) {
      sim.RunFor(diurnal->at);
      elapsed = diurnal->at;
    }
    DailyScenarioConfig daily_config;
    daily_config.duration = diurnal->duration;
    daily_config.user_limit = mix.daily_users;
    daily_config.host_upgrade_interval = 0;  // kHostUpgrades phases own this
    daily_config.streams_per_minute *= diurnal->load_scale;
    daily_config.typing_toggles_per_minute *= diurnal->load_scale;
    daily_config.comments_per_minute *= diurnal->load_scale;
    daily_config.messages_per_minute *= diurnal->load_scale;
    daily_config.stories_per_minute *= diurnal->load_scale;
    DailyScenario daily(&cluster, &fixture.graph, daily_config);
    daily.Run();
    elapsed += diurnal->duration;
  }
  if (spec.duration > elapsed) {
    sim.RunFor(spec.duration - elapsed);
  }
  sim.RunFor(spec.drain);

  // ---- the row ----
  ScenarioRow row;
  row.scenario = spec.name;
  row.scale = spec.scale;
  row.seed = spec.seed;
  row.fleet = static_cast<int64_t>(mix.daily_users + mix.viewers + mix.commenters +
                                   mix.livequery_viewers + mix.ticker_devices +
                                   (flash ? 2 : 0));

  const int64_t deliveries = counter("brass.deliveries") - base.deliveries;
  const int64_t conflated = counter("brass.conflated") - base.conflated;
  const int64_t shed = counter("brass.shed") - base.shed;
  const int64_t degraded = counter("brass.degraded_drops") - base.degraded;
  const int64_t pop_deliveries = counter("burst.pop_deliveries") - base.pop_deliveries;
  const int64_t pop_conflated = counter("burst.pop_conflated") - base.pop_conflated;
  const int64_t pop_shed = counter("burst.pop_shed") - base.pop_shed;
  const int64_t attempts = deliveries + conflated + shed + degraded + pop_deliveries +
                           pop_conflated + pop_shed;
  const double denom = attempts > 0 ? static_cast<double>(attempts) : 1.0;
  row.delivered = deliveries + pop_deliveries;
  row.shed_fraction = static_cast<double>(shed + pop_shed) / denom;
  row.conflated_fraction = static_cast<double>(conflated + pop_conflated) / denom;
  row.degraded_fraction = static_cast<double>(degraded) / denom;
  row.degrade_signals = counter("brass.degrade_signals") - base.degrade_signals;

  // Publish -> device latency of every device of every fleet: each device
  // records e2e.total_us.<app> off the payload's _createdAt stamp, the
  // histograms perf_bench pools too.
  Histogram latency;
  for (const auto& [app, registration] : cluster.app_registry()) {
    if (const Histogram* e2e = cluster.metrics().FindHistogram("e2e.total_us." + app)) {
      latency.Merge(*e2e);
    }
  }
  row.delivery_p50_ms = latency.Quantile(0.50) / 1e3;
  row.delivery_p99_ms = latency.Quantile(0.99) / 1e3;

  row.durable_published = published.total;
  if (!ticker_fleet.empty()) {
    if (mix.ticker_durable) {
      DurableTickerAudit audit =
          AuditDurableTicker(cluster, mix.ticker_channels, published.per_channel, seen);
      row.durable_lost = audit.lost;
      row.durable_duplicates = audit.duplicates;
      row.durable_log_ok = audit.log_matches_publishes;
      row.durability_ok =
          audit.lost == 0 && audit.duplicates == 0 && audit.log_matches_publishes;
    } else {
      // Best-effort ticker: no sequence numbers on the wire, so "lost" is
      // the shortfall vs expected deliveries; there is no guarantee to
      // audit, so durability_ok stays true.
      int64_t expected = 0;
      for (const auto& [d, channels] : seen) {
        (void)d;
        for (const auto& [channel, seqs] : channels) {
          (void)seqs;
          auto it = published.per_channel.find(channel);
          expected += it == published.per_channel.end() ? 0 : it->second;
        }
      }
      int64_t got = 0;
      for (int64_t payloads : ticker_payloads) got += payloads;
      row.durable_lost = expected - got;
    }
  }

  row.livequery_ok = cluster.livequery() == nullptr || cluster.livequery()->AuditAll();
  row.backbone_bytes = (counter("burst.pop_backbone_bytes_up") - base.backbone_up) +
                       (counter("burst.pop_backbone_bytes_down") - base.backbone_down);
  SubscriptionAudit subs = AuditSubscriptionDurability(cluster);
  row.subs_audited = static_cast<int64_t>(subs.audited);
  row.subs_lost = static_cast<int64_t>(subs.lost);
  row.events = sim.events_executed();
  return row;
}

}  // namespace bladerunner
