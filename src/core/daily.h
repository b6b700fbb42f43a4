// DailyScenario: a full simulated day of Bladerunner traffic.
//
// Drives a population of users through diurnal online/offline sessions;
// online devices open request-streams (TI/LVC/Stories/AS/Messenger mixed,
// with Zipf-skewed video popularity and Table-2-consistent lifetimes),
// heartbeat, type, comment, message, and suffer last-mile connection drops.
// Optionally, BRASS hosts are periodically drained for "software upgrades"
// (the dominant cause of Fig. 10's proxy-induced reconnects).
//
// While running, per-minute samples are folded into 15-minute TimeSeries
// buckets — the exact bucketing convention of Fig. 8 and Fig. 10.

#ifndef BLADERUNNER_SRC_CORE_DAILY_H_
#define BLADERUNNER_SRC_CORE_DAILY_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/device.h"
#include "src/workload/diurnal.h"
#include "src/workload/lifetimes.h"
#include "src/workload/social_gen.h"

namespace bladerunner {

struct DailyScenarioConfig {
  SimTime duration = Hours(24);
  SimTime sample_interval = Minutes(1);

  // Online fraction over the day (the diurnal driver behind Fig. 8/10).
  double online_trough = 0.22;
  double online_peak = 0.45;
  double peak_hour = 16.0;
  SimTime mean_online_session = Minutes(70);

  // Stream opening rate per online user, per minute; lifetimes from the
  // unbiased Table 2 model, truncated by session end.
  double streams_per_minute = 3.0;
  size_t max_streams_per_device = 20;

  // Application mix for newly opened streams (normalized internally).
  double mix_typing = 0.33;
  double mix_lvc = 0.27;
  double mix_stories = 0.17;
  double mix_messenger = 0.15;
  double mix_active_status = 0.08;

  // Fraction of LVC streams that watch a *uniformly* chosen video (a post
  // scrolled past in the feed) rather than a Zipf-popular one; comments
  // still concentrate on the popular videos, so these subscriptions mostly
  // see zero updates — the Table 1 / Fig. 7 cold mass.
  double lvc_cold_fraction = 0.85;

  // Activity rates per online user, per minute.
  double typing_toggles_per_minute = 0.20;  // in the active conversation
  double comments_per_minute = 0.18;
  double messages_per_minute = 0.12;
  double stories_per_minute = 0.004;  // a story every ~4 online hours
  double zipf_s = 1.35;               // video popularity skew

  bool heartbeats = true;           // ONLINE heartbeat every 30s (drives AS)

  // Fraction of users who keep a presence (ActiveStatus) stream open while
  // online — the buddy-list UI is only visible on some surfaces, and
  // presence streams are inherently chatty (every friend heartbeat is an
  // event), so their population share shapes Fig. 7's 100+ bucket.
  double as_enabled_fraction = 0.30;
  bool connectivity_churn = true;   // last-mile drops at profile MTBF

  // BRASS host upgrade process: every interval, drain one host and revive
  // it two minutes later. 0 disables.
  SimTime host_upgrade_interval = 0;

  // Drive only the first `user_limit` graph users (0 = everyone). Composed
  // scenarios (src/workload/scenario.h) use this to reserve the graph's
  // tail users for their own device fleets — two agents for one user would
  // collide on StreamKey{device, sid}.
  size_t user_limit = 0;
};

class DailyScenario {
 public:
  DailyScenario(BladerunnerCluster* cluster, const SocialGraph* graph,
                DailyScenarioConfig config);
  ~DailyScenario();

  // Runs the full day (blocking; advances the cluster's simulator).
  void Run();

  // 15-minute-bucket series, valid after Run():
  //   sampled means:  "daily.active_streams_per_user"
  //   per-bucket sums (use RatePerMinute): "daily.subscriptions",
  //   "daily.publications", "daily.fanout", "daily.decisions",
  //   "daily.deliveries", "daily.drops", "daily.proxy_reconnects"
  const TimeSeries& Series(const std::string& name) const;

  // All per-stream records (closed streams plus a final snapshot of open
  // ones, closed_at = scenario end) from every BRASS host — Fig. 7 input.
  std::vector<StreamRecord> CollectStreamRecords() const;

  int num_users() const { return static_cast<int>(users_.size()); }
  // The device of the scenario's `idx`-th user, 0 <= idx < num_users().
  DeviceAgent& device(int idx) { return *users_[static_cast<size_t>(idx)].device; }

 private:
  struct UserState {
    UserId user = 0;
    std::unique_ptr<DeviceAgent> device;
    bool online = false;
    std::vector<ObjectId> threads;  // threads this user belongs to
    ObjectId conversation_thread = kInvalidObjectId;  // the session's active chat
    std::vector<uint64_t> open_streams;
    bool as_enabled = true;  // whether this user's surface shows presence
    bool has_messenger_stream = false;
    bool has_as_stream = false;
    bool has_stories_stream = false;
    TimerId session_timer = kInvalidTimerId;
    TimerId open_stream_timer = kInvalidTimerId;
    TimerId activity_timer = kInvalidTimerId;
  };

  double OnlineFraction(SimTime t) const;
  void ScheduleSessionTransition(size_t idx);
  void GoOnline(size_t idx);
  void GoOffline(size_t idx);
  void ScheduleStreamOpen(size_t idx);
  void OpenRandomStream(size_t idx);
  void ScheduleActivity(size_t idx);
  void DoRandomActivity(size_t idx);
  ObjectId PickVideo();
  void SamplerTick();
  void UpgradeTick();

  BladerunnerCluster* cluster_;
  SimContext ctx_;  // the global LP: sampler and host-upgrade ticks
  const SocialGraph* graph_;
  DailyScenarioConfig config_;
  DiurnalCurve online_curve_;
  StreamLifetimeModel lifetimes_;
  std::vector<UserState> users_;
  // Sampler handles resolved once at construction (docs/PERF.md): each tick
  // reads the source counter and adds the delta to the derived rate series.
  struct RateSampler {
    TimeSeries* series = nullptr;
    const Counter* counter = nullptr;
    int64_t last = 0;
  };
  TimeSeries* active_streams_series_ = nullptr;
  std::vector<RateSampler> rate_samplers_;
  SimTime started_at_ = 0;
  // Every timer scheduled outside UserState (sampler ticks, the upgrade
  // chain) — the destructor cancels whatever is still pending, because a
  // composed scenario keeps the simulator running after Run() returns.
  std::vector<TimerId> sampler_timers_;
  TimerId upgrade_timer_ = kInvalidTimerId;
  // Liveness token held by the (unbounded, untracked) stream-close timers;
  // cleared by the destructor so late closes no-op instead of firing into a
  // destroyed scenario.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_CORE_DAILY_H_
