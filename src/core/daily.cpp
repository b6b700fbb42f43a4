#include "src/core/daily.h"

#include <algorithm>
#include <cassert>

namespace bladerunner {

DailyScenario::DailyScenario(BladerunnerCluster* cluster, const SocialGraph* graph,
                             DailyScenarioConfig config)
    : cluster_(cluster),
      ctx_(&cluster->sim()),
      graph_(graph),
      config_(config),
      online_curve_(config.online_trough, config.online_peak, config.peak_hour) {
  assert(cluster_ != nullptr && graph_ != nullptr);
  MetricsRegistry& m = cluster_->metrics();
  active_streams_series_ = &m.GetTimeSeries("daily.active_streams_per_user", Minutes(15));
  static constexpr struct {
    const char* series;
    const char* counter;
  } kRates[] = {
      {"daily.subscriptions", "device.subscriptions"},
      {"daily.publications", "pylon.publishes"},
      {"daily.fanout", "pylon.fanout_sends"},
      {"daily.decisions", "brass.decisions"},
      {"daily.deliveries", "brass.deliveries"},
      {"daily.drops", "burst.device_connection_drops"},
      {"daily.proxy_reconnects", "burst.proxy_induced_reconnects"},
      {"daily.pop_reconnects", "burst.pop_initiated_reconnects"},
  };
  for (const auto& rate : kRates) {
    rate_samplers_.push_back(RateSampler{&m.GetTimeSeries(rate.series, Minutes(15)),
                                         &m.GetCounter(rate.counter), 0});
  }
  size_t population = graph_->users.size();
  if (config_.user_limit > 0 && config_.user_limit < population) {
    population = config_.user_limit;
  }
  users_.resize(population);
  for (size_t i = 0; i < population; ++i) {
    UserState& state = users_[i];
    state.user = graph_->users[i];
    RegionId region = cluster_->topology().SampleRegion(cluster_->sim().rng());
    DeviceProfile profile = cluster_->topology().SampleProfile(cluster_->sim().rng());
    state.device = std::make_unique<DeviceAgent>(cluster_, state.user, region, profile);
    state.device->burst().SetAutoReconnect(false);  // managed by the session model
    state.as_enabled = cluster_->sim().rng().Bernoulli(config_.as_enabled_fraction);
  }
  for (const auto& [thread, members] : graph_->thread_members) {
    for (UserId member : members) {
      for (UserState& state : users_) {
        if (state.user == member) {
          state.threads.push_back(thread);
        }
      }
    }
  }
}

DailyScenario::~DailyScenario() {
  // Pending timers capture `this`. Run() only drains the simulator up to the
  // scenario's end, and a composed scenario (src/workload/scenario.cpp) keeps
  // running afterwards — so every timer still pending must be cancelled here
  // or it fires into a destroyed object. Cancel() of an already-fired timer
  // is a safe no-op, so stale handles need no bookkeeping.
  *alive_ = false;  // flips every outstanding stream-close timer to a no-op
  Simulator& sim = cluster_->sim();
  for (UserState& state : users_) {
    for (TimerId id : {state.session_timer, state.open_stream_timer, state.activity_timer}) {
      if (id != kInvalidTimerId) {
        sim.Cancel(id);
      }
    }
  }
  for (TimerId id : sampler_timers_) {
    sim.Cancel(id);
  }
  if (upgrade_timer_ != kInvalidTimerId) {
    sim.Cancel(upgrade_timer_);
  }
}

double DailyScenario::OnlineFraction(SimTime t) const { return online_curve_.At(t); }

void DailyScenario::Run() {
  started_at_ = cluster_->sim().Now();
  // Seed initial online population and session processes.
  for (size_t i = 0; i < users_.size(); ++i) {
    if (cluster_->sim().rng().Bernoulli(OnlineFraction(started_at_))) {
      GoOnline(i);
    } else {
      ScheduleSessionTransition(i);
    }
  }
  // Per-minute sampler.
  SimTime end = started_at_ + config_.duration;
  for (SimTime t = started_at_ + config_.sample_interval; t <= end;
       t += config_.sample_interval) {
    sampler_timers_.push_back(ctx_.ScheduleAt(t, [this]() { SamplerTick(); }));
  }
  if (config_.host_upgrade_interval > 0) {
    upgrade_timer_ = ctx_.Schedule(config_.host_upgrade_interval, [this]() { UpgradeTick(); });
  }
  cluster_->sim().RunUntil(end);
  // Tear down cleanly so open-stream records have final event counts.
  for (size_t i = 0; i < users_.size(); ++i) {
    if (users_[i].online) {
      GoOffline(i);
    }
  }
}

void DailyScenario::ScheduleSessionTransition(size_t idx) {
  // All per-user timers (session, stream-open, activity) run in the user's
  // device LP: they mutate device state, which must only be touched from
  // the LP that owns it. The backoff draws use the executing LP's rng, so
  // each device group's session process is a deterministic function of the
  // seed regardless of thread count.
  UserState& state = users_[idx];
  SimContext ctx = state.device->ctx();
  Rng& rng = ctx.rng();
  SimTime wait;
  if (state.online) {
    wait = SecondsF(rng.Exponential(ToSeconds(config_.mean_online_session)));
  } else {
    // Offline durations chosen so the steady-state online fraction tracks
    // the diurnal curve: p = on / (on + off)  =>  off = on * (1-p) / p.
    double p = std::clamp(OnlineFraction(ctx.Now()), 0.03, 0.97);
    double off_mean = ToSeconds(config_.mean_online_session) * (1.0 - p) / p;
    wait = SecondsF(rng.Exponential(off_mean));
  }
  state.session_timer = ctx.Schedule(wait, [this, idx]() {
    users_[idx].session_timer = kInvalidTimerId;
    if (cluster_->sim().Now() >= started_at_ + config_.duration) {
      return;
    }
    if (users_[idx].online) {
      GoOffline(idx);
      ScheduleSessionTransition(idx);
    } else {
      GoOnline(idx);
    }
  });
}

void DailyScenario::GoOnline(size_t idx) {
  UserState& state = users_[idx];
  state.online = true;
  // One conversation is active per session; typing and messages happen
  // there. Other threads stay dormant — which is why most TypingIndicator
  // and Messenger subscriptions see no updates at all (Fig. 7).
  if (!state.threads.empty()) {
    state.conversation_thread =
        state.threads[state.device->ctx().rng().Index(state.threads.size())];
  }
  state.device->burst().SetAutoReconnect(true);
  state.device->burst().Connect();
  if (config_.heartbeats) {
    state.device->StartHeartbeat();
  }
  if (config_.connectivity_churn) {
    state.device->StartConnectivityChurn();
  }
  ScheduleStreamOpen(idx);
  ScheduleActivity(idx);
  ScheduleSessionTransition(idx);
}

void DailyScenario::GoOffline(size_t idx) {
  UserState& state = users_[idx];
  state.online = false;
  if (state.open_stream_timer != kInvalidTimerId) {
    cluster_->sim().Cancel(state.open_stream_timer);
    state.open_stream_timer = kInvalidTimerId;
  }
  if (state.activity_timer != kInvalidTimerId) {
    cluster_->sim().Cancel(state.activity_timer);
    state.activity_timer = kInvalidTimerId;
  }
  state.device->StopHeartbeat();
  state.device->StopConnectivityChurn();
  for (uint64_t sid : state.open_streams) {
    state.device->CancelStream(sid);
  }
  state.open_streams.clear();
  state.has_messenger_stream = false;
  state.has_as_stream = false;
  state.has_stories_stream = false;
  state.device->burst().SetAutoReconnect(false);
  state.device->burst().Disconnect();
}

void DailyScenario::ScheduleStreamOpen(size_t idx) {
  UserState& state = users_[idx];
  if (!state.online || config_.streams_per_minute <= 0.0) {
    return;
  }
  SimContext ctx = state.device->ctx();
  double mean_seconds = 60.0 / config_.streams_per_minute;
  SimTime wait = SecondsF(ctx.rng().Exponential(mean_seconds));
  state.open_stream_timer = ctx.Schedule(wait, [this, idx]() {
    users_[idx].open_stream_timer = kInvalidTimerId;
    if (!users_[idx].online) {
      return;
    }
    OpenRandomStream(idx);
    ScheduleStreamOpen(idx);
  });
}

ObjectId DailyScenario::PickVideo() {
  if (graph_->videos.empty()) {
    return kInvalidObjectId;
  }
  int64_t rank = cluster_->sim().rng().Zipf(static_cast<int64_t>(graph_->videos.size()),
                                            config_.zipf_s);
  return graph_->videos[static_cast<size_t>(rank)];
}

void DailyScenario::OpenRandomStream(size_t idx) {
  UserState& state = users_[idx];
  if (state.open_streams.size() >= config_.max_streams_per_device) {
    return;
  }
  SimContext ctx = state.device->ctx();
  Rng& rng = ctx.rng();
  double total = config_.mix_typing + config_.mix_lvc + config_.mix_stories +
                 config_.mix_messenger + config_.mix_active_status;
  double u = rng.Uniform() * total;

  // Ambient singletons (presence, story tray, mailbox) stay open for the
  // whole session; content streams (TI, LVC) live Table-2 lifetimes.
  bool session_long = false;
  uint64_t sid = 0;
  if ((u -= config_.mix_typing) < 0.0 && !state.threads.empty()) {
    sid = state.device->SubscribeTyping(state.threads[rng.Index(state.threads.size())]);
  } else if ((u -= config_.mix_lvc) < 0.0) {
    ObjectId video = rng.Bernoulli(config_.lvc_cold_fraction) && !graph_->videos.empty()
                         ? graph_->videos[rng.Index(graph_->videos.size())]
                         : PickVideo();
    sid = state.device->SubscribeLvc(video);
  } else if ((u -= config_.mix_stories) < 0.0 && !state.has_stories_stream) {
    sid = state.device->SubscribeStories();
    state.has_stories_stream = true;
    session_long = true;
  } else if ((u -= config_.mix_messenger) < 0.0 && !state.has_messenger_stream) {
    sid = state.device->SubscribeMailbox(state.device->last_messenger_seq());
    state.has_messenger_stream = true;
    session_long = true;
  } else if (!state.has_as_stream && state.as_enabled) {
    sid = state.device->SubscribeActiveStatus();
    state.has_as_stream = true;
    session_long = true;
  } else {
    // Singleton already open; fall back to a fresh LVC stream on a
    // uniformly chosen (usually quiet) video.
    sid = state.device->SubscribeLvc(graph_->videos.empty()
                                         ? kInvalidObjectId
                                         : graph_->videos[rng.Index(graph_->videos.size())]);
  }
  if (sid == 0) {
    return;
  }
  state.open_streams.push_back(sid);
  if (session_long) {
    return;  // closed by GoOffline at session end
  }
  SimTime lifetime = lifetimes_.SampleUnbiased(rng);
  // Stream-close timers are one-per-open-stream and can land a full
  // lifetime after the scenario ends, so instead of tracking an unbounded
  // set of ids they hold the liveness token and no-op once it is cleared.
  ctx.Schedule(lifetime, [this, idx, sid, alive = alive_]() {
    if (!*alive) {
      return;
    }
    UserState& s = users_[idx];
    auto it = std::find(s.open_streams.begin(), s.open_streams.end(), sid);
    if (it == s.open_streams.end()) {
      return;  // session ended first
    }
    s.open_streams.erase(it);
    s.device->CancelStream(sid);
  });
}

void DailyScenario::ScheduleActivity(size_t idx) {
  UserState& state = users_[idx];
  if (!state.online) {
    return;
  }
  double per_minute = config_.typing_toggles_per_minute + config_.comments_per_minute +
                      config_.messages_per_minute + config_.stories_per_minute;
  if (per_minute <= 0.0) {
    return;
  }
  SimContext ctx = state.device->ctx();
  SimTime wait = SecondsF(ctx.rng().Exponential(60.0 / per_minute));
  state.activity_timer = ctx.Schedule(wait, [this, idx]() {
    users_[idx].activity_timer = kInvalidTimerId;
    if (!users_[idx].online) {
      return;
    }
    DoRandomActivity(idx);
    ScheduleActivity(idx);
  });
}

void DailyScenario::DoRandomActivity(size_t idx) {
  UserState& state = users_[idx];
  Rng& rng = state.device->ctx().rng();
  double total = config_.typing_toggles_per_minute + config_.comments_per_minute +
                 config_.messages_per_minute + config_.stories_per_minute;
  double u = rng.Uniform() * total;
  if ((u -= config_.typing_toggles_per_minute) < 0.0) {
    if (state.conversation_thread != kInvalidObjectId) {
      state.device->SetTyping(state.conversation_thread, rng.Bernoulli(0.5));
    }
  } else if ((u -= config_.comments_per_minute) < 0.0) {
    ObjectId video = PickVideo();
    if (video != kInvalidObjectId) {
      state.device->PostComment(video, "c", graph_->language.at(state.user));
    }
  } else if ((u -= config_.messages_per_minute) < 0.0) {
    if (state.conversation_thread != kInvalidObjectId) {
      state.device->SendMessage(state.conversation_thread, "m");
    }
  } else {
    state.device->PostStory("s");
  }
}

void DailyScenario::SamplerTick() {
  SimTime now = cluster_->sim().Now() - started_at_;

  // The sampler runs in the global LP; walking per-device stream maps
  // would read other LPs' state mid-round. BurstClients maintain a
  // fleet-wide gauge instead, whose updates from other LPs are flushed at
  // round barriers — so this read is race-free and consistent as of the
  // last barrier.
  double active_streams = cluster_->metrics().GetGauge("burst.active_streams").value();
  active_streams_series_->Sample(now, active_streams / static_cast<double>(users_.size()));

  for (RateSampler& rate : rate_samplers_) {
    int64_t value = rate.counter->value();
    rate.series->Add(now, static_cast<double>(value - rate.last));
    rate.last = value;
  }
}

void DailyScenario::UpgradeTick() {
  // Drain one random alive host (software upgrade / rebalancing), revive
  // it two minutes later; reschedule the next upgrade.
  std::vector<size_t> alive;
  for (size_t i = 0; i < cluster_->NumBrassHosts(); ++i) {
    if (cluster_->brass_host(i).alive()) {
      alive.push_back(i);
    }
  }
  if (alive.size() > 1) {
    size_t victim = alive[cluster_->sim().rng().Index(alive.size())];
    cluster_->brass_host(victim).Drain();
    // The revive must outlive this DailyScenario (it may land after the
    // scenario's end), so it captures the cluster, not `this`.
    BladerunnerCluster* cluster = cluster_;
    ctx_.Schedule(Minutes(2), [cluster, victim]() {
      cluster->brass_host(victim).Revive();
    });
  }
  if (cluster_->sim().Now() < started_at_ + config_.duration) {
    upgrade_timer_ = ctx_.Schedule(config_.host_upgrade_interval, [this]() { UpgradeTick(); });
  }
}

const TimeSeries& DailyScenario::Series(const std::string& name) const {
  const TimeSeries* series = cluster_->metrics().FindTimeSeries(name);
  static const TimeSeries kEmpty(Minutes(15));
  return series != nullptr ? *series : kEmpty;
}

std::vector<StreamRecord> DailyScenario::CollectStreamRecords() const {
  std::vector<StreamRecord> records;
  SimTime end = cluster_->sim().Now();
  for (size_t i = 0; i < cluster_->NumBrassHosts(); ++i) {
    const BrassHost& host = const_cast<BladerunnerCluster*>(cluster_)->brass_host(i);
    for (const StreamRecord& record : host.closed_stream_records()) {
      records.push_back(record);
    }
    for (StreamRecord record : host.OpenStreamRecords()) {
      record.closed_at = end;
      records.push_back(record);
    }
  }
  return records;
}

}  // namespace bladerunner
