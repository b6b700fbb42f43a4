// GCC 12 reports spurious -Wmaybe-uninitialized on std::variant-backed
// Value moves during vector growth under -O2 (a known false positive in
// GCC's uninit analysis for variants); suppress it for this file only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include "src/apps/active_status.h"

namespace bladerunner {

ActiveStatusApp::ActiveStatusApp(BrassRuntime& runtime, ActiveStatusConfig config)
    : BrassApplication(runtime), config_(config) {}

ActiveStatusApp::~ActiveStatusApp() {
  for (auto& [key, viewer] : viewers_) {
    if (viewer.batch_timer != kInvalidTimerId) {
      runtime().CancelTimer(viewer.batch_timer);
    }
  }
}

BrassAppFactory ActiveStatusApp::Factory(ActiveStatusConfig config) {
  return [config](BrassRuntime& runtime) {
    return std::make_unique<ActiveStatusApp>(runtime, config);
  };
}

BrassAppDescriptor ActiveStatusApp::Descriptor() {
  BrassAppDescriptor descriptor;
  descriptor.name = "AS";
  // Each batch is a diff against what the device last saw; collapsing two
  // batches would lose transitions, so batches queue but never conflate.
  descriptor.conflatable = false;
  return descriptor;
}

void ActiveStatusApp::OnStreamStarted(BrassStream& stream) {
  ViewerState viewer;
  viewer.stream = &stream;
  viewers_[stream.key] = std::move(viewer);
  ScheduleBatch(stream.key);
}

void ActiveStatusApp::OnStreamClosed(const StreamKey& key) {
  auto it = viewers_.find(key);
  if (it == viewers_.end()) {
    return;
  }
  if (it->second.batch_timer != kInvalidTimerId) {
    runtime().CancelTimer(it->second.batch_timer);
  }
  viewers_.erase(it);
}

void ActiveStatusApp::OnEvent(const Topic& topic, const UpdateEvent& event,
                              const std::vector<BrassStream*>& streams) {
  (void)topic;
  UserId user = event.metadata.Get("user").AsInt(0);
  if (user == 0) {
    return;
  }
  SimTime now = runtime().Now();
  for (BrassStream* stream : streams) {
    auto it = viewers_.find(stream->key);
    if (it == viewers_.end()) {
      continue;
    }
    // Decision accounting happens per examined event (Fig. 8): a heartbeat
    // that flips the friend to online will be delivered (in the next
    // batch); one that merely refreshes an already-online friend is
    // suppressed.
    auto seen = it->second.last_seen.find(user);
    bool was_online = seen != it->second.last_seen.end() &&
                      now - seen->second <= config_.online_ttl;
    runtime().CountDecision(!was_online);
    it->second.last_seen[user] = event.created_at;
    it->second.last_trace[user] = event.trace;
  }
}

void ActiveStatusApp::ScheduleBatch(const StreamKey& key) {
  auto it = viewers_.find(key);
  if (it == viewers_.end()) {
    return;
  }
  it->second.batch_timer = runtime().ScheduleTimer(config_.batch_interval, [this, key]() {
    PushBatch(key);
    ScheduleBatch(key);
  });
}

void ActiveStatusApp::PushBatch(const StreamKey& key) {
  auto it = viewers_.find(key);
  if (it == viewers_.end()) {
    return;
  }
  ViewerState& viewer = it->second;
  SimTime now = runtime().Now();

  // Compute the current online set (30 s TTL) and diff against what the
  // device last saw; push only when something changed.
  ValueList came_online;
  ValueList went_offline;
  SimTime oldest_transition = 0;
  // The batch aggregates many heartbeats; attribute it to the trace of the
  // oldest came-online transition (the one whose end-to-end latency the
  // delivery's created_at already measures).
  TraceContext oldest_trace;
  for (auto& [uid, last] : viewer.last_seen) {
    bool online = now - last <= config_.online_ttl;
    bool pushed_online = false;
    auto pushed = viewer.last_pushed.find(uid);
    if (pushed != viewer.last_pushed.end()) {
      pushed_online = pushed->second;
    }
    if (online != pushed_online) {
      if (online) {
        came_online.push_back(Value(uid));
        if (oldest_transition == 0 || last < oldest_transition) {
          oldest_transition = last;
          auto trace_it = viewer.last_trace.find(uid);
          oldest_trace = trace_it != viewer.last_trace.end() ? trace_it->second : TraceContext();
        }
      } else {
        went_offline.push_back(Value(uid));
      }
      viewer.last_pushed[uid] = online;
    }
  }
  if (came_online.empty() && went_offline.empty()) {
    return;
  }
  if (!viewer.stream->attached()) {
    return;
  }
  Value payload;
  payload.Set("__type", "ActiveStatusBatch");
  payload.Set("online", Value(std::move(came_online)));
  payload.Set("offline", Value(std::move(went_offline)));
  DeliverOptions deliver;
  deliver.event_created_at = oldest_transition;
  deliver.parent = oldest_trace;
  runtime().DeliverData(*viewer.stream, std::move(payload), deliver);
}

}  // namespace bladerunner
