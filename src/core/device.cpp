#include "src/core/device.h"

#include <cassert>

#include "src/was/messages.h"
#include "src/was/resolvers.h"

namespace bladerunner {

namespace {

// Device ids share the user-id space; each user has one device in the
// standard scenarios. Multi-device users can construct extra agents with
// distinct synthetic ids.
int64_t DeviceIdFor(UserId user) { return user; }

}  // namespace

DeviceAgent::DeviceAgent(BladerunnerCluster* cluster, UserId user, RegionId region,
                         DeviceProfile profile)
    : cluster_(cluster),
      ctx_(&cluster->sim(), cluster->DeviceLp(DeviceIdFor(user))),
      user_(user),
      region_(region),
      profile_(profile) {
  assert(cluster_ != nullptr);
  MetricsRegistry& metrics = cluster_->metrics();
  m_.was_queries = &metrics.GetCounter("device.was_queries");
  m_.was_mutations = &metrics.GetCounter("device.was_mutations");
  m_.subscriptions = &metrics.GetCounter("device.subscriptions");
  m_.drops_per_bucket = &metrics.GetTimeSeries("device.drops_per_bucket", Minutes(15));
  m_.payloads_received = &metrics.GetCounter("device.payloads_received");
  m_.messenger_order_violations = &metrics.GetCounter("device.messenger_order_violations");
  m_.degrade_to_poll_signals = &metrics.GetCounter("device.degrade_to_poll_signals");
  m_.resume_stream_signals = &metrics.GetCounter("device.resume_stream_signals");
  m_.fallback_pollers_started = &metrics.GetCounter("device.fallback_pollers_started");
  m_.fallback_polls = &metrics.GetCounter("device.fallback_polls");
  m_.fallback_comments = &metrics.GetCounter("device.fallback_comments");
  m_.streams_terminated = &metrics.GetCounter("device.streams_terminated");
  // Radio promotion is a cellular phenomenon: wifi devices wake cheaply,
  // 2G radios take seconds to promote to a data-capable state.
  BurstConfig burst_config = cluster_->config().burst;
  switch (profile) {
    case DeviceProfile::kWifi:
      burst_config.radio_promotion_ms *= 0.55;
      break;
    case DeviceProfile::kMobile4g:
      break;  // the configured default models a typical LTE radio
    case DeviceProfile::kMobile2g:
      burst_config.radio_promotion_ms *= 5.0;
      burst_config.radio_promotion_sigma = 0.6;
      break;
  }
  burst_ = std::make_unique<BurstClient>(ctx_, DeviceIdFor(user),
                                         cluster_->DeviceConnector(region, profile), this,
                                         burst_config, &cluster_->metrics(), &cluster_->trace());
  was_channel_ = cluster_->DeviceWasChannel(ctx_, region, profile);
}

DeviceAgent::~DeviceAgent() {
  StopHeartbeat();
  StopConnectivityChurn();
  for (auto& [sid, poller] : fallback_pollers_) {
    if (poller.timer != kInvalidTimerId) {
      ctx_.Cancel(poller.timer);
    }
  }
}

const DeviceAgent::AppE2eMetrics& DeviceAgent::E2eMetricsFor(const std::string& app) {
  auto it = e2e_metrics_.find(app);
  if (it != e2e_metrics_.end()) {
    return it->second;
  }
  MetricsRegistry& metrics = cluster_->metrics();
  AppE2eMetrics handles;
  handles.total_us = &metrics.GetHistogram("e2e.total_us." + app);
  handles.brass_to_device_us = &metrics.GetHistogram("e2e.brass_to_device_us." + app);
  return e2e_metrics_.emplace(app, handles).first->second;
}

void DeviceAgent::Query(const std::string& text, std::function<void(bool, Value)> callback) {
  auto request = std::make_shared<WasQueryRequest>();
  request->query = text;
  request->viewer = user_;
  m_.was_queries->Increment();
  auto cb = std::make_shared<std::function<void(bool, Value)>>(std::move(callback));
  was_channel_->Call("was.query", request, [cb](RpcStatus status, MessagePtr response) {
    if (status != RpcStatus::kOk) {
      (*cb)(false, Value(nullptr));
      return;
    }
    auto result = std::static_pointer_cast<WasQueryResponse>(response);
    (*cb)(result->errors.empty(), result->data);
  });
}

void DeviceAgent::Mutate(const std::string& text, std::function<void(bool, Value)> callback) {
  auto request = std::make_shared<WasMutateRequest>();
  request->mutation = text;
  request->viewer = user_;
  request->created_at = ctx_.Now();
  m_.was_mutations->Increment();
  auto cb = std::make_shared<std::function<void(bool, Value)>>(std::move(callback));
  was_channel_->Call("was.mutate", request, [cb](RpcStatus status, MessagePtr response) {
    if (*cb == nullptr) {
      return;
    }
    if (status != RpcStatus::kOk) {
      (*cb)(false, Value(nullptr));
      return;
    }
    auto result = std::static_pointer_cast<WasMutateResponse>(response);
    (*cb)(result->ok, result->data);
  });
}

uint64_t DeviceAgent::SubscribeRaw(const std::string& app, const std::string& subscription) {
  StreamHeader builder;
  builder.set_app(app).set_subscription(subscription).set_viewer(user_).set_region(region_);
  Value header = std::move(builder).Take();
  StartSubscribeTrace(&header);
  m_.subscriptions->Increment();
  return burst_->Subscribe(std::move(header));
}

void DeviceAgent::StartSubscribeTrace(Value* header) {
  // Root the subscription's trace at the device, before the subscribe frame
  // leaves: every later span's end minus this root's start is a
  // device-observed setup latency. The context rides in the header (and is
  // re-sent verbatim on resubscribes, keeping repaired streams joined).
  TraceContext root = cluster_->trace().StartTrace("subscribe", "device",
                                                   static_cast<int>(region_),
                                                   ctx_.Now());
  cluster_->trace().Annotate(root, "viewer", Value(user_));
  cluster_->trace().Annotate(root, "profile", Value(static_cast<int64_t>(profile_)));
  WriteContext(root, header);
}

uint64_t DeviceAgent::SubscribeLvc(ObjectId video) {
  uint64_t sid = SubscribeRaw("LVC", "subscription { liveVideoComments(videoId: " +
                                         std::to_string(video) + ") { id text author } }");
  lvc_videos_[sid] = video;  // the poll fallback needs the video id
  return sid;
}

uint64_t DeviceAgent::SubscribeActiveStatus() {
  return SubscribeRaw("AS", "subscription { activeStatus { online offline } }");
}

uint64_t DeviceAgent::SubscribeTyping(ObjectId thread) {
  return SubscribeRaw("TI", "subscription { typingIndicator(threadId: " +
                                std::to_string(thread) + ") { user typing } }");
}

uint64_t DeviceAgent::SubscribeStories() {
  return SubscribeRaw("Stories", "subscription { storiesTray { owner rank } }");
}

uint64_t DeviceAgent::SubscribeMailbox(uint64_t last_seq) {
  StreamHeader builder;
  builder.set_app("Messenger")
      .set_subscription("subscription { mailbox { id seq text } }")
      .set_viewer(user_)
      .set_region(region_);
  if (last_seq > 0) {
    builder.set_resume_token(static_cast<int64_t>(last_seq));
    last_messenger_seq_ = last_seq;
  }
  Value header = std::move(builder).Take();
  StartSubscribeTrace(&header);
  m_.subscriptions->Increment();
  return burst_->Subscribe(std::move(header));
}

uint64_t DeviceAgent::SubscribeTicker(int64_t channel) {
  return SubscribeRaw("Ticker", "subscription { ticker(channel: " + std::to_string(channel) +
                                    ") { seq data } }");
}

void DeviceAgent::PostComment(ObjectId video, const std::string& text,
                              const std::string& language) {
  Mutate("mutation { postComment(video: " + std::to_string(video) + ", text: \"" + text +
         "\", language: \"" + language + "\") { id } }");
}

void DeviceAgent::EditComment(ObjectId comment, const std::string& text) {
  Mutate("mutation { editComment(comment: " + std::to_string(comment) + ", text: \"" + text +
         "\") { id } }");
}

void DeviceAgent::SendMessage(ObjectId thread, const std::string& text) {
  Mutate("mutation { sendMessage(thread: " + std::to_string(thread) + ", text: \"" + text +
         "\") { id } }");
}

void DeviceAgent::SetTyping(ObjectId thread, bool typing) {
  Mutate("mutation { setTyping(thread: " + std::to_string(thread) +
         ", typing: " + (typing ? "true" : "false") + ") }");
}

void DeviceAgent::PostStory(const std::string& text) {
  Mutate("mutation { postStory(text: \"" + text + "\") { id } }");
}

void DeviceAgent::StartHeartbeat(SimTime interval) {
  heartbeat_enabled_ = true;
  heartbeat_interval_ = interval;
  ScheduleNextHeartbeat();
}

void DeviceAgent::StopHeartbeat() {
  heartbeat_enabled_ = false;
  if (heartbeat_timer_ != kInvalidTimerId) {
    ctx_.Cancel(heartbeat_timer_);
    heartbeat_timer_ = kInvalidTimerId;
  }
}

void DeviceAgent::ScheduleNextHeartbeat() {
  if (!heartbeat_enabled_) {
    return;
  }
  Mutate("mutation { heartbeatOnline }");
  heartbeat_timer_ = ctx_.Schedule(heartbeat_interval_, [this]() {
    heartbeat_timer_ = kInvalidTimerId;
    ScheduleNextHeartbeat();
  });
}

void DeviceAgent::StartConnectivityChurn() {
  churn_enabled_ = true;
  ScheduleNextDrop();
}

void DeviceAgent::StopConnectivityChurn() {
  churn_enabled_ = false;
  if (churn_timer_ != kInvalidTimerId) {
    ctx_.Cancel(churn_timer_);
    churn_timer_ = kInvalidTimerId;
  }
}

void DeviceAgent::ScheduleNextDrop() {
  if (!churn_enabled_) {
    return;
  }
  SimTime mtbf = cluster_->topology().LastMileMtbf(profile_);
  SimTime wait = SecondsF(ctx_.rng().Exponential(ToSeconds(mtbf)));
  churn_timer_ = ctx_.Schedule(wait, [this]() {
    churn_timer_ = kInvalidTimerId;
    if (burst_->connected()) {
      m_.drops_per_bucket->Add(ctx_.Now(), 1.0);
      burst_->SimulateConnectionDrop();
    }
    ScheduleNextDrop();
  });
}

void DeviceAgent::OnStreamData(uint64_t sid, const Value& payload, uint64_t seq) {
  payloads_received_ += 1;
  m_.payloads_received->Increment();

  const std::string& app = payload.Get("_app").AsString();
  SimTime now = ctx_.Now();
  SimTime created_at = payload.Get("_createdAt").AsInt(0);
  SimTime sent_at = payload.Get("_sentAt").AsInt(0);
  if (created_at > 0) {
    E2eMetricsFor(app).total_us->Record(static_cast<double>(now - created_at));
  }
  if (sent_at > 0) {
    E2eMetricsFor(app).brass_to_device_us->Record(static_cast<double>(now - sent_at));
  }
  if (app == "Messenger" && seq > 0) {
    if (seq <= last_messenger_seq_) {
      // Redelivery of something we already have — fine, idempotent.
    } else if (seq != last_messenger_seq_ + 1) {
      messenger_order_violations_ += 1;
      m_.messenger_order_violations->Increment();
      last_messenger_seq_ = seq;
    } else {
      last_messenger_seq_ = seq;
    }
    burst_->Ack(sid, last_messenger_seq_);
  }
  if (payload_hook_) {
    payload_hook_(sid, payload);
  }
}

void DeviceAgent::OnStreamFlowStatus(uint64_t sid, FlowStatus status, const std::string& detail) {
  (void)detail;
  switch (status) {
    case FlowStatus::kDegraded:
      flow_degraded_count_ += 1;
      break;
    case FlowStatus::kDegradeToPoll:
      degrade_to_poll_signals_ += 1;
      m_.degrade_to_poll_signals->Increment();
      StartFallbackPolling(sid);
      break;
    case FlowStatus::kResumeStream:
      resume_stream_signals_ += 1;
      m_.resume_stream_signals->Increment();
      StopFallbackPolling(sid);
      break;
    case FlowStatus::kRecovered:
      flow_recovered_count_ += 1;
      break;
    case FlowStatus::kRestarted:
      flow_restarted_count_ += 1;
      break;
  }
}

void DeviceAgent::StartFallbackPolling(uint64_t sid) {
  auto video_it = lvc_videos_.find(sid);
  if (video_it == lvc_videos_.end()) {
    // Only LVC subscriptions have a polling baseline to fall back to; for
    // anything else the degrade signal is advisory.
    return;
  }
  if (fallback_pollers_.count(sid) > 0) {
    return;
  }
  FallbackPoller poller;
  poller.video = video_it->second;
  // Start the watermark one interval back: the BRASS cleared its queue when
  // it degraded, so the comments most recently shed are re-discovered by
  // the first poll instead of lost.
  SimTime now = ctx_.Now();
  poller.watermark = now > fallback_poll_interval_ ? now - fallback_poll_interval_ : 0;
  fallback_pollers_[sid] = std::move(poller);
  m_.fallback_pollers_started->Increment();
  FallbackPollOnce(sid);
}

void DeviceAgent::StopFallbackPolling(uint64_t sid) {
  auto it = fallback_pollers_.find(sid);
  if (it == fallback_pollers_.end()) {
    return;
  }
  if (it->second.timer != kInvalidTimerId) {
    ctx_.Cancel(it->second.timer);
  }
  fallback_pollers_.erase(it);
}

void DeviceAgent::FallbackPollOnce(uint64_t sid) {
  auto it = fallback_pollers_.find(sid);
  if (it == fallback_pollers_.end()) {
    return;
  }
  it->second.timer = kInvalidTimerId;
  fallback_polls_ += 1;
  m_.fallback_polls->Increment();
  // The polling baseline's query and page walk, so degrade-to-poll really
  // is "fall back to the baseline" rather than a bespoke protocol.
  Query(CommentPollQuery(it->second.video, it->second.watermark),
        [this, sid](bool ok, Value data) {
          // Like the polling baseline, use whatever data came back even when
          // the response carries per-field errors (suppressed entries are
          // tombstones missing most selected fields).
          (void)ok;
          auto it2 = fallback_pollers_.find(sid);
          if (it2 == fallback_pollers_.end()) {
            return;  // resumed (or terminated) while the poll was in flight
          }
          FallbackPoller& poller = it2->second;
          CommentPollPage page =
              WalkCommentPollPage(data, &poller.watermark, &poller.seen, [this](SimTime) {
                fallback_comments_ += 1;
                m_.fallback_comments->Increment();
              });
          // A full page means a backlog remains; page again immediately.
          SimTime delay = page.full ? 0 : fallback_poll_interval_;
          poller.timer = ctx_.Schedule(delay, [this, sid]() { FallbackPollOnce(sid); });
        });
}

void DeviceAgent::OnStreamTerminated(uint64_t sid, TerminateReason reason,
                                     const std::string& detail) {
  (void)reason;
  (void)detail;
  StopFallbackPolling(sid);
  lvc_videos_.erase(sid);
  m_.streams_terminated->Increment();
}

}  // namespace bladerunner
