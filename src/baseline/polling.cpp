#include "src/baseline/polling.h"

#include "src/was/messages.h"
#include "src/was/resolvers.h"

namespace bladerunner {

// ---- LvcPollingClient ----

LvcPollingClient::LvcPollingClient(BladerunnerCluster* cluster, UserId user, RegionId region,
                                   DeviceProfile profile, ObjectId video, SimTime interval)
    : cluster_(cluster), ctx_(&cluster->sim()), user_(user), video_(video), interval_(interval) {
  polls_counter_ = &cluster_->metrics().GetCounter("poll.client_polls");
  empty_polls_counter_ = &cluster_->metrics().GetCounter("poll.empty_polls");
  latency_us_ = &cluster_->metrics().GetHistogram("poll.lvc_latency_us");
  channel_ = cluster_->DeviceWasChannel(ctx_, region, profile);
}

LvcPollingClient::~LvcPollingClient() { Stop(); }

void LvcPollingClient::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  // De-synchronize pollers: first poll after a random fraction of the
  // interval, as real clients start at random phases.
  timer_ = ctx_.Schedule(
      static_cast<SimTime>(ctx_.rng().Uniform(0.0, static_cast<double>(interval_))),
      [this]() { PollOnce(); });
}

void LvcPollingClient::Stop() {
  running_ = false;
  if (timer_ != kInvalidTimerId) {
    ctx_.Cancel(timer_);
    timer_ = kInvalidTimerId;
  }
}

void LvcPollingClient::ScheduleNext() {
  if (!running_) {
    return;
  }
  timer_ = ctx_.Schedule(interval_, [this]() { PollOnce(); });
}

void LvcPollingClient::PollOnce() {
  timer_ = kInvalidTimerId;
  if (!running_) {
    return;
  }
  polls_ += 1;
  polls_counter_->Increment();
  auto request = std::make_shared<WasQueryRequest>();
  request->query = CommentPollQuery(video_, watermark_);
  request->viewer = user_;
  channel_->Call("was.query", request, [this](RpcStatus status, MessagePtr response) {
    if (status == RpcStatus::kOk) {
      auto result = std::static_pointer_cast<WasQueryResponse>(response);
      CommentPollPage page =
          WalkCommentPollPage(result->data, &watermark_, &seen_, [this](SimTime created) {
            comments_seen_ += 1;
            if (created > 0) {
              latency_us_->Record(static_cast<double>(ctx_.Now() - created));
            }
          });
      if (page.fresh == 0) {
        empty_polls_ += 1;
        empty_polls_counter_->Increment();
      }
      if (page.full && running_) {
        // Backlog: page again immediately instead of waiting the interval.
        timer_ = ctx_.Schedule(Millis(50), [this]() { PollOnce(); });
        return;
      }
    }
    ScheduleNext();
  });
}

// ---- LvcServerPollAgent ----

LvcServerPollAgent::LvcServerPollAgent(BladerunnerCluster* cluster, UserId user, RegionId region,
                                       DeviceProfile profile, ObjectId video, SimTime interval)
    : cluster_(cluster),
      ctx_(&cluster->sim()),
      user_(user),
      video_(video),
      interval_(interval),
      last_mile_(cluster->topology().LastMileModel(profile)) {
  polls_counter_ = &cluster_->metrics().GetCounter("server_poll.polls");
  pushed_counter_ = &cluster_->metrics().GetCounter("server_poll.pushed");
  empty_polls_counter_ = &cluster_->metrics().GetCounter("server_poll.empty_polls");
  latency_us_ = &cluster_->metrics().GetHistogram("server_poll.lvc_latency_us");
  channel_ = cluster_->BackendWasChannel(region);
}

LvcServerPollAgent::~LvcServerPollAgent() { Stop(); }

void LvcServerPollAgent::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  timer_ = ctx_.Schedule(
      static_cast<SimTime>(ctx_.rng().Uniform(0.0, static_cast<double>(interval_))),
      [this]() { PollOnce(); });
}

void LvcServerPollAgent::Stop() {
  running_ = false;
  if (timer_ != kInvalidTimerId) {
    ctx_.Cancel(timer_);
    timer_ = kInvalidTimerId;
  }
}

void LvcServerPollAgent::ScheduleNext() {
  if (!running_) {
    return;
  }
  timer_ = ctx_.Schedule(interval_, [this]() { PollOnce(); });
}

void LvcServerPollAgent::PollOnce() {
  timer_ = kInvalidTimerId;
  if (!running_) {
    return;
  }
  polls_ += 1;
  polls_counter_->Increment();
  auto request = std::make_shared<WasQueryRequest>();
  request->query = CommentPollQuery(video_, watermark_);
  request->viewer = user_;
  channel_->Call("was.query", request, [this](RpcStatus status, MessagePtr response) {
    if (status == RpcStatus::kOk) {
      auto result = std::static_pointer_cast<WasQueryResponse>(response);
      CommentPollPage page =
          WalkCommentPollPage(result->data, &watermark_, &seen_, [this](SimTime created) {
            // Push to the device over the persistent connection: one
            // last-mile delivery delay from *now*.
            SimTime delivery = last_mile_.Sample(ctx_.rng());
            ctx_.Schedule(delivery, [this, created]() {
              comments_pushed_ += 1;
              pushed_counter_->Increment();
              if (created > 0) {
                latency_us_->Record(static_cast<double>(ctx_.Now() - created));
              }
            });
          });
      if (page.fresh == 0) {
        empty_polls_ += 1;
        empty_polls_counter_->Increment();
      }
      if (page.full && running_) {
        timer_ = ctx_.Schedule(Millis(50), [this]() { PollOnce(); });
        return;
      }
    }
    ScheduleNext();
  });
}

// ---- LvcTriggerClient ----

LvcTriggerClient::LvcTriggerClient(BladerunnerCluster* cluster, UserId user, RegionId region,
                                   DeviceProfile profile, ObjectId video,
                                   int64_t notifier_host_id)
    : cluster_(cluster),
      ctx_(&cluster->sim()),
      user_(user),
      video_(video),
      last_mile_(cluster->topology().LastMileModel(profile)),
      notifier_host_id_(notifier_host_id) {
  notifications_counter_ = &cluster_->metrics().GetCounter("trigger.notifications");
  polls_counter_ = &cluster_->metrics().GetCounter("trigger.polls");
  latency_us_ = &cluster_->metrics().GetHistogram("trigger.lvc_latency_us");
  poll_channel_ = cluster_->DeviceWasChannel(ctx_, region, profile);
  notify_rpc_.RegisterMethod("brass.event", [this](MessagePtr request,
                                                   RpcServer::Respond respond) {
    respond(std::make_shared<PylonAck>());
    (void)request;
    if (!running_) {
      return;
    }
    // Notify the device over the last mile; the device then polls.
    ctx_.Schedule(last_mile_.Sample(ctx_.rng()), [this]() { OnNotified(); });
  });
  cluster_->pylon()->RegisterSubscriberHost(notifier_host_id_, region, &notify_rpc_);
}

LvcTriggerClient::~LvcTriggerClient() {
  Stop();
  cluster_->pylon()->UnregisterSubscriberHost(notifier_host_id_);
}

void LvcTriggerClient::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  // Subscribe the notifier to the video's topic.
  Topic topic = LvcTopic(video_);
  PylonServer* server = cluster_->pylon()->RouteServer(topic);
  auto channel = std::make_shared<RpcChannel>(ctx_, server->rpc(), LatencyModel::IntraRegion());
  auto request = std::make_shared<PylonSubscribeRequest>();
  request->topic = topic;
  request->host_id = notifier_host_id_;
  request->subscribe = true;
  channel->Call("pylon.subscribe", request, [channel](RpcStatus, MessagePtr) {});
}

void LvcTriggerClient::Stop() { running_ = false; }

void LvcTriggerClient::OnNotified() {
  notifications_ += 1;
  notifications_counter_->Increment();
  if (poll_in_flight_) {
    poll_again_ = true;  // coalesce
    return;
  }
  PollOnce();
}

void LvcTriggerClient::PollOnce() {
  poll_in_flight_ = true;
  polls_ += 1;
  polls_counter_->Increment();
  auto request = std::make_shared<WasQueryRequest>();
  request->query = CommentPollQuery(video_, watermark_);
  request->viewer = user_;
  poll_channel_->Call("was.query", request, [this](RpcStatus status, MessagePtr response) {
    poll_in_flight_ = false;
    if (status == RpcStatus::kOk) {
      auto result = std::static_pointer_cast<WasQueryResponse>(response);
      CommentPollPage page =
          WalkCommentPollPage(result->data, &watermark_, &seen_, [this](SimTime created) {
            comments_seen_ += 1;
            if (created > 0) {
              latency_us_->Record(static_cast<double>(ctx_.Now() - created));
            }
          });
      if (page.full) {
        poll_again_ = true;
      }
    }
    if (poll_again_ && running_) {
      poll_again_ = false;
      PollOnce();
    }
  });
}

}  // namespace bladerunner
