#include "src/burst/client.h"

#include <algorithm>
#include <cassert>

namespace bladerunner {

BurstClient::BurstClient(SimContext ctx, int64_t device_id, Connector connector,
                         Observer* observer, BurstConfig config, MetricsRegistry* metrics,
                         TraceCollector* trace)
    : ctx_(ctx),
      device_id_(device_id),
      connector_(std::move(connector)),
      observer_(observer),
      config_(config),
      metrics_(metrics),
      trace_(trace) {
  assert(ctx_.sim() != nullptr && observer_ != nullptr && metrics_ != nullptr && trace_ != nullptr);
  m_.client_cancels = &metrics_->GetCounter("burst.client_cancels");
  m_.client_data_deltas = &metrics_->GetCounter("burst.client_data_deltas");
  m_.client_duplicates_dropped = &metrics_->GetCounter("burst.client_duplicates_dropped");
  m_.client_redirects = &metrics_->GetCounter("burst.client_redirects");
  m_.client_resubscribes = &metrics_->GetCounter("burst.client_resubscribes");
  m_.client_subscribes = &metrics_->GetCounter("burst.client_subscribes");
  m_.device_connection_drops = &metrics_->GetCounter("burst.device_connection_drops");
  m_.device_observed_disconnects = &metrics_->GetCounter("burst.device_observed_disconnects");
  m_.device_reconnect_attempts = &metrics_->GetCounter("burst.device_reconnect_attempts");
  m_.radio_promotions = &metrics_->GetCounter("burst.radio_promotions");
  // A fleet-wide open-stream gauge, so samplers in the global LP never walk
  // (and race with) per-device state in other LPs.
  m_.active_streams = &metrics_->GetGauge("burst.active_streams");
}

BurstClient::~BurstClient() {
  if (reconnect_timer_ != kInvalidTimerId) {
    ctx_.Cancel(reconnect_timer_);
  }
  if (conn_ != nullptr) {
    conn_->set_handler(nullptr);
  }
}

void BurstClient::Connect() {
  if (connected() || connect_pending_) {
    return;
  }
  connect_pending_ = true;
  connector_(device_id_, [this](std::shared_ptr<ConnectionEnd> end) {
    connect_pending_ = false;
    if (end == nullptr) {
      // No POP reachable; retry from the backoff loop. The failure count is
      // bumped after scheduling so the first retry draws the base window and
      // each later one widens it.
      if (auto_reconnect_) {
        ScheduleReconnect();
      }
      reconnect_failures_ += 1;
      return;
    }
    if (connected() || !auto_reconnect_) {
      // An establishment finished after another one already connected us,
      // or the app went offline while the handshake was in flight. Keep
      // whatever state we're in; hang up the extra link.
      end->Close();
      return;
    }
    conn_ = std::move(end);
    reconnect_failures_ = 0;
    conn_->set_handler(this);
    observer_->OnConnectionStateChanged(true);
    ResubscribeAll();
  });
}

void BurstClient::Disconnect() {
  if (conn_ != nullptr) {
    conn_->Close();
    conn_->set_handler(nullptr);
    conn_ = nullptr;
  }
  for (auto& [sid, stream] : streams_) {
    stream.subscribed_on_current_conn = false;
  }
  observer_->OnConnectionStateChanged(false);
}

void BurstClient::SimulateConnectionDrop() {
  if (conn_ != nullptr) {
    // Fail() notifies *this side's peer* (the POP). The device-side half of
    // the drop is observed locally and immediately: the radio is gone.
    conn_->Fail();
    conn_->set_handler(nullptr);
    conn_ = nullptr;
    m_.device_connection_drops->Increment();
    for (auto& [sid, stream] : streams_) {
      stream.subscribed_on_current_conn = false;
      observer_->OnStreamFlowStatus(sid, FlowStatus::kDegraded, "connection dropped");
    }
    observer_->OnConnectionStateChanged(false);
    if (auto_reconnect_) {
      ScheduleReconnect();
    }
  }
}

uint64_t BurstClient::Subscribe(Value header, std::string body) {
  uint64_t sid = next_sid_++;
  ClientStream stream;
  stream.header = std::move(header);
  stream.body = std::move(body);
  stream.durable = StreamHeaderView(stream.header).durable();
  auto [it, inserted] = streams_.emplace(sid, std::move(stream));
  assert(inserted);
  m_.client_subscribes->Increment();
  m_.active_streams->Add(1.0);
  if (connected()) {
    SendSubscribe(sid, it->second, /*resubscribe=*/false);
  } else if (auto_reconnect_) {
    Connect();
  }
  return sid;
}

void BurstClient::Cancel(uint64_t sid) {
  auto it = streams_.find(sid);
  if (it == streams_.end()) {
    return;
  }
  if (connected() && it->second.subscribed_on_current_conn) {
    auto cancel = std::make_shared<CancelFrame>();
    cancel->key = StreamKey{device_id_, sid};
    SendFromDevice(std::move(cancel));
  }
  streams_.erase(it);
  m_.client_cancels->Increment();
  m_.active_streams->Add(-1.0);
}

void BurstClient::Ack(uint64_t sid, uint64_t seq) {
  auto it = streams_.find(sid);
  if (it == streams_.end() || !connected()) {
    return;
  }
  auto ack = std::make_shared<AckFrame>();
  ack->key = StreamKey{device_id_, sid};
  ack->seq = seq;
  SendFromDevice(std::move(ack));
}

const Value* BurstClient::HeaderOf(uint64_t sid) const {
  auto it = streams_.find(sid);
  return it == streams_.end() ? nullptr : &it->second.header;
}

void BurstClient::SendFromDevice(MessagePtr frame) {
  SimTime now = ctx_.Now();
  SimTime idle_for = now - last_uplink_activity_;
  last_uplink_activity_ = now;
  if (idle_for <= config_.radio_idle_threshold || config_.radio_promotion_ms <= 0.0) {
    conn_->Send(std::move(frame));
    return;
  }
  // The radio was idle: pay the promotion delay before the frame leaves
  // the device. The connection may drop in the meantime; the send is then
  // silently lost, exactly like a real wedged uplink.
  LatencyModel promotion{config_.radio_promotion_ms, config_.radio_promotion_sigma,
                         config_.radio_promotion_ms / 4.0};
  m_.radio_promotions->Increment();
  std::shared_ptr<ConnectionEnd> conn = conn_;
  ctx_.Schedule(promotion.Sample(ctx_.rng()), [conn, frame = std::move(frame)]() {
    conn->Send(frame);
  });
}

void BurstClient::SendSubscribe(uint64_t sid, ClientStream& stream, bool resubscribe) {
  auto subscribe = std::make_shared<SubscribeFrame>();
  subscribe->key = StreamKey{device_id_, sid};
  subscribe->header = stream.header;
  subscribe->body = stream.body;
  subscribe->resubscribe = resubscribe;
  SendFromDevice(std::move(subscribe));
  stream.subscribed_on_current_conn = true;
  stream.sent = true;
  if (resubscribe) {
    m_.client_resubscribes->Increment();
  }
}

void BurstClient::ResubscribeAll() {
  for (auto& [sid, stream] : streams_) {
    // Streams sent on an earlier connection resubscribe with their stored
    // (possibly rewritten) request — this is what makes sticky routing and
    // resumption tokens work with zero per-feature client logic (§3.5). A
    // stream created while this connection was coming up was never sent:
    // its first subscribe is not a resubscribe.
    SendSubscribe(sid, stream, /*resubscribe=*/stream.sent);
  }
}

SimTime BurstClient::DrawBackoff(int failures) {
  double lo = static_cast<double>(config_.reconnect_backoff_min);
  double hi = static_cast<double>(config_.reconnect_backoff_max);
  if (failures > 0) {
    double cap = static_cast<double>(
        std::max(config_.reconnect_backoff_cap, config_.reconnect_backoff_max));
    int shift = std::min(failures, 30);
    hi = std::min(hi * static_cast<double>(1u << shift), cap);
  }
  return static_cast<SimTime>(ctx_.rng().Uniform(lo, std::max(lo, hi)));
}

void BurstClient::ScheduleReconnect() {
  if (reconnect_scheduled_) {
    return;
  }
  reconnect_scheduled_ = true;
  SimTime backoff = DrawBackoff(reconnect_failures_);
  reconnect_timer_ = ctx_.Schedule(backoff, [this]() {
    reconnect_scheduled_ = false;
    reconnect_timer_ = kInvalidTimerId;
    if (!connected() && auto_reconnect_) {
      m_.device_reconnect_attempts->Increment();
      Connect();
    }
  });
}

void BurstClient::HandleResponse(const ResponseFrame& response) {
  uint64_t sid = response.key.sid;
  auto it = streams_.find(sid);
  if (it == streams_.end()) {
    return;  // stream cancelled locally while the response was in flight
  }
  // The batch is applied atomically: all deltas take effect before any
  // observer callback can re-enter the client.
  bool terminated = false;
  TerminateReason reason = TerminateReason::kComplete;
  std::string term_detail;
  for (const Delta& delta : response.batch) {
    if (delta.kind == DeltaKind::kRewrite) {
      delta.ApplyRewrite(it->second.header);
      it->second.durable = StreamHeaderView(it->second.header).durable();
    } else if (delta.kind == DeltaKind::kTermination) {
      terminated = true;
      reason = delta.reason;
      term_detail = delta.detail;
    }
  }
  uint64_t durable_ack_seq = 0;  // highest durable seq in this batch
  for (const Delta& delta : response.batch) {
    switch (delta.kind) {
      case DeltaKind::kData:
        if (it->second.durable && delta.seq > 0) {
          if (delta.seq <= it->second.last_durable_seq) {
            // Replay overlap after a reconnect: already delivered. Still
            // close the delivery span so traced live pushes don't leak.
            m_.client_duplicates_dropped->Increment();
            trace_->EndSpan(delta.trace, ctx_.Now());
            break;
          }
          it->second.last_durable_seq = delta.seq;
          durable_ack_seq = delta.seq;
        }
        m_.client_data_deltas->Increment();
        // The update has reached the device: close its "burst.deliver" span
        // (opened by the BRASS host when the push left the backend).
        trace_->EndSpan(delta.trace, ctx_.Now());
        observer_->OnStreamData(sid, delta.payload, delta.seq);
        break;
      case DeltaKind::kFlowStatus:
        observer_->OnStreamFlowStatus(sid, delta.status, delta.detail);
        break;
      case DeltaKind::kRewrite:
      case DeltaKind::kTermination:
        break;  // already applied above
    }
  }
  if (durable_ack_seq > 0 && connected() && !terminated) {
    // One transport-level ack per response frame advances the server's
    // acked watermark (and, periodically, the persisted resume token).
    Ack(sid, durable_ack_seq);
  }
  if (terminated) {
    if (reason == TerminateReason::kRedirect && connected()) {
      // Redirect (§3.5): re-issue the subscription at once using the
      // just-rewritten header; the proxies route it to the new target.
      m_.client_redirects->Increment();
      SendSubscribe(sid, it->second, /*resubscribe=*/true);
    } else {
      observer_->OnStreamTerminated(sid, reason, term_detail);
      streams_.erase(it);
      m_.active_streams->Add(-1.0);
    }
  }
}

void BurstClient::OnMessage(ConnectionEnd& on, MessagePtr message) {
  (void)on;
  last_uplink_activity_ = ctx_.Now();  // downlink traffic keeps the radio hot
  if (auto response = std::dynamic_pointer_cast<ResponseFrame>(message)) {
    HandleResponse(*response);
  }
}

void BurstClient::OnDisconnect(ConnectionEnd& on, DisconnectReason reason) {
  (void)on;
  (void)reason;
  conn_->set_handler(nullptr);
  conn_ = nullptr;
  m_.device_observed_disconnects->Increment();
  for (auto& [sid, stream] : streams_) {
    stream.subscribed_on_current_conn = false;
    observer_->OnStreamFlowStatus(sid, FlowStatus::kDegraded, "pop connection lost");
  }
  observer_->OnConnectionStateChanged(false);
  if (auto_reconnect_) {
    ScheduleReconnect();
  }
}

}  // namespace bladerunner
