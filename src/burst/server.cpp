#include "src/burst/server.h"

#include <cassert>

namespace bladerunner {

namespace {

// A one-delta batch built by move: a braced list would copy the delta, and
// its payload, out of its std::initializer_list.
std::vector<Delta> Batch(Delta delta) {
  std::vector<Delta> batch;
  batch.push_back(std::move(delta));
  return batch;
}

}  // namespace

void ServerStream::Push(std::vector<Delta> batch) { server_->SendBatch(*this, std::move(batch)); }

void ServerStream::PushData(Value payload, uint64_t seq, TraceContext trace) {
  Delta delta = Delta::Data(std::move(payload), seq);
  delta.trace = trace;
  Push(Batch(std::move(delta)));
}

void ServerStream::PushFlow(FlowStatus status, std::string detail) {
  Push(Batch(Delta::Flow(status, std::move(detail))));
}

void ServerStream::Rewrite(Value header) {
  Delta rewrite = Delta::Rewrite(header_, header);
  header_ = std::move(header);
  Push(Batch(std::move(rewrite)));
}

void ServerStream::Terminate(TerminateReason reason, std::string detail) {
  Push(Batch(Delta::Terminate(reason, std::move(detail))));
  // Notify the handler: the host must release its per-stream state (topic
  // subscriptions, application maps) regardless of who initiated the end.
  server_->EraseStream(key_, reason, /*notify_handler=*/true);
}

bool ServerStream::SendFrame(MessagePtr frame) {
  if (!attached()) {
    return false;
  }
  down_conn_->Send(std::move(frame));
  return true;
}

BurstServer::BurstServer(Simulator* sim, int64_t host_id, BurstServerHandler* handler,
                         BurstConfig config, MetricsRegistry* metrics)
    : ctx_(sim), host_id_(host_id), handler_(handler), config_(config), metrics_(metrics) {
  assert(ctx_.sim() != nullptr && handler_ != nullptr && metrics_ != nullptr);
  m_.host_crashes = &metrics_->GetCounter("burst.host_crashes");
  m_.host_drains = &metrics_->GetCounter("burst.host_drains");
  m_.server_proxy_disconnects = &metrics_->GetCounter("burst.server_proxy_disconnects");
  m_.server_pushes = &metrics_->GetCounter("burst.server_pushes");
  m_.server_pushes_dropped = &metrics_->GetCounter("burst.server_pushes_dropped");
  m_.server_stream_cold_resumes = &metrics_->GetCounter("burst.server_stream_cold_resumes");
  m_.server_stream_detaches = &metrics_->GetCounter("burst.server_stream_detaches");
  m_.server_stream_resumes = &metrics_->GetCounter("burst.server_stream_resumes");
  m_.server_stream_starts = &metrics_->GetCounter("burst.server_stream_starts");
}

BurstServer::~BurstServer() {
  for (auto& [key, stream] : streams_) {
    if (stream->gc_timer_ != kInvalidTimerId) {
      ctx_.Cancel(stream->gc_timer_);
    }
  }
  for (auto& [conn_id, end] : proxy_conns_) {
    end->set_handler(nullptr);
  }
}

void BurstServer::AttachProxyConnection(std::shared_ptr<ConnectionEnd> end) {
  assert(alive_);
  end->set_handler(this);
  proxy_conns_[end->connection_id()] = std::move(end);
}

void BurstServer::Drain() {
  if (!alive_) {
    return;
  }
  alive_ = false;
  m_.host_drains->Increment();
  for (auto& [conn_id, end] : proxy_conns_) {
    end->set_handler(nullptr);
    end->Close();  // graceful: proxies see kPeerClose and repair streams
  }
  proxy_conns_.clear();
  for (auto& [key, stream] : streams_) {
    if (stream->gc_timer_ != kInvalidTimerId) {
      ctx_.Cancel(stream->gc_timer_);
    }
  }
  streams_.clear();
}

void BurstServer::FailHost() {
  if (!alive_) {
    return;
  }
  alive_ = false;
  m_.host_crashes->Increment();
  for (auto& [conn_id, end] : proxy_conns_) {
    end->set_handler(nullptr);
    end->Fail();
  }
  proxy_conns_.clear();
  for (auto& [key, stream] : streams_) {
    if (stream->gc_timer_ != kInvalidTimerId) {
      ctx_.Cancel(stream->gc_timer_);
    }
  }
  streams_.clear();  // ephemeral state lost (§3.2)
}

ServerStream* BurstServer::FindStream(const StreamKey& key) {
  auto it = streams_.find(key);
  return it == streams_.end() ? nullptr : it->second.get();
}

void BurstServer::OnMessage(ConnectionEnd& on, MessagePtr message) {
  if (auto subscribe = std::dynamic_pointer_cast<SubscribeFrame>(message)) {
    HandleSubscribe(on, *subscribe);
  } else if (auto cancel = std::dynamic_pointer_cast<CancelFrame>(message)) {
    HandleCancel(*cancel);
  } else if (auto ack = std::dynamic_pointer_cast<AckFrame>(message)) {
    HandleAck(*ack);
  } else if (auto detached = std::dynamic_pointer_cast<StreamDetachedFrame>(message)) {
    HandleDetached(*detached);
  } else if (auto fetch = std::dynamic_pointer_cast<PopFetchFrame>(message)) {
    auto it = streams_.find(fetch->key);
    if (it != streams_.end()) {
      handler_->OnPopFetch(*it->second, *fetch);
    }
  }
}

void BurstServer::HandleSubscribe(ConnectionEnd& on, const SubscribeFrame& frame) {
  auto conn_it = proxy_conns_.find(on.connection_id());
  assert(conn_it != proxy_conns_.end());
  auto it = streams_.find(frame.key);
  if (it != streams_.end()) {
    // Re-attach of a stream whose state we retained: seamless resume.
    ServerStream& stream = *it->second;
    stream.down_conn_ = conn_it->second;
    stream.detached_ = false;
    if (stream.gc_timer_ != kInvalidTimerId) {
      ctx_.Cancel(stream.gc_timer_);
      stream.gc_timer_ = kInvalidTimerId;
    }
    // Prefer the header we hold (it includes our own rewrites); but a
    // client-side rewrite-carrying resubscribe wins if it is newer — the
    // stored copies were updated by the same rewrites, so they agree.
    stream.header_ = frame.header;
    m_.server_stream_resumes->Increment();
    // §4 axiom 2: "Once a stream has been re-established, BRASS informs
    // the device of this."
    stream.PushFlow(FlowStatus::kRecovered, "stream re-established");
    handler_->OnStreamResumed(stream);
    return;
  }
  auto stream = std::unique_ptr<ServerStream>(new ServerStream(this, frame.key));
  stream->header_ = frame.header;
  stream->body_ = frame.body;
  stream->down_conn_ = conn_it->second;
  stream->established_at_ = ctx_.Now();
  ServerStream& ref = *stream;
  streams_[frame.key] = std::move(stream);
  m_.server_stream_starts->Increment();
  if (frame.resubscribe) {
    // State was lost (crashed host or expired GC); the rewritten header
    // carries whatever the application needs to resume (§3.5 Resumption).
    // kRestarted — not kRecovered — so the app layer can tell a rebuilt
    // stream (possible gap unless a resume token covers it) from a seamless
    // re-attach.
    m_.server_stream_cold_resumes->Increment();
    ref.PushFlow(FlowStatus::kRestarted, "stream re-established (state rebuilt)");
  }
  handler_->OnStreamStarted(ref);
}

void BurstServer::HandleCancel(const CancelFrame& frame) {
  EraseStream(frame.key, TerminateReason::kCancelled, /*notify_handler=*/true);
}

void BurstServer::HandleAck(const AckFrame& frame) {
  auto it = streams_.find(frame.key);
  if (it == streams_.end()) {
    return;
  }
  if (frame.seq > it->second->last_ack_) {
    it->second->last_ack_ = frame.seq;
  }
  handler_->OnAck(*it->second, frame.seq);
}

void BurstServer::HandleDetached(const StreamDetachedFrame& frame) {
  auto it = streams_.find(frame.key);
  if (it == streams_.end()) {
    return;
  }
  DetachStream(*it->second, frame.reason);
}

void BurstServer::DetachStream(ServerStream& stream, const std::string& reason) {
  if (stream.detached_) {
    return;
  }
  stream.detached_ = true;
  stream.down_conn_ = nullptr;
  m_.server_stream_detaches->Increment();
  handler_->OnStreamDetached(stream, reason);
  // Keep state for a grace period so a reconnect can resume seamlessly.
  StreamKey key = stream.key_;
  stream.gc_timer_ = ctx_.Schedule(config_.server_stream_keep_timeout, [this, key]() {
    auto it = streams_.find(key);
    if (it != streams_.end() && it->second->detached_) {
      it->second->gc_timer_ = kInvalidTimerId;
      EraseStream(key, TerminateReason::kError, /*notify_handler=*/true);
    }
  });
}

void BurstServer::EraseStream(StreamKey key, TerminateReason reason, bool notify_handler) {
  auto it = streams_.find(key);
  if (it == streams_.end()) {
    return;
  }
  if (it->second->gc_timer_ != kInvalidTimerId) {
    ctx_.Cancel(it->second->gc_timer_);
  }
  streams_.erase(it);
  if (notify_handler) {
    handler_->OnStreamClosed(key, reason);
  }
}

void BurstServer::SendBatch(ServerStream& stream, std::vector<Delta> batch) {
  if (!stream.attached()) {
    // Best-effort: pushes during a detach window are dropped (§4); the
    // application's own recovery (acks, sync tokens) covers the gap.
    m_.server_pushes_dropped->Increment();
    return;
  }
  auto response = std::make_shared<ResponseFrame>();
  response->key = stream.key_;
  response->batch = std::move(batch);
  m_.server_pushes->Increment();
  stream.down_conn_->Send(response);
}

void BurstServer::OnDisconnect(ConnectionEnd& on, DisconnectReason reason) {
  uint64_t conn_id = on.connection_id();
  auto conn_it = proxy_conns_.find(conn_id);
  if (conn_it == proxy_conns_.end()) {
    return;
  }
  conn_it->second->set_handler(nullptr);
  proxy_conns_.erase(conn_it);
  m_.server_proxy_disconnects->Increment();
  // Detach every stream that was riding this connection. Collect keys
  // first: handler callbacks may erase streams while we iterate.
  std::vector<StreamKey> affected;
  for (auto& [key, stream] : streams_) {
    if (stream->down_conn_ != nullptr && stream->down_conn_->connection_id() == conn_id) {
      affected.push_back(key);
    }
  }
  for (const StreamKey& key : affected) {
    auto it = streams_.find(key);
    if (it != streams_.end()) {
      DetachStream(*it->second, std::string("proxy connection ") + ToString(reason));
    }
  }
}

}  // namespace bladerunner
