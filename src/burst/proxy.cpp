#include "src/burst/proxy.h"

#include <cassert>
#include <vector>

namespace bladerunner {

ReverseProxy::ReverseProxy(Simulator* sim, ProxyId proxy_id, RegionId region,
                           BurstServerDirectory* directory, MetricsRegistry* metrics,
                           TraceCollector* trace)
    : ctx_(sim),
      proxy_id_(proxy_id),
      region_(region),
      directory_(directory),
      metrics_(metrics),
      trace_(trace) {
  assert(ctx_.sim() != nullptr && directory_ != nullptr && metrics_ != nullptr);
  m_.proxy_failures = &metrics_->GetCounter("burst.proxy_failures");
  m_.proxy_host_disconnects = &metrics_->GetCounter("burst.proxy_host_disconnects");
  m_.proxy_induced_reconnects = &metrics_->GetCounter("burst.proxy_induced_reconnects");
  m_.proxy_pop_disconnects = &metrics_->GetCounter("burst.proxy_pop_disconnects");
}

void ReverseProxy::AttachPopConnection(std::shared_ptr<ConnectionEnd> end) {
  assert(alive_);
  end->set_handler(this);
  uint64_t conn_id = end->connection_id();
  pop_conns_[conn_id] = PopConn{std::move(end), {}};
}

void ReverseProxy::FailProxy() {
  if (!alive_) {
    return;
  }
  alive_ = false;
  m_.proxy_failures->Increment();
  for (auto& [conn_id, pop] : pop_conns_) {
    pop.end->set_handler(nullptr);
    pop.end->Fail();
  }
  pop_conns_.clear();
  for (auto& [host_id, host] : host_conns_) {
    host.end->set_handler(nullptr);
    host.end->Fail();
  }
  host_conns_.clear();
  host_by_conn_.clear();
  streams_.clear();
}

ReverseProxy::HostConn* ReverseProxy::EnsureHostConn(int64_t host_id) {
  auto it = host_conns_.find(host_id);
  if (it != host_conns_.end() && it->second.end->open()) {
    return &it->second;
  }
  std::shared_ptr<ConnectionEnd> end = directory_->ConnectToHost(this, host_id);
  if (end == nullptr) {
    return nullptr;
  }
  end->set_handler(this);
  HostConn conn;
  conn.end = std::move(end);
  conn.host_id = host_id;
  if (it != host_conns_.end()) {
    conn.streams = std::move(it->second.streams);
    host_by_conn_.erase(it->second.end->connection_id());
    host_conns_.erase(it);
  }
  auto [ins, ok] = host_conns_.emplace(host_id, std::move(conn));
  assert(ok);
  host_by_conn_[ins->second.end->connection_id()] = host_id;
  return &ins->second;
}

int64_t ReverseProxy::RouteHost(const Value& header) const {
  // Sticky routing first (§3.5): a BRASS-rewritten header names the host
  // that previously serviced the stream; honor it while the host lives.
  StreamHeaderView view(header);
  int64_t sticky = view.brass_host();
  if (sticky != 0 && directory_->IsHostAlive(sticky)) {
    return sticky;
  }
  return directory_->PickHost(view);
}

void ReverseProxy::OnMessage(ConnectionEnd& on, MessagePtr message) {
  uint64_t conn_id = on.connection_id();
  if (pop_conns_.find(conn_id) != pop_conns_.end()) {
    HandlePopFrame(on, message);
  } else if (host_by_conn_.find(conn_id) != host_by_conn_.end()) {
    HandleHostFrame(on, message);
  }
}

void ReverseProxy::HandlePopFrame(ConnectionEnd& on, const MessagePtr& message) {
  uint64_t conn_id = on.connection_id();
  if (auto subscribe = std::dynamic_pointer_cast<SubscribeFrame>(message)) {
    // Instant hop marker: the subscribe passed through this proxy. The
    // context rides in the header the device (or a repairing POP) sent.
    if (trace_ != nullptr) {
      TraceContext ctx = ContextFromValue(subscribe->header);
      if (ctx.valid()) {
        TraceContext hop =
            trace_->RecordSpan(ctx, "burst.proxy", "burst", region_, ctx_.Now(), ctx_.Now());
        trace_->Annotate(hop, "proxy", Value(static_cast<int64_t>(proxy_id_.value)));
      }
    }
    StreamState state;
    state.header = subscribe->header;
    state.body = subscribe->body;
    state.pop_conn = conn_id;
    state.host_id = RouteHost(subscribe->header);
    // A subscribe for a key already tracked (device reconnect through a
    // different POP connection, or a re-route to another host) replaces the
    // stream state below; detach the old route's bookkeeping first, or the
    // key lingers in the old host/POP stream sets and that host's later
    // disconnect would spuriously degrade and duplicate this stream.
    auto existing = streams_.find(subscribe->key);
    if (existing != streams_.end()) {
      if (existing->second.pop_conn != conn_id) {
        auto old_pop = pop_conns_.find(existing->second.pop_conn);
        if (old_pop != pop_conns_.end()) {
          old_pop->second.streams.erase(subscribe->key);
        }
      }
      if (existing->second.host_id != state.host_id) {
        auto old_host = host_conns_.find(existing->second.host_id);
        if (old_host != host_conns_.end()) {
          old_host->second.streams.erase(subscribe->key);
        }
      }
    }
    pop_conns_[conn_id].streams.insert(subscribe->key);
    auto [it, inserted] = streams_.insert_or_assign(subscribe->key, std::move(state));
    (void)inserted;
    if (it->second.host_id == 0) {
      TerminateDownstream(subscribe->key, TerminateReason::kError, "no BRASS host available");
      RemoveStream(subscribe->key);
      return;
    }
    ForwardSubscribeToHost(subscribe->key, it->second, subscribe->resubscribe);
    return;
  }
  if (auto cancel = std::dynamic_pointer_cast<CancelFrame>(message)) {
    auto it = streams_.find(cancel->key);
    if (it != streams_.end()) {
      auto host = host_conns_.find(it->second.host_id);
      if (host != host_conns_.end()) {
        host->second.end->Send(cancel);
      }
      RemoveStream(cancel->key);
    }
    return;
  }
  if (auto ack = std::dynamic_pointer_cast<AckFrame>(message)) {
    auto it = streams_.find(ack->key);
    if (it != streams_.end()) {
      auto host = host_conns_.find(it->second.host_id);
      if (host != host_conns_.end()) {
        host->second.end->Send(ack);
      }
    }
    return;
  }
  if (auto fetch = std::dynamic_pointer_cast<PopFetchFrame>(message)) {
    // Routed like an Ack: along the representative stream's host leg. The
    // BRASS host answers with a PopFillFrame over the same connection.
    auto it = streams_.find(fetch->key);
    if (it != streams_.end()) {
      auto host = host_conns_.find(it->second.host_id);
      if (host != host_conns_.end()) {
        host->second.end->Send(fetch);
      }
    }
    return;
  }
  if (auto detached = std::dynamic_pointer_cast<StreamDetachedFrame>(message)) {
    // Upstream propagation of a device-side loss (§4 axiom 1).
    auto it = streams_.find(detached->key);
    if (it != streams_.end()) {
      auto host = host_conns_.find(it->second.host_id);
      if (host != host_conns_.end()) {
        host->second.end->Send(detached);
      }
      RemoveStream(detached->key);
    }
    return;
  }
}

void ReverseProxy::HandleHostFrame(ConnectionEnd& on, const MessagePtr& message) {
  (void)on;
  auto response = std::dynamic_pointer_cast<ResponseFrame>(message);
  if (response == nullptr) {
    if (auto envelope = std::dynamic_pointer_cast<EnvelopeFrame>(message)) {
      ForwardEnvelope(envelope);
    } else if (auto fill = std::dynamic_pointer_cast<PopFillFrame>(message)) {
      // Forward down along the POP connection of the stream the fetch went
      // up through; the POP fans the payload out to its waiting streams.
      auto it = streams_.find(fill->key);
      if (it != streams_.end()) {
        auto pop = pop_conns_.find(it->second.pop_conn);
        if (pop != pop_conns_.end()) {
          pop->second.end->Send(fill);
        }
      }
    }
    return;
  }
  auto it = streams_.find(response->key);
  if (it == streams_.end()) {
    return;
  }
  bool terminated = false;
  for (const Delta& delta : response->batch) {
    if (delta.kind == DeltaKind::kRewrite) {
      delta.ApplyRewrite(it->second.header);
    } else if (delta.kind == DeltaKind::kTermination) {
      terminated = true;
    } else if (delta.kind == DeltaKind::kData && trace_ != nullptr && delta.trace.valid()) {
      // Instant hop marker on the data path (child of "burst.deliver").
      TraceContext hop = trace_->RecordSpan(delta.trace, "burst.proxy", "burst", region_,
                                            ctx_.Now(), ctx_.Now());
      trace_->Annotate(hop, "proxy", Value(static_cast<int64_t>(proxy_id_.value)));
    }
  }
  auto pop = pop_conns_.find(it->second.pop_conn);
  if (pop != pop_conns_.end()) {
    pop->second.end->Send(response);
  }
  if (terminated) {
    RemoveStream(response->key);
  }
}

void ReverseProxy::ForwardEnvelope(const std::shared_ptr<EnvelopeFrame>& frame) {
  // Split the frame by POP connection: each POP gets one frame listing its
  // own streams. A stream the proxy no longer knows is dropped, like a
  // response for an unknown stream.
  std::map<uint64_t, std::vector<StreamKey>> by_pop;
  for (const StreamKey& key : frame->streams) {
    auto it = streams_.find(key);
    if (it != streams_.end()) {
      by_pop[it->second.pop_conn].push_back(key);
    }
  }
  for (auto& [conn_id, keys] : by_pop) {
    auto pop = pop_conns_.find(conn_id);
    if (pop == pop_conns_.end()) {
      continue;
    }
    if (keys.size() == frame->streams.size()) {
      pop->second.end->Send(frame);  // every stream sits on this POP
      continue;
    }
    auto part = std::make_shared<EnvelopeFrame>(*frame);
    part->streams = std::move(keys);
    pop->second.end->Send(part);
  }
}

void ReverseProxy::ForwardSubscribeToHost(const StreamKey& key, StreamState& state,
                                          bool resubscribe) {
  HostConn* host = EnsureHostConn(state.host_id);
  if (host == nullptr) {
    TerminateDownstream(key, TerminateReason::kError, "BRASS host unreachable");
    RemoveStream(key);
    return;
  }
  host->streams.insert(key);
  auto subscribe = std::make_shared<SubscribeFrame>();
  subscribe->key = key;
  subscribe->header = state.header;
  subscribe->body = state.body;
  subscribe->resubscribe = resubscribe;
  host->end->Send(subscribe);
}

void ReverseProxy::TerminateDownstream(const StreamKey& key, TerminateReason reason,
                                       const std::string& detail) {
  auto it = streams_.find(key);
  if (it == streams_.end()) {
    return;
  }
  auto pop = pop_conns_.find(it->second.pop_conn);
  if (pop != pop_conns_.end()) {
    auto response = std::make_shared<ResponseFrame>();
    response->key = key;
    response->batch.push_back(Delta::Terminate(reason, detail));
    pop->second.end->Send(response);
  }
}

void ReverseProxy::RemoveStream(const StreamKey& key) {
  auto it = streams_.find(key);
  if (it == streams_.end()) {
    return;
  }
  auto pop = pop_conns_.find(it->second.pop_conn);
  if (pop != pop_conns_.end()) {
    pop->second.streams.erase(key);
  }
  auto host = host_conns_.find(it->second.host_id);
  if (host != host_conns_.end()) {
    host->second.streams.erase(key);
  }
  streams_.erase(it);
}

void ReverseProxy::OnDisconnect(ConnectionEnd& on, DisconnectReason reason) {
  (void)reason;
  uint64_t conn_id = on.connection_id();
  auto host_it = host_by_conn_.find(conn_id);
  if (host_it != host_by_conn_.end()) {
    HandleHostDisconnect(conn_id);
    return;
  }
  if (pop_conns_.find(conn_id) != pop_conns_.end()) {
    HandlePopDisconnect(conn_id);
  }
}

void ReverseProxy::HandlePopDisconnect(uint64_t conn_id) {
  // The POP (or the link to it) failed. Inform the BRASSes of each affected
  // stream (§4 axiom 1); the POP side repairs through an alternate proxy,
  // which creates fresh state at *that* proxy, so this one GCs.
  m_.proxy_pop_disconnects->Increment();
  auto pop = pop_conns_.find(conn_id);
  if (pop == pop_conns_.end()) {
    return;
  }
  std::vector<StreamKey> keys(pop->second.streams.begin(), pop->second.streams.end());
  for (const StreamKey& key : keys) {
    auto it = streams_.find(key);
    if (it == streams_.end() || it->second.pop_conn != conn_id) {
      continue;  // stream already re-routed over a newer POP connection
    }
    auto host = host_conns_.find(it->second.host_id);
    if (host != host_conns_.end()) {
      auto detached = std::make_shared<StreamDetachedFrame>();
      detached->key = key;
      detached->reason = "pop connection lost";
      host->second.end->Send(detached);
      host->second.streams.erase(key);
    }
    streams_.erase(it);
  }
  pop->second.end->set_handler(nullptr);
  pop_conns_.erase(pop);
}

void ReverseProxy::HandleHostDisconnect(uint64_t conn_id) {
  // A BRASS host went away (crash, upgrade, drain). The proxy is the
  // component immediately downstream: repair each stream by resubscribing
  // to an alternate host using the stored request (§4 axiom 2). These are
  // the "proxy-induced stream reconnects" of Fig. 10.
  auto host_it = host_by_conn_.find(conn_id);
  if (host_it == host_by_conn_.end()) {
    return;
  }
  int64_t dead_host = host_it->second;
  auto conn = host_conns_.find(dead_host);
  if (conn == host_conns_.end()) {
    return;
  }
  m_.proxy_host_disconnects->Increment();
  std::vector<StreamKey> affected(conn->second.streams.begin(), conn->second.streams.end());
  conn->second.end->set_handler(nullptr);
  host_by_conn_.erase(conn_id);
  host_conns_.erase(conn);

  for (const StreamKey& key : affected) {
    auto it = streams_.find(key);
    if (it == streams_.end() || it->second.host_id != dead_host) {
      continue;  // stream already re-routed to a different host
    }
    // Downstream notification (§4 axiom 1).
    auto pop = pop_conns_.find(it->second.pop_conn);
    if (pop != pop_conns_.end()) {
      auto response = std::make_shared<ResponseFrame>();
      response->key = key;
      response->batch.push_back(Delta::Flow(FlowStatus::kDegraded, "brass host lost"));
      pop->second.end->Send(response);
    }
    // Repair: re-route. The stored header may still name the dead host for
    // stickiness; RouteHost overrides stickiness for dead hosts.
    int64_t repair = RouteHost(it->second.header);
    if (repair == 0 || repair == dead_host) {
      TerminateDownstream(key, TerminateReason::kError, "no alternate BRASS host");
      RemoveStream(key);
      continue;
    }
    it->second.host_id = repair;
    m_.proxy_induced_reconnects->Increment();
    ForwardSubscribeToHost(key, it->second, /*resubscribe=*/true);
  }
}

}  // namespace bladerunner
