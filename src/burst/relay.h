// BurstRelay: the protocol of an intermediate BURST hop, which the POP and
// the reverse proxy share (§3.5, §4).
//
// A relay sits between downstream connections (devices at a POP, POPs at a
// reverse proxy) and upstream ones (one proxy per datacenter region at a
// POP, one per BRASS host at a proxy). Per stream it keeps the current
// subscription request -- header (reflecting rewrites) and body -- with the
// downstream connection the stream arrived on and the upstream it runs
// over. It forwards subscribe, cancel, ack and detach frames up and
// response frames down, and applies the §4 axioms at its own hop:
//
//  1. downstream loss: each stream of the lost connection is detached
//     upstream (StreamDetached) and forgotten;
//  2. upstream loss: each stream of the lost connection, in turn, is told
//     it is degraded, routed again and resubscribed with its stored
//     request, or ended with `error` when nothing is reachable.
//
// Stale routes: a subscribe for a stream already here moves its key out of
// its old connections' stream sets, so every key a connection lists rides
// that connection, which its loss asserts. A loss detected after the stream
// moved on leaves it alone (docs/BURST.md "Failure handling").
//
// A hop derives from BurstRelay<HopFields> and supplies what differs: how a
// stream is routed and an upstream connected, and what it does with the
// frames the relay does not forward itself. `HopFields` are the hop's own
// per-stream fields; they ride in the relay's stream entry.

#ifndef BLADERUNNER_SRC_BURST_RELAY_H_
#define BLADERUNNER_SRC_BURST_RELAY_H_

#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/burst/frames.h"
#include "src/net/connection.h"
#include "src/net/topology.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"
#include "src/trace/collector.h"

namespace bladerunner {

// The per-stream fields of a hop that keeps none of its own.
struct NoHopFields {};

template <typename HopFields = NoHopFields>
class BurstRelay : public ConnectionHandler {
 public:
  // What tells one hop from another in what the relay counts, records and
  // sends.
  struct Hop {
    const char* span;         // instant hop-marker span ("burst.pop")
    const char* id_key;       // the marker's annotation naming this hop
    int64_t id;
    const char* detached;     // StreamDetached reason on downstream loss
    const char* degraded;     // flow_status(degraded) detail on upstream loss
    const char* no_route;     // error ending a stream Route finds no upstream for
    const char* unreachable;  // error ending a stream whose upstream cannot be connected
    Counter* failures;        // Fail() calls that took the hop down
    Counter* down_losses;     // downstream connections lost
    Counter* up_losses;       // upstream connections lost
    Counter* repairs;         // streams resubscribed after an upstream loss
  };

  // Connections hold the relay's address as their handler.
  BurstRelay(const BurstRelay&) = delete;
  BurstRelay& operator=(const BurstRelay&) = delete;

  bool alive() const { return alive_; }
  RegionId region() const { return region_; }

  size_t StreamCount() const { return streams_.size(); }
  // The stream's stored header (reflecting rewrites); nullptr if unknown.
  const Value* HeaderOf(const StreamKey& key) const {
    auto it = streams_.find(key);
    return it == streams_.end() ? nullptr : &it->second.header;
  }

  // ConnectionHandler:
  void OnMessage(ConnectionEnd& on, MessagePtr message) override {
    uint64_t conn = on.connection_id();
    if (downs_.contains(conn)) {
      HandleDownFrame(conn, message);
    } else if (up_by_conn_.contains(conn)) {
      HandleUpstreamFrame(message);
    }
  }

  void OnDisconnect(ConnectionEnd& on, DisconnectReason reason) override {
    (void)reason;
    uint64_t conn = on.connection_id();
    if (auto up = up_by_conn_.find(conn); up != up_by_conn_.end()) {
      RepairUpstream(up->second);
    } else if (downs_.contains(conn)) {
      DetachDownstream(conn);
    }
  }

 protected:
  struct Stream : HopFields {
    Value header;       // most recent, including BRASS rewrites
    std::string body;
    uint64_t down = 0;  // downstream connection id
    int64_t up = 0;     // the upstream it runs over, as Route named it
  };

  BurstRelay(Simulator* sim, RegionId region, TraceCollector* trace, Hop hop)
      : ctx_(sim), region_(region), trace_(trace), hop_(hop) {
    assert(ctx_.sim() != nullptr && trace_ != nullptr);
  }

  // ---- supplied by the hop ----

  // The upstream a stream with this header runs over; nullopt if none.
  virtual std::optional<int64_t> Route(const Value& header) = 0;
  // Opens a connection to upstream `up`; this hop's end, or nullptr.
  virtual std::shared_ptr<ConnectionEnd> ConnectUpstream(int64_t up) = 0;
  // Every frame from upstream. Responses go back to ForwardResponse.
  virtual void HandleUpstreamFrame(const MessagePtr& message) = 0;
  // A frame from downstream that the relay does not forward itself.
  virtual void HandleDownstreamFrame(const MessagePtr& /*message*/) {}
  // A subscribe is about to be stored and forwarded: the hop fills in its
  // own fields of the new entry and may edit the header.
  virtual void PrepareStream(SubscribeFrame& /*frame*/, Stream& /*stream*/) {}
  // Nothing the hop sent up through `key` before now will be answered: the
  // stream left the hop, or its upstream path was lost.
  virtual void OnPathLost(const StreamKey& /*key*/) {}
  // Every frame the relay sends upstream passes here first.
  virtual void OnSendUp(const Message& /*frame*/) {}

  // ---- for the hop ----

  // Attaches this hop's end of a new downstream connection.
  void AttachDownstream(std::shared_ptr<ConnectionEnd> end) {
    assert(alive_);
    end->set_handler(this);
    uint64_t conn = end->connection_id();
    downs_[conn] = Link{std::move(end), {}};
  }

  // Abrupt failure of the hop: every connection fails and all state goes.
  void Fail() {
    if (!alive_) {
      return;
    }
    alive_ = false;
    hop_.failures->Increment();
    auto fail_all = [](auto& links) {
      for (auto& [id, link] : links) {
        link.end->set_handler(nullptr);
        link.end->Fail();
      }
      links.clear();
    };
    fail_all(downs_);
    fail_all(ups_);
    up_by_conn_.clear();
    streams_.clear();
  }

  // Applies the response's rewrites to the stored header and sends it down
  // the stream's connection; a termination ends the stream here too.
  void ForwardResponse(const std::shared_ptr<ResponseFrame>& response) {
    auto it = streams_.find(response->key);
    if (it == streams_.end()) {
      return;  // cancelled / GCed while the response was in flight
    }
    bool terminated = false;
    bool degraded = false;
    for (const Delta& delta : response->batch) {
      if (delta.kind == DeltaKind::kRewrite) {
        // Each hop keeps the current header so it can repair the stream
        // (§3.5); rewrites update the stored copy as they pass through.
        delta.ApplyRewrite(it->second.header);
      } else if (delta.kind == DeltaKind::kTermination) {
        terminated = true;
      } else if (delta.kind == DeltaKind::kFlowStatus && delta.status == FlowStatus::kDegraded) {
        degraded = true;  // a hop above lost the stream's path and repairs it
      } else if (delta.kind == DeltaKind::kData) {
        RecordHop(delta.trace);  // the update passed this hop
      }
    }
    SendDown(it->second.down, response);
    if (terminated) {
      RemoveStream(response->key);
    } else if (degraded) {
      OnPathLost(response->key);
    }
  }

  // Sends `frame` up along the stream's upstream connection, if it has one.
  void ForwardUp(const StreamKey& key, const MessagePtr& frame) {
    auto it = streams_.find(key);
    if (it == streams_.end()) {
      return;
    }
    if (auto up = ups_.find(it->second.up); up != ups_.end()) {
      SendUp(up->second, frame);
    }
  }

  void SendDown(uint64_t conn, const MessagePtr& frame) {
    if (auto down = downs_.find(conn); down != downs_.end()) {
      down->second.end->Send(frame);
    }
  }

  // Sends the stream one delta down its connection.
  void SendDelta(const StreamKey& key, const Stream& stream, Delta delta) {
    auto response = std::make_shared<ResponseFrame>();
    response->key = key;
    response->batch.push_back(std::move(delta));
    SendDown(stream.down, response);
  }

  // Whether a frame can go up through `key` now: its stream is here and
  // booked on an upstream connection. During a repair, a stream not yet
  // resubscribed is not, so nothing sent through it can overtake its
  // resubscribe.
  bool HasUpstream(const StreamKey& key) const {
    auto it = streams_.find(key);
    if (it == streams_.end()) {
      return false;
    }
    auto up = ups_.find(it->second.up);
    return up != ups_.end() && up->second.streams.contains(key);
  }

  size_t DownstreamCount() const { return downs_.size(); }
  // Streams booked on the connection to upstream `up` (0 when none).
  size_t UpstreamStreamCount(int64_t up) const {
    auto it = ups_.find(up);
    return it == ups_.end() ? 0 : it->second.streams.size();
  }

  SimContext ctx_;
  RegionId region_;
  TraceCollector* trace_;
  std::unordered_map<StreamKey, Stream, StreamKeyHash> streams_;

 private:
  // One connection and the streams booked on it.
  struct Link {
    std::shared_ptr<ConnectionEnd> end;
    std::set<StreamKey> streams;
  };

  // Instant hop marker: the frame carrying `ctx` passed through this hop.
  void RecordHop(const TraceContext& ctx) {
    if (!ctx.valid()) {
      return;
    }
    TraceContext hop = trace_->RecordSpan(ctx, hop_.span, "burst", region_, ctx_.Now(), ctx_.Now());
    trace_->Annotate(hop, hop_.id_key, Value(hop_.id));
  }

  void HandleDownFrame(uint64_t conn, const MessagePtr& message) {
    if (auto subscribe = std::dynamic_pointer_cast<SubscribeFrame>(message)) {
      Subscribe(conn, *subscribe);
    } else if (auto cancel = std::dynamic_pointer_cast<CancelFrame>(message)) {
      Release(cancel->key, cancel);
    } else if (auto ack = std::dynamic_pointer_cast<AckFrame>(message)) {
      ForwardUp(ack->key, ack);
    } else if (auto detached = std::dynamic_pointer_cast<StreamDetachedFrame>(message)) {
      Release(detached->key, detached);  // axiom 1, passed on toward the BRASS
    } else {
      HandleDownstreamFrame(message);
    }
  }

  void Subscribe(uint64_t conn, SubscribeFrame& frame) {
    RecordHop(ContextFromValue(frame.header));
    Stream stream;
    PrepareStream(frame, stream);
    stream.header = frame.header;
    stream.body = frame.body;
    stream.down = conn;
    std::optional<int64_t> up = Route(stream.header);
    if (!up) {
      RemoveStream(frame.key);  // the stream this subscribe would replace
      SendDelta(frame.key, stream, Delta::Terminate(TerminateReason::kError, hop_.no_route));
      return;
    }
    stream.up = *up;
    // A resubscribe (a device back over a new connection, a stream routed
    // to another upstream) replaces the entry: the stale-route rule.
    if (auto existing = streams_.find(frame.key); existing != streams_.end()) {
      Unbook(frame.key, existing->second);
    }
    downs_[conn].streams.insert(frame.key);
    auto it = streams_.insert_or_assign(frame.key, std::move(stream)).first;
    ForwardSubscribe(frame.key, it->second, frame.resubscribe);
  }

  // Sends the stored request up the stream's route, connecting if needed;
  // ends the stream when the upstream cannot be reached.
  void ForwardSubscribe(const StreamKey& key, Stream& stream, bool resubscribe) {
    Link* link = EnsureUp(stream.up);
    if (link == nullptr) {
      EndStream(key, stream, hop_.unreachable);
      return;
    }
    link->streams.insert(key);
    auto subscribe = std::make_shared<SubscribeFrame>();
    subscribe->key = key;
    subscribe->header = stream.header;
    subscribe->body = stream.body;
    subscribe->resubscribe = resubscribe;
    SendUp(*link, subscribe);
  }

  // The open connection to upstream `up`, established if needed. A link
  // leaves ups_ in the call that closes its end (Fail, or OnDisconnect's
  // RepairUpstream), so one still listed is open.
  Link* EnsureUp(int64_t up) {
    if (auto it = ups_.find(up); it != ups_.end()) {
      assert(it->second.end->open());
      return &it->second;
    }
    std::shared_ptr<ConnectionEnd> end = ConnectUpstream(up);
    if (end == nullptr) {
      return nullptr;
    }
    end->set_handler(this);
    up_by_conn_[end->connection_id()] = up;
    Link& link = ups_[up];
    link.end = std::move(end);
    return &link;
  }

  void SendUp(Link& link, const MessagePtr& frame) {
    OnSendUp(*frame);
    link.end->Send(frame);
  }

  // Cancel and StreamDetached end the stream here and at every hop above.
  void Release(const StreamKey& key, const MessagePtr& frame) {
    if (streams_.contains(key)) {
      ForwardUp(key, frame);
      RemoveStream(key);
    }
  }

  void EndStream(const StreamKey& key, const Stream& stream, const char* detail) {
    SendDelta(key, stream, Delta::Terminate(TerminateReason::kError, detail));
    RemoveStream(key);
  }

  // Takes the key out of the stream sets of the connections it rides.
  void Unbook(const StreamKey& key, const Stream& stream) {
    if (auto down = downs_.find(stream.down); down != downs_.end()) {
      down->second.streams.erase(key);
    }
    if (auto up = ups_.find(stream.up); up != ups_.end()) {
      up->second.streams.erase(key);
    }
  }

  void RemoveStream(const StreamKey& key) {
    auto it = streams_.find(key);
    if (it == streams_.end()) {
      return;
    }
    Unbook(key, it->second);
    streams_.erase(it);
    OnPathLost(key);
  }

  // §4 axiom 1: the downstream connection is gone. The BRASS of each of
  // its streams is told, and the state is GCed at once (§3.5): the stream
  // will be subscribed afresh wherever it reconnects.
  void DetachDownstream(uint64_t conn) {
    hop_.down_losses->Increment();
    auto down = downs_.find(conn);
    std::vector<StreamKey> keys(down->second.streams.begin(), down->second.streams.end());
    for (const StreamKey& key : keys) {
      assert(streams_.contains(key) && streams_.find(key)->second.down == conn);
      auto detached = std::make_shared<StreamDetachedFrame>();
      detached->key = key;
      detached->reason = hop_.detached;
      ForwardUp(key, detached);
      RemoveStream(key);
    }
    down->second.end->set_handler(nullptr);
    downs_.erase(down);
  }

  // §4 axiom 2: the upstream connection is gone, and this hop is the
  // closest survivor below it. Each of its streams is repaired in turn
  // through whatever upstream Route now names, with the stored request.
  // `lost` comes from up_by_conn_, whose entries come and go with ups_'s.
  void RepairUpstream(int64_t lost) {
    auto link = ups_.find(lost);
    assert(link != ups_.end());
    hop_.up_losses->Increment();
    std::vector<StreamKey> affected(link->second.streams.begin(), link->second.streams.end());
    up_by_conn_.erase(link->second.end->connection_id());
    link->second.end->set_handler(nullptr);
    ups_.erase(link);
    for (const StreamKey& key : affected) {
      auto it = streams_.find(key);
      assert(it != streams_.end() && it->second.up == lost);
      SendDelta(key, it->second, Delta::Flow(FlowStatus::kDegraded, hop_.degraded));
      // Route overrides a sticky header that names the lost upstream.
      std::optional<int64_t> repair = Route(it->second.header);
      if (!repair) {
        EndStream(key, it->second, hop_.no_route);
        continue;
      }
      it->second.up = *repair;
      hop_.repairs->Increment();
      ForwardSubscribe(key, it->second, /*resubscribe=*/true);
    }
    // Only now, with every stream resubscribed, may anything that went up
    // the lost connection be sent again.
    for (const StreamKey& key : affected) {
      OnPathLost(key);
    }
  }

  Hop hop_;
  bool alive_ = true;
  std::map<uint64_t, Link> downs_;          // by connection id
  std::map<int64_t, Link> ups_;             // by upstream, as Route names it
  std::map<uint64_t, int64_t> up_by_conn_;  // connection id -> upstream
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_BURST_RELAY_H_
