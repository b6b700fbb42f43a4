// Host-side BURST endpoint.
//
// A BurstServer terminates the proxy connections arriving at one BRASS
// host, owns the ServerStream objects that BRASS applications push deltas
// through, and implements the server half of §3.5/§4: automatic recovery
// signalling on resubscribes, retained stream state for seamless
// reconnects, rewrites, redirects, and graceful drains.

#ifndef BLADERUNNER_SRC_BURST_SERVER_H_
#define BLADERUNNER_SRC_BURST_SERVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/burst/config.h"
#include "src/burst/frames.h"
#include "src/net/connection.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"

namespace bladerunner {

class BurstServer;

// One server-side request-stream; handed to the BRASS application.
class ServerStream {
 public:
  const StreamKey& key() const { return key_; }
  const Value& header() const { return header_; }
  const std::string& body() const { return body_; }
  bool attached() const { return down_conn_ != nullptr && down_conn_->open(); }
  // Id of the proxy connection the stream's frames leave on (0 while
  // detached). Streams that share one travel to the same proxy.
  uint64_t connection_id() const { return attached() ? down_conn_->connection_id() : 0; }
  uint64_t last_ack() const { return last_ack_; }
  SimTime established_at() const { return established_at_; }

  // Sends a batch of deltas (applied atomically client-side).
  void Push(std::vector<Delta> batch);

  // Convenience single-delta pushes. `trace` (if valid) rides on the data
  // delta so downstream hops and the device can join the update's trace.
  void PushData(Value payload, uint64_t seq = 0, TraceContext trace = TraceContext());
  void PushFlow(FlowStatus status, std::string detail = "");

  // Replaces the subscription header everywhere along the path (§3.5).
  // The delta carries the merge patch from the current header, and the
  // stored copies at the proxies, POP, and device all apply it, so the next
  // resubscribe carries the new header.
  void Rewrite(Value header);

  // Ends the stream. kRedirect tells the device to resubscribe with the
  // current (typically just-rewritten) header.
  void Terminate(TerminateReason reason, std::string detail = "");

  // Sends a raw inter-node frame (a PopFillFrame answering a PopFetchFrame,
  // or an EnvelopeFrame for this connection's placed streams) down the
  // stream's proxy connection. Returns false when the stream is detached.
  bool SendFrame(MessagePtr frame);

 private:
  friend class BurstServer;
  ServerStream(BurstServer* server, StreamKey key) : server_(server), key_(key) {}

  BurstServer* server_;
  StreamKey key_;
  Value header_;
  std::string body_;
  std::shared_ptr<ConnectionEnd> down_conn_;
  uint64_t last_ack_ = 0;
  SimTime established_at_ = 0;
  bool detached_ = false;
  TimerId gc_timer_ = kInvalidTimerId;
};

// Callbacks into the BRASS application layer.
class BurstServerHandler {
 public:
  virtual ~BurstServerHandler() = default;

  // A brand-new stream subscribed.
  virtual void OnStreamStarted(ServerStream& stream) = 0;

  // A stream re-attached while its server-side state was retained. The
  // paper's resumption machinery (sync tokens in rewritten headers) is for
  // the *other* case — when state was lost — which surfaces as
  // OnStreamStarted with the rewritten header.
  virtual void OnStreamResumed(ServerStream& stream) { (void)stream; }

  // The downstream path is gone; state is retained for a grace period.
  virtual void OnStreamDetached(ServerStream& stream, const std::string& reason) {
    (void)stream;
    (void)reason;
  }

  // The stream is gone for good (cancel, termination, or detach GC).
  virtual void OnStreamClosed(const StreamKey& key, TerminateReason reason) {
    (void)key;
    (void)reason;
  }

  // The device acknowledged deltas up to `seq`.
  virtual void OnAck(ServerStream& stream, uint64_t seq) {
    (void)stream;
    (void)seq;
  }

  // A POP's payload cache missed for a versioned object on `stream`'s app:
  // fetch regionally (with per-viewer privacy for every listed viewer) and
  // answer with a PopFillFrame via stream.SendFrame. Default: ignore — the
  // POP-side waiters simply never resolve, which only placement-aware
  // applications opt into avoiding.
  virtual void OnPopFetch(ServerStream& stream, const PopFetchFrame& fetch) {
    (void)stream;
    (void)fetch;
  }
};

class BurstServer : public ConnectionHandler {
 public:
  BurstServer(Simulator* sim, int64_t host_id, BurstServerHandler* handler, BurstConfig config,
              MetricsRegistry* metrics);
  ~BurstServer() override;

  int64_t host_id() const { return host_id_; }
  bool alive() const { return alive_; }
  size_t StreamCount() const { return streams_.size(); }

  // The infrastructure attaches the host-side end of a proxy connection.
  void AttachProxyConnection(std::shared_ptr<ConnectionEnd> end);

  // Graceful drain (software upgrade, load rebalancing): closes all proxy
  // connections; proxies repair streams onto other hosts.
  void Drain();

  // Crash: connections fail abruptly; all stream state is lost.
  void FailHost();

  ServerStream* FindStream(const StreamKey& key);

  // ConnectionHandler:
  void OnMessage(ConnectionEnd& on, MessagePtr message) override;
  void OnDisconnect(ConnectionEnd& on, DisconnectReason reason) override;

 private:
  friend class ServerStream;

  void HandleSubscribe(ConnectionEnd& on, const SubscribeFrame& frame);
  void HandleCancel(const CancelFrame& frame);
  void HandleAck(const AckFrame& frame);
  void HandleDetached(const StreamDetachedFrame& frame);
  void DetachStream(ServerStream& stream, const std::string& reason);
  // `key` is taken by value: callers commonly pass a ServerStream's own
  // key_ member, which the erase inside destroys — a reference would
  // dangle before the handler notification reads it.
  void EraseStream(StreamKey key, TerminateReason reason, bool notify_handler);
  void SendBatch(ServerStream& stream, std::vector<Delta> batch);

  // Metric handles resolved once at construction (docs/PERF.md).
  struct Metrics {
    Counter* host_crashes;
    Counter* host_drains;
    Counter* server_proxy_disconnects;
    Counter* server_pushes;
    Counter* server_pushes_dropped;
    Counter* server_stream_cold_resumes;
    Counter* server_stream_detaches;
    Counter* server_stream_resumes;
    Counter* server_stream_starts;
  };

  SimContext ctx_;
  int64_t host_id_;
  BurstServerHandler* handler_;
  BurstConfig config_;
  MetricsRegistry* metrics_;
  Metrics m_;
  bool alive_ = true;

  std::unordered_map<StreamKey, std::unique_ptr<ServerStream>, StreamKeyHash> streams_;
  std::map<uint64_t, std::shared_ptr<ConnectionEnd>> proxy_conns_;  // by conn id
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_BURST_SERVER_H_
