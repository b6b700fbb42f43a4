// Reverse proxy at the edge of a BRASS datacenter.
//
// The proxy terminates POP connections, routes each stream to a BRASS host
// (by stickiness, topic, or load — §3.2 "Proxies determine which BRASS host
// to route device subscription requests to"), stores each stream's current
// subscription request, and repairs streams when a BRASS host fails or is
// drained (§4 axiom 2 — the reconnects counted in Fig. 10's bottom graph).

#ifndef BLADERUNNER_SRC_BURST_PROXY_H_
#define BLADERUNNER_SRC_BURST_PROXY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/burst/frames.h"
#include "src/burst/ids.h"
#include "src/net/connection.h"
#include "src/net/topology.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"
#include "src/trace/collector.h"

namespace bladerunner {

class ReverseProxy;

// How the proxy finds and reaches BRASS hosts; implemented by the BRASS
// router (src/brass/router.h) so the burst layer stays app-agnostic.
class BurstServerDirectory {
 public:
  virtual ~BurstServerDirectory() = default;

  // Picks a host for a stream with this header, honoring the application's
  // topic- or load-based routing policy. 0 means no host is available.
  virtual int64_t PickHost(const StreamHeaderView& header) = 0;

  // True if the host is currently alive (sticky routing must be overridden
  // when the remembered host is gone).
  virtual bool IsHostAlive(int64_t host_id) const = 0;

  // Establishes a connection to the host and returns the proxy-side end
  // (the host holds the other end), or nullptr.
  virtual std::shared_ptr<ConnectionEnd> ConnectToHost(ReverseProxy* proxy,
                                                       int64_t host_id) = 0;
};

class ReverseProxy : public ConnectionHandler {
 public:
  ReverseProxy(Simulator* sim, ProxyId proxy_id, RegionId region,
               BurstServerDirectory* directory, MetricsRegistry* metrics,
               TraceCollector* trace = nullptr);

  ProxyId proxy_id() const { return proxy_id_; }
  RegionId region() const { return region_; }
  bool alive() const { return alive_; }

  // The infrastructure attaches the proxy-side end of a new POP uplink.
  void AttachPopConnection(std::shared_ptr<ConnectionEnd> end);

  // Abrupt proxy failure; POPs repair through alternates, hosts are told.
  void FailProxy();

  size_t StreamCount() const { return streams_.size(); }
  // The stream's stored header (reflecting rewrites); nullptr if unknown.
  const Value* HeaderOf(const StreamKey& key) const {
    auto it = streams_.find(key);
    return it == streams_.end() ? nullptr : &it->second.header;
  }

  // Streams currently booked against the connection to `host_id` (0 when
  // no such connection). Tests use this to assert re-routed streams are
  // detached from their old host's bookkeeping.
  size_t HostConnStreamCount(int64_t host_id) const {
    auto it = host_conns_.find(host_id);
    return it == host_conns_.end() ? 0 : it->second.streams.size();
  }

  // ConnectionHandler:
  void OnMessage(ConnectionEnd& on, MessagePtr message) override;
  void OnDisconnect(ConnectionEnd& on, DisconnectReason reason) override;

 private:
  struct StreamState {
    Value header;
    std::string body;
    uint64_t pop_conn = 0;   // downstream connection id
    int64_t host_id = 0;     // upstream BRASS host
  };

  struct PopConn {
    std::shared_ptr<ConnectionEnd> end;
    std::set<StreamKey> streams;
  };

  struct HostConn {
    std::shared_ptr<ConnectionEnd> end;
    int64_t host_id = 0;
    std::set<StreamKey> streams;
  };

  HostConn* EnsureHostConn(int64_t host_id);
  // The sticky host while it lives, else the directory's pick (0: none).
  int64_t RouteHost(const Value& header) const;
  void HandlePopFrame(ConnectionEnd& on, const MessagePtr& message);
  void HandleHostFrame(ConnectionEnd& on, const MessagePtr& message);
  // Forwards a host's envelope frame as one frame per POP connection.
  void ForwardEnvelope(const std::shared_ptr<EnvelopeFrame>& frame);
  void HandlePopDisconnect(uint64_t conn_id);
  void HandleHostDisconnect(uint64_t conn_id);
  void ForwardSubscribeToHost(const StreamKey& key, StreamState& state, bool resubscribe);
  void TerminateDownstream(const StreamKey& key, TerminateReason reason,
                           const std::string& detail);
  void RemoveStream(const StreamKey& key);

  // Metric handles resolved once at construction (docs/PERF.md).
  struct Metrics {
    Counter* proxy_failures;
    Counter* proxy_host_disconnects;
    Counter* proxy_induced_reconnects;
    Counter* proxy_pop_disconnects;
  };

  SimContext ctx_;
  ProxyId proxy_id_;
  RegionId region_;
  BurstServerDirectory* directory_;
  MetricsRegistry* metrics_;
  Metrics m_;
  TraceCollector* trace_;
  bool alive_ = true;

  std::unordered_map<StreamKey, StreamState, StreamKeyHash> streams_;
  std::map<uint64_t, PopConn> pop_conns_;          // by connection id
  std::map<int64_t, HostConn> host_conns_;         // by host id
  std::map<uint64_t, int64_t> host_by_conn_;       // connection id -> host id
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_BURST_PROXY_H_
