// Reverse proxy at the edge of a BRASS datacenter.
//
// The proxy is a BurstRelay (src/burst/relay.h) between POP connections and
// one connection per BRASS host. It routes each stream to a host (by
// stickiness, topic, or load — §3.2 "Proxies determine which BRASS host to
// route device subscription requests to"), stores each stream's current
// subscription request, and repairs streams when a BRASS host fails or is
// drained (§4 axiom 2 — the reconnects counted in Fig. 10's bottom graph).
// It also splits a host's envelope frames per POP and carries a POP's
// fetches up and their fills down.

#ifndef BLADERUNNER_SRC_BURST_PROXY_H_
#define BLADERUNNER_SRC_BURST_PROXY_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "src/burst/frames.h"
#include "src/burst/ids.h"
#include "src/burst/relay.h"
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

class ReverseProxy : public BurstRelay<> {
 public:
  ReverseProxy(Simulator* sim, ProxyId proxy_id, RegionId region,
               BurstServerDirectory* directory, MetricsRegistry* metrics,
               TraceCollector* trace);

  // The infrastructure attaches the proxy-side end of a new POP uplink.
  void AttachPopConnection(std::shared_ptr<ConnectionEnd> end) { AttachDownstream(std::move(end)); }

  // Abrupt proxy failure; POPs repair through alternates, hosts are told.
  void FailProxy() { Fail(); }

  // Streams currently booked against the connection to `host_id` (0 when
  // no such connection). Tests use this to assert re-routed streams are
  // detached from their old host's bookkeeping.
  size_t HostConnStreamCount(int64_t host_id) const { return UpstreamStreamCount(host_id); }

 private:
  // ---- the relay's hooks ----
  // The sticky host while it lives, else the directory's pick.
  std::optional<int64_t> Route(const Value& header) override;
  std::shared_ptr<ConnectionEnd> ConnectUpstream(int64_t host_id) override;
  void HandleUpstreamFrame(const MessagePtr& message) override;
  void HandleDownstreamFrame(const MessagePtr& message) override;

  // Forwards a host's envelope frame as one frame per POP connection.
  void ForwardEnvelope(const std::shared_ptr<EnvelopeFrame>& frame);

  BurstServerDirectory* directory_;
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_BURST_PROXY_H_
