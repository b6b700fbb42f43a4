// Point of Presence (POP): the edge hop between devices and the reverse
// proxies at the datacenters.
//
// A POP terminates device connections, keeps a copy of each stream's
// current subscription request (header + body, §3.5), and multiplexes
// streams onto per-datacenter uplinks to reverse proxies. When an uplink
// fails, the POP is the component immediately downstream of the failure and
// repairs each affected stream by resubscribing through an alternate proxy
// (§4 axiom 2); when a device connection fails, the POP notifies the
// upstream BRASSes and garbage-collects its stream state (§4 axiom 1).
//
// Edge placement (docs/BURST.md "Placement"): when the deployment enables
// it, apps whose descriptor asks for BrassPlacement::kPopFilterConflate have
// their viewer-independent stages run *here*, in transit. The regional host then
// sends one small event envelope frame per (host, POP, event) instead of a
// payload per stream; the POP coarse-filters it once, conflates and paces
// newest-version-wins per listed stream, and resolves surviving envelopes
// to payloads through a bounded versioned cache — asking the region, on a
// miss, for exactly the viewers whose envelopes wait here. Fetch and
// per-viewer privacy always stay regional.

#ifndef BLADERUNNER_SRC_BURST_POP_H_
#define BLADERUNNER_SRC_BURST_POP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/brass/app_descriptor.h"
#include "src/brass/delivery_queue.h"
#include "src/burst/config.h"
#include "src/burst/frames.h"
#include "src/burst/ids.h"
#include "src/burst/pop_cache.h"
#include "src/net/connection.h"
#include "src/net/topology.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"
#include "src/trace/collector.h"

namespace bladerunner {

class Pop : public ConnectionHandler {
 public:
  // A newly established uplink to some reverse proxy.
  struct Uplink {
    std::shared_ptr<ConnectionEnd> end;
    ProxyId proxy_id;
  };

  // Asks the infrastructure for an uplink to a reverse proxy serving
  // `target_region`, excluding `exclude_proxy_id` (the proxy that just
  // failed; ProxyId{} to exclude none). Returns an empty Uplink if none
  // available.
  using ProxyConnector = std::function<Uplink(Pop* pop, RegionId target_region,
                                              ProxyId exclude_proxy_id)>;

  // Resolves an app name to its descriptor (placement policy, coarse-filter
  // spec, pacing). Wired by the cluster from the shared app registry; a
  // null/empty lookup leaves the POP a pure forwarder.
  using DescriptorLookup = std::function<const BrassAppDescriptor*(const std::string& app)>;

  Pop(Simulator* sim, PopId pop_id, RegionId region, ProxyConnector connector,
      BurstConfig config, MetricsRegistry* metrics, TraceCollector* trace = nullptr);

  PopId pop_id() const { return pop_id_; }
  RegionId region() const { return region_; }
  bool alive() const { return alive_; }

  // Wires the app-descriptor registry in (cluster construction). Without it
  // the POP never stamps placement, regardless of config.
  void SetDescriptorLookup(DescriptorLookup lookup) { descriptors_ = std::move(lookup); }

  // Per-POP override of BurstConfig::pop_placement_enabled; lets tests run
  // mixed fleets (a capable POP failing over to an incapable one).
  void set_placement_enabled(bool enabled) { config_.pop_placement_enabled = enabled; }

  // The infrastructure attaches the POP-side end of a new device
  // connection here (the device holds the other end).
  void AttachDeviceConnection(std::shared_ptr<ConnectionEnd> end);

  // Catastrophic POP failure: every device connection and uplink fails
  // abruptly. Devices reconnect elsewhere; proxies notify the BRASSes.
  void FailPop();

  size_t StreamCount() const { return streams_.size(); }
  // The stream's stored header (reflecting rewrites); nullptr if unknown.
  const Value* HeaderOf(const StreamKey& key) const {
    auto it = streams_.find(key);
    return it == streams_.end() ? nullptr : &it->second.header;
  }
  size_t DeviceConnectionCount() const { return device_conns_.size(); }
  const PopPayloadCache& payload_cache() const { return cache_; }

  // ConnectionHandler:
  void OnMessage(ConnectionEnd& on, MessagePtr message) override;
  void OnDisconnect(ConnectionEnd& on, DisconnectReason reason) override;

 private:
  struct StreamState {
    Value header;       // most recent, including BRASS rewrites
    std::string body;
    uint64_t device_conn = 0;  // connection id of the device side
    RegionId up_region = 0;    // which uplink the stream runs over
    // ---- edge placement (set at Subscribe when this POP is capable) ----
    BrassPlacement placement = BrassPlacement::kRegional;
    std::string app;    // cached from the header; keys descriptor lookups
    int64_t viewer = 0; // cached from the header; keys privacy decisions
    // kPopFilterConflate: paces the stream's envelopes at the app's
    // pop_push_gap_us.
    PushPacer pacer;
  };

  struct DeviceConn {
    std::shared_ptr<ConnectionEnd> end;
    std::set<StreamKey> streams;
  };

  struct UplinkState {
    std::shared_ptr<ConnectionEnd> end;
    ProxyId proxy_id;
    std::set<StreamKey> streams;
  };

  // The regional fetches of one versioned object; every miss for the same
  // (app, object, version) joins it (singleflight, like the fetch
  // pipeline's Flights). Each fill answers the request that asked for it;
  // waiters it does not cover wait for their own request's fill.
  struct Flight {
    struct Waiter {
      StreamKey key;
      DeliverOptions options;
    };
    // One PopFetch in the air: the stream it went up through and the
    // viewers it asked for, sorted.
    struct Request {
      StreamKey via;
      std::vector<int64_t> viewers;
    };
    Value metadata;  // the event metadata the fetches are issued with
    std::vector<Waiter> waiters;
    std::vector<Request> requests;
    // The viewers the outstanding requests ask for: a miss for one of them
    // waits for that request's fill instead of asking again.
    std::set<int64_t> pending_viewers;
  };
  // Returns (establishing if needed) the uplink toward `target_region`.
  UplinkState* EnsureUplink(RegionId target_region, ProxyId exclude_proxy_id = ProxyId{});

  void HandleDeviceFrame(ConnectionEnd& on, const MessagePtr& message);
  void HandleUplinkFrame(ConnectionEnd& on, const MessagePtr& message);
  void HandleDeviceDisconnect(uint64_t conn_id);
  void HandleUplinkDisconnect(RegionId up_region);
  void ForwardSubscribeUp(const StreamKey& key, StreamState& state, bool resubscribe);
  void RemoveStream(const StreamKey& key);

  // ---- edge placement ----
  // The placement this POP will run for the subscription, after gating on
  // the master enable, the descriptor, and the durable exclusion.
  BrassPlacement ResolvePlacement(const StreamHeaderView& view) const;
  // One envelope frame: observe the version and coarse-filter once, queue
  // every listed placed stream that must wait for a push slot, then resolve
  // the others together — so the frame's first fetch covers all of it.
  void HandleEnvelope(const EnvelopeFrame& frame);
  // Paces one stream's copy of an envelope: true when its push slot is free
  // (resolve now), otherwise queued, conflated or shed behind the slot.
  bool AdmitEnvelope(StreamState& state, const BrassAppDescriptor& descriptor,
                     const Value& metadata, const DeliverOptions& options);
  // Resolves one envelope to a payload for each of `keys` (placed streams
  // of one app) via the cache; the misses join the object version's flight,
  // which asks the region for the viewers no outstanding request covers.
  void ResolveAndDeliver(const std::vector<StreamKey>& keys, const Value& metadata,
                         const DeliverOptions& options);
  // The viewers a new flight asks for: those of `waiting` and of every other
  // placed stream of `app` holding the object version queued, less those
  // the cache already decided.
  std::vector<int64_t> FetchSet(const std::string& app, int64_t object,
                                const std::vector<StreamKey>& waiting,
                                const DeliverOptions& options) const;
  // Sends `flight`'s `request` as a PopFetch up through its `via` stream.
  void SendFetch(const std::string& app, const Flight& flight, const Flight::Request& request);
  // Whether a fetch can go up through `key` (its stream is here, with an
  // uplink).
  bool HasUplink(const StreamKey& key) const;
  // The fetches that went up through `key` will not be answered (the stream
  // left the POP, or its path was lost and repaired): drops waiters whose
  // stream is gone, re-sends each such request through a waiting stream,
  // and erases flights left with no waiter or no outstanding request.
  void ResendFetchesVia(const StreamKey& key);
  void HandleFill(const PopFillFrame& fill);
  // Pushes the resolved payload to the stream's device, stamping the e2e
  // latency fields and opening the "burst.deliver" span the client ends.
  void DeliverToDevice(const StreamKey& key, const StreamState& state, Value payload,
                       const DeliverOptions& options);
  // All uplink sends go through this so backbone bytes are accounted.
  void SendUp(UplinkState& uplink, const MessagePtr& frame);

  // Metric handles resolved once at construction (docs/PERF.md).
  struct Metrics {
    Counter* pop_device_disconnects;
    Counter* pop_failures;
    Counter* pop_initiated_reconnects;
    Counter* pop_uplink_failures;
    // Backbone accounting (POP <-> proxy leg), always on, and the share of
    // it each placement frame kind carries.
    Counter* pop_backbone_bytes_up;
    Counter* pop_backbone_bytes_down;
    Counter* pop_envelope_bytes;
    Counter* pop_fetch_bytes;
    Counter* pop_fill_bytes;
    // Edge placement.
    Counter* pop_envelopes;
    Counter* pop_filtered;
    Counter* pop_conflated;
    Counter* pop_shed;
    Counter* pop_deliveries;
    Counter* pop_delivered_bytes;
    Counter* pop_cache_hits;
    Counter* pop_cache_misses;
    Counter* pop_cache_stale_fills;
    Counter* pop_fetches;
    Counter* pop_privacy_drops;
  };

  SimContext ctx_;
  PopId pop_id_;
  RegionId region_;
  ProxyConnector connector_;
  BurstConfig config_;
  MetricsRegistry* metrics_;
  Metrics m_;
  TraceCollector* trace_;
  DescriptorLookup descriptors_;
  bool alive_ = true;

  std::unordered_map<StreamKey, StreamState, StreamKeyHash> streams_;
  std::map<uint64_t, DeviceConn> device_conns_;    // by connection id
  std::map<RegionId, UplinkState> uplinks_;        // one uplink per DC region
  std::map<uint64_t, RegionId> uplink_by_conn_;    // connection id -> region

  PopPayloadCache cache_;
  std::map<ObjectVersionKey, Flight> flights_;
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_BURST_POP_H_
