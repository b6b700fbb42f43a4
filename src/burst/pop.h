// Point of Presence (POP): the edge hop between devices and the reverse
// proxies at the datacenters.
//
// A POP is a BurstRelay (src/burst/relay.h) between device connections and
// one uplink per datacenter region to a reverse proxy: it keeps each
// stream's current subscription request (header + body, §3.5), detaches the
// streams of a lost device connection upstream (§4 axiom 1) and repairs
// those of a lost uplink through an alternate proxy (§4 axiom 2). The POP
// adds its routing (a stream runs over the uplink to its header's preferred
// region), its backbone byte accounting, and edge placement.
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
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/brass/app_descriptor.h"
#include "src/brass/delivery_queue.h"
#include "src/burst/config.h"
#include "src/burst/frames.h"
#include "src/burst/ids.h"
#include "src/burst/pop_cache.h"
#include "src/burst/relay.h"
#include "src/net/connection.h"
#include "src/net/topology.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"
#include "src/trace/collector.h"

namespace bladerunner {

// A POP's own per-stream fields (edge placement), set at Subscribe. They
// ride in the relay's stream entry.
struct PopStreamFields {
  BrassPlacement placement = BrassPlacement::kRegional;
  std::string app;     // cached from the header; keys descriptor lookups
  int64_t viewer = 0;  // cached from the header; keys privacy decisions
  // kPopFilterConflate: paces the stream's envelopes at the app's
  // pop_push_gap_us.
  PushPacer pacer;
};

class Pop : public BurstRelay<PopStreamFields> {
 public:
  // Asks the infrastructure for an uplink to a reverse proxy serving
  // `target_region`: this POP's end, or nullptr if no proxy is available.
  using ProxyConnector =
      std::function<std::shared_ptr<ConnectionEnd>(Pop* pop, RegionId target_region)>;

  // Resolves an app name to its descriptor (placement policy, coarse-filter
  // spec, pacing), or nullptr for an unknown app. The cluster wires it from
  // the shared app registry.
  using DescriptorLookup = std::function<const BrassAppDescriptor*(const std::string& app)>;

  Pop(Simulator* sim, PopId pop_id, RegionId region, ProxyConnector connector,
      DescriptorLookup descriptors, BurstConfig config, MetricsRegistry* metrics,
      TraceCollector* trace);

  PopId pop_id() const { return pop_id_; }

  // Per-POP override of BurstConfig::pop_placement_enabled; lets tests run
  // mixed fleets (a capable POP failing over to an incapable one).
  void set_placement_enabled(bool enabled) { config_.pop_placement_enabled = enabled; }

  // The infrastructure attaches the POP-side end of a new device
  // connection here (the device holds the other end).
  void AttachDeviceConnection(std::shared_ptr<ConnectionEnd> end) {
    AttachDownstream(std::move(end));
  }

  // Catastrophic POP failure: every device connection and uplink fails
  // abruptly. Devices reconnect elsewhere; proxies notify the BRASSes.
  void FailPop();

  size_t DeviceConnectionCount() const { return DownstreamCount(); }
  const PopPayloadCache& payload_cache() const { return cache_; }

 private:
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

  // ---- the relay's hooks ----
  // A stream runs over the uplink to its header's preferred region.
  std::optional<int64_t> Route(const Value& header) override;
  std::shared_ptr<ConnectionEnd> ConnectUpstream(int64_t region) override;
  void HandleUpstreamFrame(const MessagePtr& message) override;
  // Resolves the stream's placement, stamps it into the header and, for a
  // placed stream, sets up its pacer.
  void PrepareStream(SubscribeFrame& frame, Stream& stream) override;
  void OnPathLost(const StreamKey& key) override { ResendFetchesVia(key); }
  // Every uplink send is backbone traffic.
  void OnSendUp(const Message& frame) override;

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
  bool AdmitEnvelope(Stream& stream, const BrassAppDescriptor& descriptor,
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
  // The fetches that went up through `key` will not be answered (the stream
  // left the POP, or its path was lost and repaired): drops waiters whose
  // stream is gone, re-sends each such request through a waiting stream,
  // and erases flights left with no waiter or no outstanding request.
  void ResendFetchesVia(const StreamKey& key);
  void HandleFill(const PopFillFrame& fill);
  // Pushes the resolved payload to the stream's device, stamping the e2e
  // latency fields and opening the "burst.deliver" span the client ends.
  void DeliverToDevice(const StreamKey& key, const Stream& stream, Value payload,
                       const DeliverOptions& options);

  // Metric handles resolved once at construction (docs/PERF.md).
  struct Metrics {
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

  PopId pop_id_;
  ProxyConnector connector_;
  DescriptorLookup descriptors_;
  BurstConfig config_;
  Metrics m_;

  PopPayloadCache cache_;
  std::map<ObjectVersionKey, Flight> flights_;
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_BURST_POP_H_
