// A Pylon server: accepts publishes from WASes and subscribe requests from
// BRASS hosts; consults the replicated subscriber KV store; fans events out.

#ifndef BLADERUNNER_SRC_PYLON_SERVER_H_
#define BLADERUNNER_SRC_PYLON_SERVER_H_

#include <cstdint>
#include <memory>

#include "src/net/rpc.h"
#include "src/net/topology.h"
#include "src/pylon/messages.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"

namespace bladerunner {

class PylonCluster;

class PylonServer {
 public:
  PylonServer(Simulator* sim, PylonCluster* cluster, uint64_t server_id, RegionId region);

  uint64_t server_id() const { return server_id_; }
  RegionId region() const { return region_; }
  RpcServer* rpc() { return &rpc_; }

  void SetAvailable(bool available) { rpc_.SetAvailable(available); }
  bool available() const { return rpc_.available(); }

 private:
  // "pylon.publish": look up subscribers (forward on first replica response,
  // patch stragglers' divergence), then fan the event out to BRASS hosts.
  void HandlePublish(MessagePtr request, RpcServer::Respond respond);

  // "pylon.subscribe": quorum write of the subscription to the replicas.
  // The response ack carries ok=false if the quorum cannot be reached —
  // that is the §4 signal BRASSes propagate to their clients.
  void HandleSubscribe(MessagePtr request, RpcServer::Respond respond);

  // Metric handles resolved once at construction (docs/PERF.md): the
  // publish/fanout path increments through these pointers instead of
  // re-resolving string-keyed registry lookups per event.
  struct Metrics {
    Counter* publishes;
    Counter* fanout_dead_hosts;
    Counter* fanout_sends;
    Histogram* fanout_send_delay_us;
    Counter* fanout_bytes;
    Counter* fanout_bytes_cross_region;
    Counter* fanout_sends_cross_region;
    Counter* kv_read_failures;
    Counter* kv_patches_sent;
    Counter* kv_inconsistencies;
    Counter* subscribes;
    Counter* unsubscribes;
    Counter* quorum_failures;
  };

  SimContext ctx_;
  PylonCluster* cluster_;
  uint64_t server_id_;
  RegionId region_;
  Metrics m_;
  RpcServer rpc_;
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_PYLON_SERVER_H_
