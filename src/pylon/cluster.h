// The Pylon deployment: servers and subscriber-KV nodes across regions,
// topic-shard routing, replica placement, and the directory of BRASS hosts
// events are delivered to.

#ifndef BLADERUNNER_SRC_PYLON_CLUSTER_H_
#define BLADERUNNER_SRC_PYLON_CLUSTER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/net/rpc.h"
#include "src/net/topology.h"
#include "src/pylon/config.h"
#include "src/pylon/kv_node.h"
#include "src/pylon/server.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"
#include "src/trace/collector.h"

namespace bladerunner {

// Where Pylon can deliver events: a BRASS host's RPC endpoint.
struct SubscriberHostRef {
  int64_t host_id = 0;
  RegionId region = 0;
  RpcServer* rpc = nullptr;
};

class PylonCluster {
 public:
  PylonCluster(Simulator* sim, const Topology* topology, PylonConfig config,
               MetricsRegistry* metrics, TraceCollector* trace);

  // ---- Topology / routing ----

  // The server owning the topic's shard.
  PylonServer* RouteServer(const Topic& topic);

  // The KV replicas for a topic's subscriber list: one node in the home
  // region, the rest in distinct remote regions (§3.1), each chosen within
  // its region by rendezvous hashing on the topic. Failed/recovering nodes
  // are excluded: rendezvous re-ranks the topic onto the surviving
  // per-region pool, and when a whole region's pool is down the missing
  // replica is backfilled from another region's next-ranked survivors, so
  // the replica set heals around an outage. `assume_live` (used by the
  // anti-entropy pass) computes the placement as if that node had already
  // rejoined.
  std::vector<KvNode*> ReplicasFor(const Topic& topic, RegionId home_region,
                                   const KvNode* assume_live = nullptr);

  // ---- KV crash/recovery coordination (called by KvNode) ----

  void OnKvNodeFailed(KvNode* node);
  void OnKvNodeLive(KvNode* node);

  // Runs the recovering node's anti-entropy pass: fetch snapshots from
  // every live KV node, merge the entries of topics the node will again
  // be a replica of (remove-wins via peer tombstones), then let the node
  // rejoin via FinishRecovery().
  void StartAntiEntropy(KvNode* node);

  size_t NumServers() const { return servers_.size(); }
  PylonServer* ServerAt(size_t i) { return servers_[i].get(); }
  size_t NumKvNodes() const { return kv_nodes_.size(); }
  KvNode* KvNodeAt(size_t i) { return kv_nodes_[i].get(); }

  // ---- Subscriber (BRASS host) directory ----

  void RegisterSubscriberHost(int64_t host_id, RegionId region, RpcServer* rpc);
  void UnregisterSubscriberHost(int64_t host_id);
  const SubscriberHostRef* FindSubscriberHost(int64_t host_id) const;

  // ---- Channels (lazily created, cached per (region, target)) ----

  RpcChannel* ChannelToKv(RegionId from, KvNode* node);
  RpcChannel* ChannelToHost(RegionId from, int64_t host_id);

  // ---- Shared context for servers ----

  Simulator* sim() { return ctx_.sim(); }
  SimContext ctx() const { return ctx_; }
  const Topology* topology() const { return topology_; }
  const PylonConfig& config() const { return config_; }
  MetricsRegistry* metrics() { return metrics_; }
  TraceCollector* trace() { return trace_; }

 private:
  SimContext ctx_;
  const Topology* topology_;
  PylonConfig config_;
  MetricsRegistry* metrics_;
  TraceCollector* trace_;
  // Cached handles (docs/PERF.md): resolved once in the constructor.
  Counter* kv_membership_changes_ = nullptr;
  Counter* kv_anti_entropy_runs_ = nullptr;

  std::vector<std::unique_ptr<PylonServer>> servers_;
  std::vector<std::unique_ptr<KvNode>> kv_nodes_;
  // node ids of KV nodes per region, for per-region rendezvous selection
  std::vector<std::vector<uint64_t>> kv_ids_by_region_;
  std::map<uint64_t, KvNode*> kv_by_id_;

  std::map<int64_t, SubscriberHostRef> subscriber_hosts_;

  std::map<std::pair<RegionId, uint64_t>, std::unique_ptr<RpcChannel>> kv_channels_;
  std::map<std::pair<RegionId, int64_t>, std::unique_ptr<RpcChannel>> host_channels_;
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_PYLON_CLUSTER_H_
