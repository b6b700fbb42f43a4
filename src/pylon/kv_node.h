// Replica node of the distributed in-memory KV store that holds per-topic
// subscriber lists (§3.1).
//
// A node can crash (`Fail`) and later come back (`Recover`), optionally
// losing its table — the Fig. 10 failure mode. While failed or recovering
// it is excluded from replica placement (PylonCluster re-ranks the topic
// onto the surviving per-region pool) and its RPC endpoint is down. A
// recovering node first runs an anti-entropy pass — re-fetching its
// topics' subscriber sets from peer replicas — and only then rejoins
// quorums. `SetAvailable` remains the orthogonal *transient* outage knob
// (network flap): it does not change membership.

#ifndef BLADERUNNER_SRC_PYLON_KV_NODE_H_
#define BLADERUNNER_SRC_PYLON_KV_NODE_H_

#include <cstdint>
#include <set>
#include <unordered_map>

#include "src/net/rpc.h"
#include "src/net/topology.h"
#include "src/pylon/config.h"
#include "src/pylon/messages.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"

namespace bladerunner {

class PylonCluster;

// Crash/recovery lifecycle. Only kLive nodes participate in placement.
enum class KvNodeState {
  kLive,
  kFailed,      // crashed: RPC down, excluded from ReplicasFor
  kRecovering,  // back up but running anti-entropy; not yet in quorums
};

class KvNode {
 public:
  // `cluster` is the PylonCluster that owns the node: it runs the
  // anti-entropy pass of a recovery and tracks membership changes.
  KvNode(Simulator* sim, uint64_t node_id, RegionId region, const PylonConfig* config,
         MetricsRegistry* metrics, PylonCluster* cluster);

  uint64_t node_id() const { return node_id_; }
  RegionId region() const { return region_; }
  RpcServer* rpc() { return &rpc_; }

  void SetAvailable(bool available) { rpc_.SetAvailable(available); }
  bool available() const { return rpc_.available(); }

  // ---- Crash / recovery ----

  // Crash: the RPC endpoint goes down, in-flight handler work dies with
  // this incarnation, and the node leaves the replica pools. No-op unless
  // currently live.
  void Fail();

  // Begin recovery from a crash. With `lose_state` the table is wiped
  // first (process restart on an empty disk). The node then runs an
  // anti-entropy pass against its peers (via the cluster) and only
  // rejoins placement/quorums when that pass completes. No-op unless
  // currently failed.
  void Recover(bool lose_state);

  KvNodeState lifecycle() const { return state_; }

  // True when the node may be chosen as a replica (placement membership).
  bool InQuorumPool() const { return state_ == KvNodeState::kLive; }

  // ---- Anti-entropy merge hooks (called by PylonCluster) ----

  // Merges a peer's subscriber set for one topic: inserts members this
  // node lacks, never drops existing ones.
  void MergeEntry(const Topic& topic, const std::vector<int64_t>& subscribers);

  // Applies a peer's removal record: (topic, subscriber) pairs removed at
  // the peer win over whatever stale membership this node kept or merged.
  void ApplyTombstone(const Topic& topic, int64_t subscriber);

  // Called by the cluster when the anti-entropy pass (or a skipped one)
  // finishes: the node goes live and rejoins placement.
  void FinishRecovery();

  // Direct (test / anti-entropy) access to the stored subscriber set;
  // nullptr when the topic has no entry.
  const std::set<int64_t>* Find(const Topic& topic) const;

  // The topic's mutation version (0 when absent). Bumped by every applied
  // kAdd/kRemove/kPatch; the publish-path divergence patch is guarded on it.
  uint64_t VersionOf(const Topic& topic) const;

  size_t TopicCount() const { return table_.size(); }

 private:
  struct TopicEntry {
    std::set<int64_t> subscribers;
    uint64_t version = 0;
  };

  void HandleOp(MessagePtr request, RpcServer::Respond respond);
  void HandleSnapshot(MessagePtr request, RpcServer::Respond respond);

  // Metric handles resolved once at construction (docs/PERF.md).
  struct Metrics {
    Counter* node_failures;
    Counter* node_state_losses;
    Counter* node_recoveries;
    Counter* anti_entropy_entries_merged;
    Counter* anti_entropy_removals;
    Counter* adds;
    Counter* removes;
    Counter* gets;
    Counter* patch_conflicts;
    Counter* patches;
    Counter* snapshots;
  };

  SimContext ctx_;
  uint64_t node_id_;
  RegionId region_;
  const PylonConfig* config_;
  Metrics m_;
  PylonCluster* cluster_;
  RpcServer rpc_;
  KvNodeState state_ = KvNodeState::kLive;
  // Bumped on every Fail(): handler work scheduled before a crash checks
  // it and does not mutate the post-crash table.
  uint64_t crash_epoch_ = 0;
  std::unordered_map<Topic, TopicEntry> table_;
  // Removed (topic, subscriber) pairs, kept so anti-entropy peers apply
  // remove-wins instead of resurrecting unsubscribed hosts. Re-adding a
  // subscriber clears its tombstone.
  std::unordered_map<Topic, std::set<int64_t>> tombstones_;
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_PYLON_KV_NODE_H_
