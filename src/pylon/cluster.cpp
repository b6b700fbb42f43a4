#include "src/pylon/cluster.h"

#include <algorithm>
#include <cassert>

#include "src/pylon/rendezvous.h"
#include "src/pylon/topic.h"

namespace bladerunner {

PylonCluster::PylonCluster(Simulator* sim, const Topology* topology, PylonConfig config,
                           MetricsRegistry* metrics, TraceCollector* trace)
    : ctx_(sim), topology_(topology), config_(std::move(config)), metrics_(metrics),
      trace_(trace) {
  assert(ctx_.sim() != nullptr && topology_ != nullptr && metrics_ != nullptr);
  assert(trace_ != nullptr);
  kv_membership_changes_ = &metrics_->GetCounter("pylon.kv_membership_changes");
  kv_anti_entropy_runs_ = &metrics_->GetCounter("pylon.kv_anti_entropy_runs");
  int regions = topology_->num_regions();
  kv_ids_by_region_.resize(static_cast<size_t>(regions));
  uint64_t next_server_id = 1;
  uint64_t next_kv_id = 1;
  for (RegionId r = 0; r < regions; ++r) {
    for (int i = 0; i < config_.servers_per_region; ++i) {
      servers_.push_back(std::make_unique<PylonServer>(ctx_.sim(), this, next_server_id++, r));
    }
    for (int i = 0; i < config_.kv_nodes_per_region; ++i) {
      auto node = std::make_unique<KvNode>(ctx_.sim(), next_kv_id, r, &config_, metrics_, this);
      kv_ids_by_region_[static_cast<size_t>(r)].push_back(next_kv_id);
      kv_by_id_[next_kv_id] = node.get();
      kv_nodes_.push_back(std::move(node));
      ++next_kv_id;
    }
  }
}

PylonServer* PylonCluster::RouteServer(const Topic& topic) {
  uint32_t shard = TopicShard(topic, config_.num_topic_shards);
  return servers_[shard % servers_.size()].get();
}

std::vector<KvNode*> PylonCluster::ReplicasFor(const Topic& topic, RegionId home_region,
                                               const KvNode* assume_live) {
  std::vector<KvNode*> replicas;
  int regions = topology_->num_regions();
  int wanted = std::min(config_.replication_factor, static_cast<int>(kv_by_id_.size()));
  // Live (placement-eligible) node ids per region; the rendezvous re-rank
  // onto this surviving pool is what heals a replica set around a crash.
  std::vector<std::vector<uint64_t>> pools(static_cast<size_t>(regions));
  for (RegionId r = 0; r < regions; ++r) {
    for (uint64_t id : kv_ids_by_region_[static_cast<size_t>(r)]) {
      KvNode* node = kv_by_id_.at(id);
      if (node->InQuorumPool() || node == assume_live) {
        pools[static_cast<size_t>(r)].push_back(id);
      }
    }
  }
  // Rank-major, region-stepping from home: first the top-ranked survivor
  // of each region (the §3.1 one-per-region placement), then — only if
  // whole regions are down — next-ranked survivors as backfill.
  for (size_t rank = 0; static_cast<int>(replicas.size()) < wanted; ++rank) {
    bool placed_any = false;
    for (int step = 0; step < regions && static_cast<int>(replicas.size()) < wanted; ++step) {
      RegionId r = (home_region + step) % regions;
      const auto& pool = pools[static_cast<size_t>(r)];
      if (pool.size() <= rank) {
        continue;
      }
      std::vector<uint64_t> chosen = RendezvousTopK(topic, pool, rank + 1);
      replicas.push_back(kv_by_id_.at(chosen[rank]));
      placed_any = true;
    }
    if (!placed_any) {
      break;  // every surviving node already placed
    }
  }
  return replicas;
}

void PylonCluster::OnKvNodeFailed(KvNode* node) {
  (void)node;
  kv_membership_changes_->Increment();
}

void PylonCluster::OnKvNodeLive(KvNode* node) {
  (void)node;
  kv_membership_changes_->Increment();
}

void PylonCluster::StartAntiEntropy(KvNode* node) {
  kv_anti_entropy_runs_->Increment();
  // Snapshot every live node, not just the node's current peers: writes
  // that landed on a stand-in replica while this node was down must be
  // handed back when placement flips to the recovered node.
  std::vector<KvNode*> peers;
  for (auto& candidate : kv_nodes_) {
    if (candidate.get() != node && candidate->InQuorumPool()) {
      peers.push_back(candidate.get());
    }
  }
  if (peers.empty()) {
    node->FinishRecovery();
    return;
  }
  auto remaining = std::make_shared<size_t>(peers.size());
  for (KvNode* peer : peers) {
    ChannelToKv(node->region(), peer)->Call(
        "kv.snapshot", std::make_shared<KvSnapshotRequest>(),
        [this, node, remaining](RpcStatus status, MessagePtr response) {
          if (status == RpcStatus::kOk) {
            auto snapshot = std::static_pointer_cast<KvSnapshotResponse>(response);
            for (const KvSnapshotEntry& entry : snapshot->entries) {
              // Merge only topics the node will again be a replica of
              // once live; the rest belong to other survivors.
              RegionId home = RouteServer(entry.topic)->region();
              std::vector<KvNode*> placed = ReplicasFor(entry.topic, home, node);
              bool is_replica = false;
              for (KvNode* replica : placed) {
                is_replica |= replica == node;
              }
              if (is_replica) {
                node->MergeEntry(entry.topic, entry.subscribers);
              }
            }
            // Remove-wins: removals peers saw while this node was down
            // override stale or just-merged membership.
            for (const auto& [topic, subscriber] : snapshot->tombstones) {
              node->ApplyTombstone(topic, subscriber);
            }
          }
          if (--*remaining == 0) {
            node->FinishRecovery();
          }
        },
        config_.kv_snapshot_timeout);
  }
}

void PylonCluster::RegisterSubscriberHost(int64_t host_id, RegionId region, RpcServer* rpc) {
  subscriber_hosts_[host_id] = SubscriberHostRef{host_id, region, rpc};
}

void PylonCluster::UnregisterSubscriberHost(int64_t host_id) {
  subscriber_hosts_.erase(host_id);
  // Channels pointing at the host become stale; drop them so a reused id
  // cannot reach the dead server object.
  for (auto it = host_channels_.begin(); it != host_channels_.end();) {
    if (it->first.second == host_id) {
      it = host_channels_.erase(it);
    } else {
      ++it;
    }
  }
}

const SubscriberHostRef* PylonCluster::FindSubscriberHost(int64_t host_id) const {
  auto it = subscriber_hosts_.find(host_id);
  return it == subscriber_hosts_.end() ? nullptr : &it->second;
}

RpcChannel* PylonCluster::ChannelToKv(RegionId from, KvNode* node) {
  auto key = std::make_pair(from, node->node_id());
  auto it = kv_channels_.find(key);
  if (it == kv_channels_.end()) {
    auto channel = std::make_unique<RpcChannel>(ctx_, node->rpc(),
                                                topology_->LinkModel(from, node->region()));
    it = kv_channels_.emplace(key, std::move(channel)).first;
  }
  return it->second.get();
}

RpcChannel* PylonCluster::ChannelToHost(RegionId from, int64_t host_id) {
  const SubscriberHostRef* ref = FindSubscriberHost(host_id);
  if (ref == nullptr) {
    return nullptr;
  }
  auto key = std::make_pair(from, host_id);
  auto it = host_channels_.find(key);
  if (it == host_channels_.end()) {
    auto channel =
        std::make_unique<RpcChannel>(ctx_, ref->rpc, topology_->LinkModel(from, ref->region));
    it = host_channels_.emplace(key, std::move(channel)).first;
  }
  return it->second.get();
}

}  // namespace bladerunner
