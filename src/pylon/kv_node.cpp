#include "src/pylon/kv_node.h"

#include <cassert>

#include "src/pylon/cluster.h"

namespace bladerunner {

KvNode::KvNode(Simulator* sim, uint64_t node_id, RegionId region, const PylonConfig* config,
               MetricsRegistry* metrics, PylonCluster* cluster)
    : ctx_(sim), node_id_(node_id), region_(region), config_(config), cluster_(cluster) {
  assert(cluster_ != nullptr);
  m_.node_failures = &metrics->GetCounter("pylon.kv_node_failures");
  m_.node_state_losses = &metrics->GetCounter("pylon.kv_node_state_losses");
  m_.node_recoveries = &metrics->GetCounter("pylon.kv_node_recoveries");
  m_.anti_entropy_entries_merged =
      &metrics->GetCounter("pylon.kv_anti_entropy_entries_merged");
  m_.anti_entropy_removals = &metrics->GetCounter("pylon.kv_anti_entropy_removals");
  m_.adds = &metrics->GetCounter("pylon.kv_adds");
  m_.removes = &metrics->GetCounter("pylon.kv_removes");
  m_.gets = &metrics->GetCounter("pylon.kv_gets");
  m_.patch_conflicts = &metrics->GetCounter("pylon.kv_patch_conflicts");
  m_.patches = &metrics->GetCounter("pylon.kv_patches");
  m_.snapshots = &metrics->GetCounter("pylon.kv_snapshots");
  rpc_.RegisterMethod("kv.op", [this](MessagePtr request, RpcServer::Respond respond) {
    HandleOp(std::move(request), std::move(respond));
  });
  rpc_.RegisterMethod("kv.snapshot", [this](MessagePtr request, RpcServer::Respond respond) {
    HandleSnapshot(std::move(request), std::move(respond));
  });
}

const std::set<int64_t>* KvNode::Find(const Topic& topic) const {
  auto it = table_.find(topic);
  return it == table_.end() ? nullptr : &it->second.subscribers;
}

uint64_t KvNode::VersionOf(const Topic& topic) const {
  auto it = table_.find(topic);
  return it == table_.end() ? 0 : it->second.version;
}

void KvNode::Fail() {
  if (state_ != KvNodeState::kLive) {
    return;
  }
  state_ = KvNodeState::kFailed;
  ++crash_epoch_;
  rpc_.SetAvailable(false);
  m_.node_failures->Increment();
  cluster_->OnKvNodeFailed(this);
}

void KvNode::Recover(bool lose_state) {
  if (state_ != KvNodeState::kFailed) {
    return;
  }
  if (lose_state) {
    table_.clear();
    tombstones_.clear();
    m_.node_state_losses->Increment();
  }
  state_ = KvNodeState::kRecovering;
  m_.node_recoveries->Increment();
  // The cluster fetches peer snapshots and calls FinishRecovery() when the
  // pass completes; until then the node stays out of quorums.
  cluster_->StartAntiEntropy(this);
}

void KvNode::FinishRecovery() {
  if (state_ != KvNodeState::kRecovering) {
    return;
  }
  state_ = KvNodeState::kLive;
  rpc_.SetAvailable(true);
  cluster_->OnKvNodeLive(this);
}

void KvNode::MergeEntry(const Topic& topic, const std::vector<int64_t>& subscribers) {
  TopicEntry& entry = table_[topic];
  bool changed = false;
  for (int64_t subscriber : subscribers) {
    changed |= entry.subscribers.insert(subscriber).second;
  }
  if (changed) {
    ++entry.version;
    m_.anti_entropy_entries_merged->Increment();
  }
}

void KvNode::ApplyTombstone(const Topic& topic, int64_t subscriber) {
  auto it = table_.find(topic);
  if (it == table_.end()) {
    return;
  }
  if (it->second.subscribers.erase(subscriber) > 0) {
    ++it->second.version;
    m_.anti_entropy_removals->Increment();
    if (it->second.subscribers.empty()) {
      table_.erase(it);
    }
  }
}

void KvNode::HandleOp(MessagePtr request, RpcServer::Respond respond) {
  auto op = std::static_pointer_cast<KvOpRequest>(request);
  // Apply after the node's service time. Work in the service pipeline when
  // the node crashes dies with that incarnation: the epoch check below.
  uint64_t epoch = crash_epoch_;
  LatencyModel service{config_->kv_service_ms, 0.3, config_->kv_service_ms / 4.0};
  ctx_.Schedule(service.Sample(ctx_.rng()), [this, op, epoch,
                                               respond = std::move(respond)]() {
    if (epoch != crash_epoch_) {
      return;  // the node crashed while this op was in service
    }
    auto response = std::make_shared<KvOpResponse>();
    switch (op->op) {
      case KvOpRequest::Op::kAdd: {
        TopicEntry& entry = table_[op->topic];
        entry.subscribers.insert(op->subscriber);
        ++entry.version;
        response->version = entry.version;
        auto tomb = tombstones_.find(op->topic);
        if (tomb != tombstones_.end()) {
          tomb->second.erase(op->subscriber);
          if (tomb->second.empty()) {
            tombstones_.erase(tomb);
          }
        }
        m_.adds->Increment();
        break;
      }
      case KvOpRequest::Op::kRemove: {
        auto it = table_.find(op->topic);
        if (it != table_.end() && it->second.subscribers.erase(op->subscriber) > 0) {
          ++it->second.version;
          response->version = it->second.version;
          if (it->second.subscribers.empty()) {
            table_.erase(it);
          }
        }
        // Tombstone the removal so a replica that was crashed while it
        // happened cannot resurrect the subscriber via anti-entropy.
        tombstones_[op->topic].insert(op->subscriber);
        m_.removes->Increment();
        break;
      }
      case KvOpRequest::Op::kGet: {
        auto it = table_.find(op->topic);
        if (it != table_.end()) {
          response->subscribers.assign(it->second.subscribers.begin(),
                                       it->second.subscribers.end());
          response->version = it->second.version;
        }
        m_.gets->Increment();
        break;
      }
      case KvOpRequest::Op::kPatch: {
        // Divergence repair from the publish path. Version-guarded and
        // additive: apply only if no kAdd/kRemove landed since the kGet
        // the patch was computed from, and never drop members.
        uint64_t current = VersionOf(op->topic);
        if (current != op->base_version) {
          m_.patch_conflicts->Increment();
          response->ok = false;
          break;
        }
        TopicEntry& entry = table_[op->topic];
        bool changed = false;
        for (int64_t subscriber : op->replacement) {
          auto tomb = tombstones_.find(op->topic);
          if (tomb != tombstones_.end() && tomb->second.count(subscriber) > 0) {
            continue;  // removed here since the divergent view formed
          }
          changed |= entry.subscribers.insert(subscriber).second;
        }
        if (changed) {
          ++entry.version;
        } else if (entry.subscribers.empty()) {
          table_.erase(op->topic);  // do not keep an empty entry around
        }
        response->version = VersionOf(op->topic);
        m_.patches->Increment();
        break;
      }
    }
    respond(response);
  });
}

void KvNode::HandleSnapshot(MessagePtr request, RpcServer::Respond respond) {
  (void)request;
  // Snapshots serve a recovering peer's anti-entropy pass; one service
  // time covers the (simulated) table scan.
  uint64_t epoch = crash_epoch_;
  LatencyModel service{config_->kv_service_ms, 0.3, config_->kv_service_ms / 4.0};
  ctx_.Schedule(service.Sample(ctx_.rng()), [this, epoch, respond = std::move(respond)]() {
    if (epoch != crash_epoch_) {
      return;
    }
    auto response = std::make_shared<KvSnapshotResponse>();
    response->entries.reserve(table_.size());
    for (const auto& [topic, entry] : table_) {
      KvSnapshotEntry out;
      out.topic = topic;
      out.subscribers.assign(entry.subscribers.begin(), entry.subscribers.end());
      response->entries.push_back(std::move(out));
    }
    for (const auto& [topic, removed] : tombstones_) {
      for (int64_t subscriber : removed) {
        response->tombstones.emplace_back(topic, subscriber);
      }
    }
    m_.snapshots->Increment();
    respond(response);
  });
}

}  // namespace bladerunner
