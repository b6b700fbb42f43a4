#include "src/brass/router.h"

#include <algorithm>
#include <cassert>

#include "src/pylon/topic.h"

namespace bladerunner {

BrassRouter::BrassRouter(Simulator* sim, const Topology* topology,
                         const BrassAppRegistry* registry, BurstConfig burst_config)
    : ctx_(sim), topology_(topology), registry_(registry), burst_config_(burst_config) {
  assert(ctx_.sim() != nullptr && topology_ != nullptr && registry_ != nullptr);
}

void BrassRouter::RegisterHost(BrassHost* host) {
  hosts_.push_back(host);
  by_id_[host->host_id()] = host;
}

BrassHost* BrassRouter::FindHost(int64_t host_id) const {
  auto it = by_id_.find(host_id);
  return it == by_id_.end() ? nullptr : it->second;
}

int64_t BrassRouter::PickHost(const StreamHeaderView& header) {
  const std::string& app = header.app();
  RegionId preferred = static_cast<RegionId>(header.region(-1));

  // Candidates: the routable hosts (alive and not mid-drain; a draining
  // host still serves its existing streams but must not receive new ones)
  // in the stream's region, or every routable host if that region has none.
  std::vector<BrassHost*> routable;
  std::vector<BrassHost*> candidates;
  for (BrassHost* host : hosts_) {
    if (host->alive() && !host->draining()) {
      routable.push_back(host);
      if (preferred < 0 || host->region() == preferred) {
        candidates.push_back(host);
      }
    }
  }
  if (candidates.empty()) {
    candidates = std::move(routable);
  }
  if (candidates.empty()) {
    return 0;
  }

  BrassRoutingPolicy policy = BrassRoutingPolicy::kByLoad;
  if (auto it = registry_->find(app); it != registry_->end()) {
    policy = it->second.descriptor.routing;
  }
  if (policy == BrassRoutingPolicy::kByTopic) {
    // Topic-based routing keeps all streams of one topic on one host,
    // curtailing the number of Pylon subscriptions (§3.2).
    const std::string& topic = header.subscription();
    uint64_t h = TopicHash(app + "|" + topic);
    return candidates[h % candidates.size()]->host_id();
  }
  // Load-based: least streams. Stream counts only update once a subscribe
  // reaches its host, so a burst of picks in one instant would all see the
  // same counts and pile onto one host; rotate among the tied minimum to
  // spread such bursts.
  size_t min_load = SIZE_MAX;
  for (BrassHost* host : candidates) {
    min_load = std::min(min_load, host->StreamCount());
  }
  std::vector<BrassHost*> tied;
  for (BrassHost* host : candidates) {
    if (host->StreamCount() == min_load) {
      tied.push_back(host);
    }
  }
  return tied[round_robin_++ % tied.size()]->host_id();
}

bool BrassRouter::IsHostAlive(int64_t host_id) const {
  // Draining hosts count as gone for stickiness: resubscribes must move to
  // another host even while the draining host finishes serving.
  BrassHost* host = FindHost(host_id);
  return host != nullptr && host->alive() && !host->draining();
}

std::shared_ptr<ConnectionEnd> BrassRouter::ConnectToHost(ReverseProxy* proxy, int64_t host_id) {
  BrassHost* host = FindHost(host_id);
  if (host == nullptr || !host->alive()) {
    return nullptr;
  }
  auto [proxy_end, host_end] = CreateConnection(
      ctx_.sim(), topology_->LinkModel(proxy->region(), host->region()),
      burst_config_.failure_detection_delay);
  host->burst()->AttachProxyConnection(std::move(host_end));
  return proxy_end;
}

}  // namespace bladerunner
