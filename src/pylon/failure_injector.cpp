#include "src/pylon/failure_injector.h"

#include <algorithm>
#include <cassert>

namespace bladerunner {

KvFailureInjector::KvFailureInjector(PylonCluster* pylon, KvFailureInjectorConfig config)
    : pylon_(pylon), config_(config), rng_(config.seed) {
  assert(pylon_ != nullptr);
}

void KvFailureInjector::Start() {
  size_t num_nodes = pylon_->NumKvNodes();
  if (num_nodes == 0) {
    return;
  }
  // Precompute the whole campaign up front: every draw comes from the
  // injector's own Rng in a fixed order, so the schedule is a pure function
  // of the seed and cannot be perturbed by the simulation's other events.
  std::vector<SimTime> busy_until(num_nodes, 0);
  SimTime at = 0;
  while (true) {
    at += SecondsF(rng_.Exponential(ToSeconds(config_.mean_time_between_failures)));
    if (at >= config_.duration) {
      break;
    }
    int victims = rng_.Bernoulli(config_.correlated_failure_probability) ? 2 : 1;
    for (int v = 0; v < victims; ++v) {
      // Pick among nodes not already down (or recovering) at this instant;
      // Fail() on a non-live node is a no-op, so skipping keeps the
      // recorded campaign equal to what actually executes.
      std::vector<size_t> free;
      for (size_t i = 0; i < num_nodes; ++i) {
        if (busy_until[i] <= at) {
          free.push_back(i);
        }
      }
      if (free.empty()) {
        break;
      }
      Outage outage;
      outage.node_index = free[rng_.Index(free.size())];
      outage.at = at;
      outage.duration = std::max(
          config_.min_outage, SecondsF(rng_.Exponential(ToSeconds(config_.mean_outage))));
      outage.state_loss = rng_.Bernoulli(config_.state_loss_probability);
      busy_until[outage.node_index] = at + outage.duration;
      outages_.push_back(outage);
    }
  }
  SimContext ctx = pylon_->ctx();
  for (const Outage& outage : outages_) {
    KvNode* node = pylon_->KvNodeAt(outage.node_index);
    ctx.Schedule(outage.at, [node]() { node->Fail(); });
    ctx.Schedule(outage.at + outage.duration,
                 [node, lose = outage.state_loss]() { node->Recover(lose); });
  }
}

}  // namespace bladerunner
