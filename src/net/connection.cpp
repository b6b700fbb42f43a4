#include "src/net/connection.h"

#include <algorithm>
#include <cassert>

namespace bladerunner {

const char* ToString(DisconnectReason reason) {
  switch (reason) {
    case DisconnectReason::kLocalClose:
      return "local-close";
    case DisconnectReason::kPeerClose:
      return "peer-close";
    case DisconnectReason::kPeerFailure:
      return "peer-failure";
  }
  return "unknown";
}

struct ConnectionEnd::Shared {
  Simulator* sim = nullptr;
  LatencyModel latency;
  SimTime failure_detection_delay = 0;
  uint64_t connection_id = 0;
};

void ConnectionEnd::Send(MessagePtr message) {
  if (!open_) {
    return;
  }
  Simulator* sim = shared_->sim;
  SimTime delivery = sim->Now() + shared_->latency.Sample(sim->rng());
  // Ordered transport: a message may not overtake the previous one.
  delivery = std::max(delivery, last_scheduled_delivery_ + 1);
  last_scheduled_delivery_ = delivery;
  // Delivery runs in the receiving end's LP; a cross-LP link's latency
  // floor is >= the kernel lookahead, so this is never clamped. The peer
  // is captured weakly and resolved at delivery time *in its own LP*:
  // whether the far end still exists is that LP's state, and reading it
  // here (refcount included) would let intra-round execution order leak
  // into the schedule.
  sim->ScheduleAt(peer_lp_, delivery, [weak = peer_, message]() {
    if (auto peer = weak.lock()) {
      peer->Deliver(message);
    }
  });
}

void ConnectionEnd::Close() {
  if (!open_) {
    return;
  }
  open_ = false;
  // Graceful: the peer learns of the close after in-flight data has drained.
  Simulator* sim = shared_->sim;
  SimTime at = std::max(sim->Now() + shared_->latency.Sample(sim->rng()),
                        last_scheduled_delivery_ + 1);
  sim->ScheduleAt(peer_lp_, at, [weak = peer_]() {
    if (auto peer = weak.lock()) {
      peer->NotifyDisconnect(DisconnectReason::kPeerClose);
    }
  });
}

void ConnectionEnd::Fail() {
  if (!open_) {
    return;
  }
  open_ = false;
  // Messages already in flight toward the survivor keep arriving until it
  // observes the failure (packets in the network do land); messages toward
  // this side are dropped by its open check in Deliver.
  Simulator* sim = shared_->sim;
  sim->ScheduleAt(peer_lp_, sim->Now() + shared_->failure_detection_delay, [weak = peer_]() {
    if (auto peer = weak.lock()) {
      peer->NotifyDisconnect(DisconnectReason::kPeerFailure);
    }
  });
}

uint64_t ConnectionEnd::connection_id() const { return shared_->connection_id; }

void ConnectionEnd::Deliver(MessagePtr message) {
  if (!open_) {
    return;  // this side already closed/failed or observed the peer's end
  }
  if (handler_ != nullptr) {
    handler_->OnMessage(*this, std::move(message));
  }
}

void ConnectionEnd::NotifyDisconnect(DisconnectReason reason) {
  if (!open_) {
    return;  // both sides went down independently; each observed its own end
  }
  open_ = false;
  if (handler_ != nullptr) {
    handler_->OnDisconnect(*this, reason);
  }
}

std::pair<std::shared_ptr<ConnectionEnd>, std::shared_ptr<ConnectionEnd>> CreateConnection(
    Simulator* sim, const LatencyModel& latency, SimTime failure_detection_delay) {
  assert(sim != nullptr);
  auto shared = std::make_shared<ConnectionEnd::Shared>();
  shared->sim = sim;
  shared->latency = latency;
  shared->failure_detection_delay = failure_detection_delay;
  // Ids come from the executing LP's id space, so concurrently reconnecting
  // devices in different LPs draw distinct, deterministic ids.
  shared->connection_id = sim->NextUniqueId();

  // make_shared needs a public constructor; use `new` with the private one.
  std::shared_ptr<ConnectionEnd> a(new ConnectionEnd());
  std::shared_ptr<ConnectionEnd> b(new ConnectionEnd());
  a->shared_ = shared;
  b->shared_ = shared;
  a->peer_ = b;
  b->peer_ = a;
  return {a, b};
}

}  // namespace bladerunner
