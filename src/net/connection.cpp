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
  bool open = true;
  // Bumped on abrupt failure so already-scheduled deliveries are dropped.
  uint64_t epoch = 0;
  uint64_t connection_id = 0;
};

void ConnectionEnd::Send(MessagePtr message) {
  Simulator* sim = shared_->sim;
  if (sim->partitioned()) {
    if (!open_local_) {
      return;
    }
    SimTime delivery = sim->Now() + shared_->latency.Sample(sim->rng());
    delivery = std::max(delivery, last_scheduled_delivery_ + 1);
    last_scheduled_delivery_ = delivery;
    // Delivery runs in the receiving end's LP; a cross-LP link's latency
    // floor is >= the kernel lookahead, so this is never clamped. The peer
    // is captured weakly and resolved at delivery time *in its own LP*:
    // whether the far end still exists is that LP's state, and reading it
    // here (refcount included) would let intra-round execution order leak
    // into the schedule.
    sim->ScheduleAt(peer_lp_, delivery,
                    [weak = peer_, message]() {
                      if (auto peer = weak.lock()) {
                        peer->DeliverPartitioned(message);
                      }
                    });
    return;
  }
  if (!shared_->open) {
    return;  // lost: the link is gone even if we have not observed it yet
  }
  auto peer = peer_.lock();
  if (!peer) {
    return;
  }
  SimTime delivery = sim->Now() + shared_->latency.Sample(sim->rng());
  // Ordered transport: a message may not overtake the previous one.
  delivery = std::max(delivery, last_scheduled_delivery_ + 1);
  last_scheduled_delivery_ = delivery;
  uint64_t epoch = shared_->epoch;
  sim->ScheduleAt(kGlobalLp, delivery,
                  [peer, message, epoch]() { peer->Deliver(message, epoch); });
}

void ConnectionEnd::Close() {
  Simulator* sim = shared_->sim;
  if (sim->partitioned()) {
    if (!open_local_) {
      return;
    }
    open_local_ = false;
    SimTime at = std::max(sim->Now() + shared_->latency.Sample(sim->rng()),
                          last_scheduled_delivery_ + 1);
    sim->ScheduleAt(peer_lp_, at, [weak = peer_]() {
      if (auto peer = weak.lock()) {
        peer->NotifyDisconnectPartitioned(DisconnectReason::kPeerClose);
      }
    });
    return;
  }
  if (!shared_->open) {
    return;
  }
  shared_->open = false;
  auto peer = peer_.lock();
  if (!peer) {
    return;
  }
  // Graceful: the peer learns of the close after in-flight data has drained.
  SimTime at = std::max(sim->Now() + shared_->latency.Sample(sim->rng()),
                        last_scheduled_delivery_ + 1);
  uint64_t epoch = shared_->epoch;
  sim->ScheduleAt(kGlobalLp, at, [peer, epoch]() {
    peer->NotifyDisconnect(DisconnectReason::kPeerClose, epoch);
  });
}

void ConnectionEnd::Fail() {
  Simulator* sim = shared_->sim;
  if (sim->partitioned()) {
    if (!open_local_) {
      return;
    }
    open_local_ = false;
    // Messages already in flight toward the survivor keep arriving until
    // it observes the failure (packets in the network do land); messages
    // toward the failed side are dropped by its open check in Deliver.
    sim->ScheduleAt(peer_lp_, sim->Now() + shared_->failure_detection_delay,
                    [weak = peer_]() {
                      if (auto peer = weak.lock()) {
                        peer->NotifyDisconnectPartitioned(DisconnectReason::kPeerFailure);
                      }
                    });
    return;
  }
  if (!shared_->open) {
    return;
  }
  shared_->open = false;
  uint64_t failed_epoch = shared_->epoch;
  shared_->epoch += 1;  // drop everything already in flight, both directions
  auto peer = peer_.lock();
  if (!peer) {
    return;
  }
  sim->Schedule(kGlobalLp, shared_->failure_detection_delay, [peer, failed_epoch]() {
    peer->NotifyDisconnect(DisconnectReason::kPeerFailure, failed_epoch);
  });
}

bool ConnectionEnd::open() const {
  return shared_->sim->partitioned() ? open_local_ : shared_->open;
}

uint64_t ConnectionEnd::connection_id() const { return shared_->connection_id; }

void ConnectionEnd::Deliver(MessagePtr message, uint64_t epoch) {
  if (epoch != shared_->epoch) {
    return;  // the connection failed while this message was in flight
  }
  if (handler_ != nullptr) {
    handler_->OnMessage(*this, std::move(message));
  }
}

void ConnectionEnd::DeliverPartitioned(MessagePtr message) {
  if (!open_local_) {
    return;  // this side already closed/failed or observed the peer's end
  }
  if (handler_ != nullptr) {
    handler_->OnMessage(*this, std::move(message));
  }
}

void ConnectionEnd::NotifyDisconnectPartitioned(DisconnectReason reason) {
  if (!open_local_) {
    return;  // both sides went down independently; each observed its own end
  }
  open_local_ = false;
  if (handler_ != nullptr) {
    handler_->OnDisconnect(*this, reason);
  }
}

void ConnectionEnd::NotifyDisconnect(DisconnectReason reason, uint64_t epoch) {
  // A failure bumps the epoch *at fail time*; the notification carries the
  // pre-failure epoch, so compare against epoch+1 for failures. Simpler: a
  // disconnect is delivered exactly once and only if this side still has a
  // handler; duplicate notifications cannot occur because Close()/Fail()
  // fire at most once (guarded by shared_->open).
  (void)epoch;
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
