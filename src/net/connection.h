// Simulated bidirectional, ordered, failable connections.
//
// A Connection models one transport link (TCP/QUIC equivalent) between two
// simulated nodes, e.g. device <-> POP or POP <-> reverse proxy. Messages
// are delivered in order after a sampled one-way latency. A connection can
// be closed gracefully or failed abruptly, and each end keeps its own view
// of the link (§4: every participant learns of a failure on its own side):
//
//  * an end is open until it closes or fails itself, or observes the
//    peer's disconnect; open() reports that view, never the peer's;
//  * a send from a closed end is lost, and so is a message that reaches an
//    end after it closed;
//  * messages already in flight toward a surviving end keep arriving until
//    it observes the disconnect: after a graceful close they drain before
//    the notification, after an abrupt failure the notification comes a
//    detection delay later — the window in which Bladerunner can lose
//    updates, so modeling it faithfully matters.
//
// LP affinity (src/sim/lp.h): each end is bound to the LP its handler
// executes in (BindLp; default the global LP), and everything delivered to
// an end runs in its LP. The ends share no mutable state, so the rules are
// the same whether both ends sit in one LP or in two; a link whose ends
// are in different LPs must have a latency floor at or above the kernel
// lookahead.

#ifndef BLADERUNNER_SRC_NET_CONNECTION_H_
#define BLADERUNNER_SRC_NET_CONNECTION_H_

#include <cstdint>
#include <memory>
#include <utility>

#include "src/net/latency.h"
#include "src/net/message.h"
#include "src/sim/simulator.h"

namespace bladerunner {

class ConnectionEnd;

enum class DisconnectReason {
  kLocalClose,   // this side called Close()
  kPeerClose,    // the peer closed gracefully
  kPeerFailure,  // the peer (or the link) failed abruptly
};

const char* ToString(DisconnectReason reason);

// Receiver interface for one side of a connection. Both callbacks pass the
// *local* end the event arrived on, so a node holding many connections can
// tell them apart.
class ConnectionHandler {
 public:
  virtual ~ConnectionHandler() = default;
  virtual void OnMessage(ConnectionEnd& on, MessagePtr message) = 0;
  virtual void OnDisconnect(ConnectionEnd& on, DisconnectReason reason) = 0;
};

// One side of a connection. Obtain pairs via CreateConnection().
class ConnectionEnd : public std::enable_shared_from_this<ConnectionEnd> {
 public:
  ~ConnectionEnd() = default;
  ConnectionEnd(const ConnectionEnd&) = delete;
  ConnectionEnd& operator=(const ConnectionEnd&) = delete;

  // Must be set before the first message can be delivered to this side.
  void set_handler(ConnectionHandler* handler) { handler_ = handler; }

  // Declares the LP this end's handler executes in. Must be called before
  // the first message flows (typically right after CreateConnection) and is
  // immutable afterwards; deliveries to this end are scheduled into its LP.
  void BindLp(LpId lp) {
    lp_ = lp;
    if (auto p = peer_.lock()) {
      p->peer_lp_ = lp;
    }
  }
  LpId lp() const { return lp_; }

  // Sends a message to the peer; delivered in order after sampled latency.
  // Silently dropped if this end is closed, or if the peer has closed by
  // the time it arrives (as on a real socket whose failure this side has
  // not observed yet).
  void Send(MessagePtr message);

  // Graceful close: the peer receives OnDisconnect(kPeerClose) after all
  // messages this end sent have drained.
  void Close();

  // Abrupt failure (process crash, radio loss): messages in flight toward
  // this end are lost, those toward the peer still arrive, and the peer
  // receives OnDisconnect(kPeerFailure) after a detection delay (heartbeat
  // timeout).
  void Fail();

  // This end's view: false once it closed or failed, or observed the peer's
  // disconnect.
  bool open() const { return open_; }

  // Sequence number of connection, unique per simulation; handy as map key.
  uint64_t connection_id() const;

  std::shared_ptr<ConnectionEnd> peer() const { return peer_.lock(); }

 private:
  friend std::pair<std::shared_ptr<ConnectionEnd>, std::shared_ptr<ConnectionEnd>>
  CreateConnection(Simulator* sim, const LatencyModel& latency, SimTime failure_detection_delay);

  struct Shared;  // immutable link parameters common to both ends
  ConnectionEnd() = default;

  // Run in this end's LP, scheduled by the peer.
  void Deliver(MessagePtr message);
  void NotifyDisconnect(DisconnectReason reason);

  ConnectionHandler* handler_ = nullptr;
  std::weak_ptr<ConnectionEnd> peer_;
  std::shared_ptr<const Shared> shared_;
  SimTime last_scheduled_delivery_ = 0;  // enforces in-order delivery to peer
  LpId lp_ = kGlobalLp;
  // Mirror of the peer end's lp_ (maintained by BindLp). Sends schedule
  // deliveries into this LP without touching the peer object: the peer's
  // liveness is its own LP's state, and observing it from the sending LP
  // (e.g. via peer_.lock()) would make the outcome depend on intra-round
  // execution order.
  LpId peer_lp_ = kGlobalLp;
  bool open_ = true;
};

// Creates a connected pair of ends. `failure_detection_delay` is how long a
// surviving side takes to notice an abrupt peer failure (heartbeat timeout;
// the paper notes TCP's own detection "may take too long", §4 footnote).
std::pair<std::shared_ptr<ConnectionEnd>, std::shared_ptr<ConnectionEnd>> CreateConnection(
    Simulator* sim, const LatencyModel& latency, SimTime failure_detection_delay = Millis(500));

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_NET_CONNECTION_H_
