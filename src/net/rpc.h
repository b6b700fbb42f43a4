// Asynchronous RPC between backend components.
//
// Backend services (TAO, WAS, Pylon, BRASS hosts) talk over datacenter
// networks whose transport reliability the paper treats as a baseline
// assumption (§1, "backend communication and services exhibit a baseline of
// reliability"). We therefore model backend calls as latency-sampled
// request/response pairs with optional unavailability and timeouts, rather
// than as full connections.

#ifndef BLADERUNNER_SRC_NET_RPC_H_
#define BLADERUNNER_SRC_NET_RPC_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "src/net/latency.h"
#include "src/net/message.h"
#include "src/sim/simulator.h"

namespace bladerunner {

enum class RpcStatus {
  kOk,
  kUnavailable,  // server down or refused
  kTimeout,      // no response within the deadline
};

const char* ToString(RpcStatus status);

using RpcResponseCallback = std::function<void(RpcStatus, MessagePtr)>;

// Server-side dispatch table. A service registers one handler per method;
// the handler eventually calls `respond` exactly once (possibly after its
// own downstream async calls).
class RpcServer {
 public:
  using Respond = std::function<void(MessagePtr)>;
  using Method = std::function<void(MessagePtr request, Respond respond)>;

  void RegisterMethod(const std::string& name, Method method);
  bool HasMethod(const std::string& name) const;

  // Marks the server down/up. Calls to a down server fail kUnavailable
  // (after the request latency, as in a connection refused / no route).
  // Going down starts a new incarnation: work dispatched before the
  // outage can never respond after it, even if the server comes back up
  // first — a crashed process does not resume its in-flight handlers.
  void SetAvailable(bool available) {
    if (available_ && !available) {
      ++incarnation_;
    }
    available_ = available;
  }
  bool available() const { return available_; }
  uint64_t incarnation() const { return incarnation_; }

  // Declares the LP this server's handlers execute in (default: the global
  // LP, where all backend services live). Channels dispatch requests into
  // this LP and route responses back to the caller's LP.
  void BindLp(LpId lp) { lp_ = lp; }
  LpId lp() const { return lp_; }

 private:
  friend class RpcChannel;
  void Dispatch(const std::string& method, MessagePtr request, Respond respond);

  std::map<std::string, Method> methods_;
  bool available_ = true;
  uint64_t incarnation_ = 0;
  LpId lp_ = kGlobalLp;
};

// Client-side handle to one server over one link latency model. `owner` is
// the context of the component that holds the channel: replies and
// timeouts run in its LP, wherever Call() is issued from.
class RpcChannel {
 public:
  RpcChannel(SimContext owner, RpcServer* server, LatencyModel one_way);

  // Issues `method(request)`; `callback` runs exactly once with the result.
  // `timeout` bounds the total round trip; 0 means no timeout.
  void Call(const std::string& method, MessagePtr request, RpcResponseCallback callback,
            SimTime timeout = 0);

  // Points this channel at a different server (e.g. failover to another
  // Pylon replica). In-flight calls still complete against the old server.
  void Retarget(RpcServer* server) { server_ = server; }

  RpcServer* server() const { return server_; }

 private:
  SimContext ctx_;
  RpcServer* server_;
  LatencyModel one_way_;
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_NET_RPC_H_
