#include "src/net/rpc.h"

#include <cassert>

namespace bladerunner {

const char* ToString(RpcStatus status) {
  switch (status) {
    case RpcStatus::kOk:
      return "ok";
    case RpcStatus::kUnavailable:
      return "unavailable";
    case RpcStatus::kTimeout:
      return "timeout";
  }
  return "unknown";
}

void RpcServer::RegisterMethod(const std::string& name, Method method) {
  methods_[name] = std::move(method);
}

bool RpcServer::HasMethod(const std::string& name) const {
  return methods_.find(name) != methods_.end();
}

void RpcServer::Dispatch(const std::string& method, MessagePtr request, Respond respond) {
  auto it = methods_.find(method);
  assert(it != methods_.end() && "RPC method not registered");
  it->second(std::move(request), std::move(respond));
}

RpcChannel::RpcChannel(SimContext owner, RpcServer* server, LatencyModel one_way)
    : ctx_(owner), server_(server), one_way_(one_way) {
  assert(owner.sim() != nullptr);
}

void RpcChannel::Call(const std::string& method, MessagePtr request,
                      RpcResponseCallback callback, SimTime timeout) {
  // One callback invocation, ever: the timeout and the response race and
  // the loser observes `done`. `done` and the callback are only touched in
  // the owner's LP: the request dispatches into the server's LP, and both
  // terminal paths schedule the callback back into the owner's LP, so a
  // channel held by a partitioned component (a device, a POP) never races
  // the backend LP it calls into.
  auto done = std::make_shared<bool>(false);
  auto cb = std::make_shared<RpcResponseCallback>(std::move(callback));
  LpId owner_lp = ctx_.lp();

  if (timeout > 0) {
    ctx_.Schedule(timeout, [done, cb]() {
      if (*done) {
        return;
      }
      *done = true;
      (*cb)(RpcStatus::kTimeout, nullptr);
    });
  }

  RpcServer* server = server_;
  Simulator* sim = ctx_.sim();
  LatencyModel one_way = one_way_;
  SimTime request_latency = one_way.Sample(sim->rng());
  sim->Schedule(server->lp(), request_latency, [sim, server, one_way, owner_lp, method,
                                                request, done, cb]() {
    if (!server->available()) {
      // Unavailability is observed roughly one round trip after sending.
      sim->Schedule(owner_lp, one_way.Sample(sim->rng()), [done, cb]() {
        if (*done) {
          return;
        }
        *done = true;
        (*cb)(RpcStatus::kUnavailable, nullptr);
      });
      return;
    }
    TraceContext request_trace = request->trace;
    uint64_t incarnation = server->incarnation();
    server->Dispatch(method, request, [sim, server, one_way, owner_lp, done, cb,
                                       incarnation, request_trace](MessagePtr response) {
      // A server that went down before responding never gets to respond —
      // and one that went down and *recovered* in the meantime is a new
      // incarnation whose predecessor's in-flight work died with it.
      if (!server->available() || server->incarnation() != incarnation) {
        return;
      }
      // Responses inherit the request's trace context unless the handler
      // stamped one explicitly, so callers can keep annotating their span.
      if (response != nullptr && !response->trace.valid()) {
        response->trace = request_trace;
      }
      sim->Schedule(owner_lp, one_way.Sample(sim->rng()), [done, cb, response]() {
        if (*done) {
          return;
        }
        *done = true;
        (*cb)(RpcStatus::kOk, response);
      });
    });
  });
}

}  // namespace bladerunner
