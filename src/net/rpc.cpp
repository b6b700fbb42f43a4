#include "src/net/rpc.h"

#include <cassert>
#include <utility>

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

namespace {

// One call's completion: the callback until the call completes, and nothing
// after. The path that completes the call moves the callback out, runs it
// and destroys it, so the events still holding the state (a deadline that
// fires after the reply) keep none of the callback's captures alive.
struct CallState {
  bool done = false;
  RpcResponseCallback callback;

  void Complete(RpcStatus status, MessagePtr response) {
    if (done) {
      return;
    }
    done = true;
    RpcResponseCallback run = std::move(callback);
    callback = nullptr;
    run(status, std::move(response));
  }
};

}  // namespace

void RpcChannel::Call(const std::string& method, MessagePtr request,
                      RpcResponseCallback callback, SimTime timeout) {
  // One callback invocation, ever: the timeout and the response race and
  // the loser finds the call done. The state is only touched in the
  // owner's LP: the request dispatches into the server's LP, and both
  // terminal paths schedule the completion back into the owner's LP, so a
  // channel held by a partitioned component (a device, a POP) never races
  // the backend LP it calls into.
  auto state = std::make_shared<CallState>();
  state->callback = std::move(callback);
  LpId owner_lp = ctx_.lp();

  if (timeout > 0) {
    ctx_.Schedule(timeout, [state]() { state->Complete(RpcStatus::kTimeout, nullptr); });
  }

  RpcServer* server = server_;
  Simulator* sim = ctx_.sim();
  LatencyModel one_way = one_way_;
  SimTime request_latency = one_way.Sample(sim->rng());
  sim->Schedule(server->lp(), request_latency, [sim, server, one_way, owner_lp, method,
                                                request, state]() {
    if (!server->available()) {
      // Unavailability is observed roughly one round trip after sending.
      sim->Schedule(owner_lp, one_way.Sample(sim->rng()),
                    [state]() { state->Complete(RpcStatus::kUnavailable, nullptr); });
      return;
    }
    TraceContext request_trace = request->trace;
    uint64_t incarnation = server->incarnation();
    server->Dispatch(method, request, [sim, server, one_way, owner_lp, state, incarnation,
                                       request_trace](MessagePtr response) {
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
      sim->Schedule(owner_lp, one_way.Sample(sim->rng()), [state, response]() {
        state->Complete(RpcStatus::kOk, response);
      });
    });
  });
}

}  // namespace bladerunner
