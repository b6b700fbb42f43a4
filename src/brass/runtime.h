// Services a BRASS host exposes to the application instances it runs: the
// asynchronous event loop (timers), WAS calls, delivery accounting, and
// push helpers. This is the analogue of the JS framework the paper's BRASS
// applications are authored against (§3.2).

#ifndef BLADERUNNER_SRC_BRASS_RUNTIME_H_
#define BLADERUNNER_SRC_BRASS_RUNTIME_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/brass/application.h"
#include "src/brass/delivery_queue.h"
#include "src/brass/fetch_pipeline.h"
#include "src/graphql/value.h"
#include "src/net/topology.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"
#include "src/trace/collector.h"

namespace bladerunner {

class BrassHost;

class BrassRuntime {
 public:
  BrassRuntime(BrassHost* host, std::string app_name);
  ~BrassRuntime();

  const std::string& app_name() const { return app_name_; }
  int64_t host_id() const;
  RegionId region() const;
  // The host's simulation context: a per-stream state that owns a timer
  // keeps it to cancel the timer as the state is destroyed.
  SimContext ctx() const;
  Rng& rng();
  MetricsRegistry& metrics();
  SimTime Now();

  // ---- streams ----
  // This application's open stream with `key` on this host, or nullptr (the
  // stream closed, or the key names another application's stream).
  BrassStream* FindStream(const StreamKey& key);

  // ---- event loop ----
  TimerId ScheduleTimer(SimTime delay, std::function<void()> fn);

  // ---- backend calls ----

  // Fetches (and privacy-checks) the payload for an update event on behalf
  // of `options.viewer` (Fig. 5 step 8), through the host's shared fetch
  // pipeline (coalescing + versioned cache + batched privacy checks).
  // `callback(allowed, payload)`. Set `options.bypass_cache` on paths that
  // must observe the WAS directly (e.g. Messenger gap recovery).
  void FetchPayload(const Value& metadata, const FetchOptions& options,
                    std::function<void(bool, Value)> callback);

  // Arbitrary GraphQL query against the WAS (e.g. Messenger gap recovery).
  // Queries never route through the fetch cache.
  void WasQuery(const std::string& query, const FetchOptions& options,
                std::function<void(bool, Value)> callback);

  // ---- delivery accounting (feeds Fig. 8's decisions/deliveries rates) ----

  // Every examine-and-decide on (event, stream) counts as one decision;
  // `n` counts that many decisions with the same outcome at once (an app
  // that rejects a whole group of streams by one rule).
  void CountDecision(bool delivered, int64_t n = 1);

  // Pushes one data payload on the stream, with accounting and the
  // end-to-end latency sample for Fig. 9 (`options.event_created_at` comes
  // from the update event); `options.parent` (when valid) nests the
  // "burst.deliver" span. Under push pacing (docs/OVERLOAD.md) the delivery
  // may be queued, conflated against `options.conflation_key`, or shed.
  void DeliverData(BrassStream& stream, Value payload, const DeliverOptions& options);

  // Edge placement: pushes one event *envelope* (metadata only) to every
  // stream of `streams`, each pop-placed (stream.pop_placed), in one frame
  // per downstream proxy connection. The POP coarse-filters the envelope
  // once, conflates and paces it per stream in transit, and resolves the
  // payload through its versioned edge cache; fetch and per-viewer privacy
  // stay regional. Only meaningful for apps whose descriptor asks for
  // BrassPlacement::kPopFilterConflate.
  void PushEnvelope(const std::vector<BrassStream*>& streams, Value envelope,
                    const DeliverOptions& options);

  // Durable tier (descriptor.durable apps): appends the event's payload to
  // `channel`'s replayable log and returns its dense per-topic sequence —
  // pass it as DeliverOptions::seq on the matching DeliverData calls.
  // Idempotent on the event id (every subscribed host appends the same
  // Pylon event; the first append assigns the sequence).
  uint64_t AppendDurable(const Topic& channel, const UpdateEvent& event, Value payload);

  // ---- tracing ----
  // Span helpers for application-level processing spans ("brass.process").
  // All no-op (returning invalid contexts) when tracing is off or the
  // parent was not sampled.
  TraceContext StartSpan(const TraceContext& parent, const std::string& name);
  void EndSpan(const TraceContext& ctx);
  void AnnotateSpan(const TraceContext& ctx, const std::string& key, Value v);
  void MarkSpanError(const TraceContext& ctx, const std::string& message);

 private:
  // Wraps a callback so it becomes a no-op once this runtime (and the
  // application instance that owns it) has been destroyed — a host Drain()
  // or FailHost() tears instances down while their backend calls and
  // timers are still in flight.
  template <typename Fn>
  auto GuardAlive(Fn fn) {
    return [alive = alive_, fn = std::move(fn)](auto&&... args) {
      if (*alive) {
        fn(std::forward<decltype(args)>(args)...);
      }
    };
  }

  BrassHost* host_;
  std::string app_name_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_BRASS_RUNTIME_H_
