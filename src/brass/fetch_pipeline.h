// The per-host shared fetch pipeline between BRASS application instances
// and the WAS (docs/BRASS_FETCH.md).
//
// Fig. 5 step 8 has every BRASS instance fetch a mutated payload from the
// WAS with a per-viewer privacy check — so a hot object with N viewer
// streams on one host turns one Pylon event into N near-identical WAS
// round trips. The pipeline amortizes that in three layers:
//
//  1. Singleflight coalescing: concurrent fetches for the same
//     (app, object, version) metadata join one in-flight WAS call.
//  2. A versioned read-through LRU payload cache that serves followers of
//     the same event version without a WAS trip, invalidated when a newer
//     version of the object is observed in a Pylon event — TAO replication
//     lag must never let a stale payload be served as current.
//  3. Batched privacy checks: the single WAS fetch RPC carries the host's
//     current viewers of the application, so the residual cache-miss cost
//     is one round trip per host, not one per stream.
//
// Per-viewer privacy semantics are preserved bit-for-bit: every decision
// is still computed by the WAS per viewer; only the round-trip count
// changes.

#ifndef BLADERUNNER_SRC_BRASS_FETCH_PIPELINE_H_
#define BLADERUNNER_SRC_BRASS_FETCH_PIPELINE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/brass/config.h"
#include "src/graphql/value.h"
#include "src/net/rpc.h"
#include "src/net/topology.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"
#include "src/tao/types.h"
#include "src/trace/collector.h"

namespace bladerunner {

// Options of one payload fetch / WAS query issued by a BRASS application.
struct FetchOptions {
  // The stream's authenticated viewer the privacy check runs for.
  UserId viewer = 0;
  // When valid, nests the fetch's spans under the caller's span —
  // applications typically pass the event's or their processing span.
  TraceContext parent;
  // Reliable-delivery paths (e.g. Messenger gap recovery) must observe the
  // WAS directly: skip coalescing and the payload cache for this request.
  bool bypass_cache = false;
};

class FetchPipeline {
 public:
  // callback(allowed, payload): allowed is the viewer's privacy decision;
  // payload is null when not allowed or on RPC failure.
  using Callback = std::function<void(bool, Value)>;
  // Current viewers of an application on this host, for privacy-check
  // batching: sorted and without duplicates. A new flight copies the first
  // 64 of them (the batch cap) at once. Required.
  using ViewerProvider = std::function<const std::vector<UserId>&(const std::string&)>;
  // (viewer, allowed) pairs in the order the decisions were made.
  using ViewerDecisions = std::vector<std::pair<UserId, bool>>;
  // callback(decisions, payload): one decision per requested viewer, and
  // the payload of the first allowed decision (null when none was allowed).
  using BatchCallback = std::function<void(ViewerDecisions, Value)>;

  FetchPipeline(Simulator* sim, RegionId region, RpcChannel* was_channel, SimTime rpc_timeout,
                FetchPipelineConfig config, MetricsRegistry* metrics, TraceCollector* trace,
                ViewerProvider viewers_for_app);

  // Entry point for BrassHost::FetchPayload.
  void Fetch(const std::string& app, const Value& metadata, const FetchOptions& options,
             Callback callback);

  // One payload for many viewers (a POP's flash crowd, BrassHost::OnPopFetch).
  // Behaves exactly like one Fetch per viewer, in order, with a shared
  // parent span — same RPCs, events and counters — but keys the metadata
  // once and calls back once, after the last decision. An empty `viewers`
  // calls back at once.
  void FetchForViewers(const std::string& app, const Value& metadata,
                       const std::vector<UserId>& viewers, const TraceContext& parent,
                       BatchCallback callback);

  // Version-observation hook: called for every Pylon event the host
  // receives. A newer version of an object invalidates any cached payload
  // (and marks in-flight fetches of older versions non-cacheable).
  void ObserveEvent(const Value& metadata);

  // Drops the cache and all in-flight coalescing state (host drain/crash).
  // Waiter callbacks are not invoked; the runtime's liveness guards have
  // already neutered them.
  void Clear();

  size_t CacheSize() const { return cache_.size(); }

 private:
  struct CacheEntry {
    ObjectId object_id = 0;
    uint64_t version = 0;
    Value payload;
    // Per-viewer privacy decisions, exactly as the WAS returned them.
    std::unordered_map<UserId, bool> decisions;
    std::list<std::string>::iterator lru_it;
  };

  // The shared state of one FetchForViewers call.
  struct Batch {
    size_t outstanding = 0;
    ViewerDecisions decisions;
    Value payload;
    BatchCallback callback;
  };

  // One viewer's pending answer: to a Fetch caller's `callback`, or into
  // the `batch` of a FetchForViewers call.
  struct Waiter {
    UserId viewer = 0;
    TraceContext parent;
    Callback callback;
    std::shared_ptr<Batch> batch;
  };

  // One in-flight WAS fetch RPC (payload fetch or privacy-only top-up).
  struct Flight {
    // Cache key of the metadata, computed once by the call that started
    // the flight; completion and re-entering waiters reuse it.
    std::string key;
    std::string app;
    Value metadata;
    ObjectId object_id = 0;
    uint64_t version = 0;
    bool need_payload = true;
    bool dispatched = false;
    // A newer version of the object was observed while this flight was
    // outstanding: its result must not be cached, and privacy-only waiters
    // must re-fetch instead of reusing the now-stale cached payload.
    bool superseded = false;
    // Payload a privacy-only flight tops up decisions for (copied from the
    // cache entry at flight creation, in case the entry is evicted).
    Value cached_payload;
    std::vector<Waiter> waiters;
    std::vector<UserId> rpc_viewers;
  };

  std::string Key(const std::string& app, const Value& metadata) const;

  // Hands one viewer's decision to its caller or batch.
  static void Answer(Waiter& waiter, bool allowed, const Value& payload);

  // The cached path of Fetch for waiters that all want `key`: exactly what
  // one Fetch per waiter, in order, would do, with one cache lookup and at
  // most one flight lookup for all of them.
  void FetchKeyed(const std::string& key, const std::string& app, const Value& metadata,
                  std::span<Waiter> waiters);
  void ServeFromCache(const CacheEntry& entry, bool allowed, Waiter waiter);
  // Joins `waiter` to the flight `flight_key`, starting it if none is in
  // the air. A null `cached_payload` starts a payload flight; otherwise a
  // privacy-only top-up of that payload.
  Flight& StartOrJoinFlight(const std::string& flight_key, const std::string& key,
                            const std::string& app, const Value& metadata,
                            const Value* cached_payload, Waiter waiter);
  void JoinFlight(Flight& flight, Waiter waiter);
  void DispatchFlight(const std::string& flight_key);
  void CompleteFlight(const std::string& flight_key, TraceContext span, RpcStatus status,
                      MessagePtr response);
  void DirectFetch(const std::string& app, const Value& metadata, Waiter waiter);

  void InsertCacheEntry(const std::string& key, CacheEntry entry);
  void TouchLru(CacheEntry& entry);
  void EraseCacheEntry(const std::string& key);

  // Metric handles resolved once at construction (docs/PERF.md).
  struct Metrics {
    Counter* requests;
    Counter* cache_hits;
    Counter* coalesced;
    Counter* was_fetches;
    Counter* rpcs;
    Counter* privacy_rpcs;
    Counter* rpc_failures;
    Counter* stale_returns;
    Counter* bypass;
    Counter* invalidations;
    Counter* evictions;
  };

  SimContext ctx_;
  RegionId region_;
  RpcChannel* was_channel_;
  SimTime rpc_timeout_;
  FetchPipelineConfig config_;
  MetricsRegistry* metrics_;
  Metrics m_;
  TraceCollector* trace_;
  ViewerProvider viewers_for_app_;

  std::unordered_map<std::string, CacheEntry> cache_;
  std::list<std::string> lru_;  // front == most recently used
  // object id -> cache keys holding a payload of that object (invalidation).
  std::unordered_map<ObjectId, std::unordered_set<std::string>> by_object_;
  std::unordered_map<std::string, Flight> flights_;
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_BRASS_FETCH_PIPELINE_H_
