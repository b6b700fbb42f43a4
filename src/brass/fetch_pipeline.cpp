#include "src/brass/fetch_pipeline.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/brass/delivery_queue.h"
#include "src/was/messages.h"

namespace bladerunner {

namespace {
// Suffix distinguishing a privacy-only top-up flight from the payload
// flight of the same cache key (both may be in the air at once).
constexpr char kPrivacyFlightSuffix[] = "#priv";

// How long a fresh flight collects same-object joiners before its RPC is
// dispatched. Zero would still merge fetches issued within the same
// simulation instant (one Pylon event fanning out to an app's streams).
constexpr double kCoalesceWindowMs = 0.5;

// Cap on the viewers whose privacy decisions one WAS fetch RPC carries.
constexpr size_t kMaxBatchViewers = 64;
}  // namespace

FetchPipeline::FetchPipeline(Simulator* sim, RegionId region, RpcChannel* was_channel,
                             SimTime rpc_timeout, FetchPipelineConfig config,
                             MetricsRegistry* metrics, TraceCollector* trace,
                             ViewerProvider viewers_for_app)
    : ctx_(sim),
      region_(region),
      was_channel_(was_channel),
      rpc_timeout_(rpc_timeout),
      config_(config),
      metrics_(metrics),
      trace_(trace),
      viewers_for_app_(std::move(viewers_for_app)) {
  assert(ctx_.sim() != nullptr && was_channel_ != nullptr && metrics_ != nullptr);
  assert(trace_ != nullptr && viewers_for_app_);
  m_.requests = &metrics_->GetCounter("brass.fetch.requests");
  m_.cache_hits = &metrics_->GetCounter("brass.fetch.cache_hits");
  m_.coalesced = &metrics_->GetCounter("brass.fetch.coalesced");
  m_.was_fetches = &metrics_->GetCounter("brass.was_fetches");
  m_.rpcs = &metrics_->GetCounter("brass.fetch.rpcs");
  m_.privacy_rpcs = &metrics_->GetCounter("brass.fetch.privacy_rpcs");
  m_.rpc_failures = &metrics_->GetCounter("brass.fetch.rpc_failures");
  m_.stale_returns = &metrics_->GetCounter("brass.fetch.stale_returns");
  m_.bypass = &metrics_->GetCounter("brass.fetch.bypass");
  m_.invalidations = &metrics_->GetCounter("brass.fetch.invalidations");
  m_.evictions = &metrics_->GetCounter("brass.fetch.evictions");
}

std::string FetchPipeline::Key(const std::string& app, const Value& metadata) const {
  // The full metadata is part of the key: two events for the same object
  // can carry per-viewer or per-stream fields (e.g. Messenger's mailbox
  // "seq"), and those must never share a cached payload.
  uint64_t fp = std::hash<std::string>{}(metadata.ToJson());
  return app + "#" + std::to_string(ObjectVersionOf(metadata)) + "#" + std::to_string(fp);
}

void FetchPipeline::Fetch(const std::string& app, const Value& metadata,
                          const FetchOptions& options, Callback callback) {
  Waiter waiter{options.viewer, options.parent, std::move(callback), nullptr};
  if (!config_.enabled || options.bypass_cache) {
    m_.requests->Increment();
    DirectFetch(app, metadata, std::move(waiter));
    return;
  }
  FetchKeyed(Key(app, metadata), app, metadata, std::span<Waiter>(&waiter, 1));
}

void FetchPipeline::FetchForViewers(const std::string& app, const Value& metadata,
                                    const std::vector<UserId>& viewers,
                                    const TraceContext& parent, BatchCallback callback) {
  if (viewers.empty()) {
    callback({}, Value());
    return;
  }
  auto batch = std::make_shared<Batch>();
  batch->outstanding = viewers.size();
  batch->decisions.reserve(viewers.size());
  batch->callback = std::move(callback);
  std::vector<Waiter> waiters;
  waiters.reserve(viewers.size());
  for (UserId viewer : viewers) {
    waiters.push_back(Waiter{viewer, parent, nullptr, batch});
  }
  if (!config_.enabled) {
    for (Waiter& waiter : waiters) {
      m_.requests->Increment();
      DirectFetch(app, metadata, std::move(waiter));
    }
    return;
  }
  FetchKeyed(Key(app, metadata), app, metadata, waiters);
}

void FetchPipeline::Answer(Waiter& waiter, bool allowed, const Value& payload) {
  if (waiter.batch == nullptr) {
    // A denied viewer never receives the payload, exactly as an unbatched
    // WAS fetch would have answered.
    waiter.callback(allowed, allowed ? payload : Value());
    return;
  }
  Batch& batch = *waiter.batch;
  batch.decisions.emplace_back(waiter.viewer, allowed);
  if (allowed && batch.payload.is_null()) {
    batch.payload = payload;
  }
  if (--batch.outstanding == 0) {
    batch.callback(std::move(batch.decisions), std::move(batch.payload));
  }
}

void FetchPipeline::FetchKeyed(const std::string& key, const std::string& app,
                               const Value& metadata, std::span<Waiter> waiters) {
  // Nothing in this loop erases a cache entry or runs a callback (cache
  // hits answer through Schedule(0)), so one cache lookup and one flight
  // lookup serve every waiter.
  auto cached = cache_.find(key);
  CacheEntry* entry = cached != cache_.end() ? &cached->second : nullptr;
  Flight* flight = nullptr;
  for (Waiter& waiter : waiters) {
    m_.requests->Increment();
    if (entry != nullptr) {
      auto decision = entry->decisions.find(waiter.viewer);
      if (decision != entry->decisions.end()) {
        TouchLru(*entry);
        ServeFromCache(*entry, decision->second, std::move(waiter));
        continue;
      }
    }
    if (flight != nullptr) {
      JoinFlight(*flight, std::move(waiter));
    } else if (entry != nullptr) {
      // Payload cached but this viewer's decision is not (their stream
      // arrived after the batched fetch): privacy-only top-up RPC.
      flight = &StartOrJoinFlight(key + kPrivacyFlightSuffix, key, app, metadata,
                                  &entry->payload, std::move(waiter));
    } else {
      flight = &StartOrJoinFlight(key, key, app, metadata, nullptr, std::move(waiter));
    }
  }
}

void FetchPipeline::ServeFromCache(const CacheEntry& entry, bool allowed, Waiter waiter) {
  m_.cache_hits->Increment();
  if (waiter.parent.valid()) {
    // Instant span: the fetch was served host-locally. Named distinctly
    // from "brass.fetch" so latency analyses over WAS round trips (e.g.
    // Table 3) keep measuring actual round trips.
    TraceContext span = trace_->RecordSpan(waiter.parent, "brass.fetch.cache", "brass", region_,
                                           ctx_.Now(), ctx_.Now());
    trace_->Annotate(span, "allowed", Value(allowed));
  }
  // Deliver asynchronously: applications expect fetch callbacks to run
  // after the calling event handler returns, cache hit or not.
  ctx_.Schedule(0, [waiter = std::move(waiter), allowed,
                    payload = allowed ? entry.payload : Value()]() mutable {
    Answer(waiter, allowed, payload);
  });
}

FetchPipeline::Flight& FetchPipeline::StartOrJoinFlight(const std::string& flight_key,
                                                        const std::string& key,
                                                        const std::string& app,
                                                        const Value& metadata,
                                                        const Value* cached_payload,
                                                        Waiter waiter) {
  auto it = flights_.find(flight_key);
  if (it != flights_.end()) {
    JoinFlight(it->second, std::move(waiter));
    return it->second;
  }

  const bool need_payload = cached_payload == nullptr;
  Flight flight;
  flight.key = key;
  flight.app = app;
  flight.metadata = metadata;
  flight.object_id = ObjectIdOf(metadata);
  flight.version = ObjectVersionOf(metadata);
  flight.need_payload = need_payload;
  if (!need_payload) {
    flight.cached_payload = *cached_payload;
  } else {
    // Prefetch decisions for every current viewer of the app on this host:
    // their streams will want this payload too, and one batched RPC is the
    // whole point (one round trip per host, not per stream).
    const std::vector<UserId>& viewers = viewers_for_app_(app);
    assert(std::adjacent_find(viewers.begin(), viewers.end(), std::greater_equal<UserId>()) ==
           viewers.end());
    flight.rpc_viewers.assign(
        viewers.begin(),
        viewers.begin() +
            static_cast<std::ptrdiff_t>(std::min<size_t>(viewers.size(), kMaxBatchViewers)));
  }
  if (std::find(flight.rpc_viewers.begin(), flight.rpc_viewers.end(), waiter.viewer) ==
      flight.rpc_viewers.end()) {
    flight.rpc_viewers.push_back(waiter.viewer);
  }
  flight.waiters.push_back(std::move(waiter));
  Flight& started = flights_.emplace(flight_key, std::move(flight)).first->second;
  ctx_.Schedule(MillisF(kCoalesceWindowMs),
                 [this, flight_key]() { DispatchFlight(flight_key); });
  return started;
}

void FetchPipeline::JoinFlight(Flight& flight, Waiter waiter) {
  m_.coalesced->Increment();
  // Size first: once the batch is full, joining skips the viewer scan.
  if (!flight.dispatched && flight.rpc_viewers.size() < kMaxBatchViewers &&
      std::find(flight.rpc_viewers.begin(), flight.rpc_viewers.end(), waiter.viewer) ==
          flight.rpc_viewers.end()) {
    flight.rpc_viewers.push_back(waiter.viewer);
  }
  flight.waiters.push_back(std::move(waiter));
}

void FetchPipeline::DispatchFlight(const std::string& flight_key) {
  auto it = flights_.find(flight_key);
  if (it == flights_.end() || it->second.dispatched) {
    return;
  }
  Flight& flight = it->second;
  flight.dispatched = true;

  auto request = std::make_shared<WasFetchRequest>();
  request->app = flight.app;
  request->metadata = flight.metadata;
  request->viewers = flight.rpc_viewers;
  request->need_payload = flight.need_payload;

  // "brass.fetch" covers the whole WAS round trip (Table 3's "of which WAS
  // point query + privacy check"); the WAS nests its processing span in it.
  // Parented under the first waiter that carries a sampled trace.
  TraceContext span;
  for (const Waiter& waiter : flight.waiters) {
    if (waiter.parent.valid()) {
      span = trace_->StartSpan(waiter.parent, "brass.fetch", "brass", region_, ctx_.Now());
      trace_->Annotate(span, "viewers", Value(static_cast<int64_t>(flight.rpc_viewers.size())));
      trace_->Annotate(span, "coalesced", Value(static_cast<int64_t>(flight.waiters.size())));
      trace_->Annotate(span, "privacy_only", Value(!flight.need_payload));
      break;
    }
  }
  request->trace = span;

  m_.was_fetches->Increment();
  (flight.need_payload ? m_.rpcs : m_.privacy_rpcs)->Increment();
  was_channel_->Call(
      "was.fetch", request,
      [this, flight_key, span](RpcStatus status, MessagePtr response) {
        CompleteFlight(flight_key, span, status, std::move(response));
      },
      rpc_timeout_);
}

void FetchPipeline::CompleteFlight(const std::string& flight_key, TraceContext span,
                                   RpcStatus status, MessagePtr response) {
  auto it = flights_.find(flight_key);
  if (it == flights_.end()) {
    return;  // pipeline was cleared (host drained/crashed) mid-flight
  }
  Flight flight = std::move(it->second);
  flights_.erase(it);

  if (status != RpcStatus::kOk) {
    trace_->MarkError(span, ToString(status), ctx_.Now());
    m_.rpc_failures->Increment();
    for (Waiter& waiter : flight.waiters) {
      Answer(waiter, false, Value(nullptr));
    }
    return;
  }
  trace_->EndSpan(span, ctx_.Now());
  auto fetch = std::static_pointer_cast<WasFetchResponse>(response);

  std::unordered_map<UserId, bool> decisions;
  for (size_t i = 0; i < flight.rpc_viewers.size() && i < fetch->allowed.size(); ++i) {
    decisions.emplace(flight.rpc_viewers[i], fetch->allowed[i] != 0);
  }
  const Value& payload = flight.need_payload ? fetch->payload : flight.cached_payload;

  if (flight.need_payload) {
    bool stale = fetch->version < flight.version;
    if (stale) {
      // The (follower-region) WAS served an older version than the event
      // announced — replication lag. The result is still delivered (it is
      // exactly what an unpipelined fetch would have returned) but must
      // not be cached as the current version.
      m_.stale_returns->Increment();
    }
    // Versionless metadata (e.g. ephemeral typing events) gets coalescing
    // only, never caching: there is no way to invalidate it.
    if (!stale && !flight.superseded && flight.version > 0) {
      CacheEntry entry;
      entry.object_id = flight.object_id;
      entry.version = std::max(fetch->version, flight.version);
      entry.payload = fetch->payload;
      entry.decisions = decisions;
      InsertCacheEntry(flight.key, std::move(entry));
    }
  } else if (!flight.superseded) {
    // Merge the topped-up decisions into the cache entry if it survived.
    auto cached = cache_.find(flight.key);
    if (cached != cache_.end()) {
      for (const auto& [viewer, allowed] : decisions) {
        cached->second.decisions.emplace(viewer, allowed);
      }
    }
  }

  std::vector<Waiter>& waiters = flight.waiters;
  if (!flight.need_payload && flight.superseded) {
    // The cached payload these waiters were topping up decisions for was
    // invalidated mid-flight: serving it would deliver a stale version.
    // Re-fetch from scratch (cache now misses, so this issues a fresh RPC).
    FetchKeyed(flight.key, flight.app, flight.metadata, waiters);
    return;
  }

  for (size_t i = 0; i < waiters.size();) {
    auto decision = decisions.find(waiters[i].viewer);
    if (decision != decisions.end()) {
      Answer(waiters[i], decision->second, payload);
      ++i;
      continue;
    }
    // Joined after dispatch and was not in the RPC's viewer batch:
    // re-enter the pipeline (typically now a cache hit or a privacy-only
    // top-up). Consecutive such waiters re-enter together; no answer runs
    // between them, so the order of effects is unchanged.
    size_t end = i + 1;
    while (end < waiters.size() && !decisions.contains(waiters[end].viewer)) {
      ++end;
    }
    FetchKeyed(flight.key, flight.app, flight.metadata,
               std::span<Waiter>(waiters).subspan(i, end - i));
    i = end;
  }
}

void FetchPipeline::DirectFetch(const std::string& app, const Value& metadata, Waiter waiter) {
  m_.bypass->Increment();
  m_.was_fetches->Increment();
  auto request = std::make_shared<WasFetchRequest>();
  request->app = app;
  request->metadata = metadata;
  request->viewers.push_back(waiter.viewer);
  TraceContext span;
  if (waiter.parent.valid()) {
    span = trace_->StartSpan(waiter.parent, "brass.fetch", "brass", region_, ctx_.Now());
    trace_->Annotate(span, "bypass", Value(true));
  }
  request->trace = span;
  auto shared = std::make_shared<Waiter>(std::move(waiter));
  was_channel_->Call(
      "was.fetch", request,
      [this, shared, span](RpcStatus status, MessagePtr response) {
        if (status != RpcStatus::kOk) {
          trace_->MarkError(span, ToString(status), ctx_.Now());
          Answer(*shared, false, Value(nullptr));
          return;
        }
        trace_->EndSpan(span, ctx_.Now());
        auto fetch = std::static_pointer_cast<WasFetchResponse>(response);
        bool allowed = !fetch->allowed.empty() && fetch->allowed[0] != 0;
        Answer(*shared, allowed, fetch->payload);
      },
      rpc_timeout_);
}

void FetchPipeline::ObserveEvent(const Value& metadata) {
  ObjectId id = ObjectIdOf(metadata);
  uint64_t version = ObjectVersionOf(metadata);
  if (id == 0 || version == 0) {
    return;
  }
  auto keys = by_object_.find(id);
  if (keys != by_object_.end()) {
    // Collect first: erasing mutates the index we are iterating.
    std::vector<std::string> to_erase;
    for (const std::string& key : keys->second) {
      auto entry = cache_.find(key);
      if (entry != cache_.end() && entry->second.version < version) {
        to_erase.push_back(key);
      }
    }
    for (const std::string& key : to_erase) {
      m_.invalidations->Increment();
      EraseCacheEntry(key);
    }
  }
  for (auto& [key, flight] : flights_) {
    if (flight.object_id == id && flight.version < version) {
      flight.superseded = true;
    }
  }
}

void FetchPipeline::Clear() {
  cache_.clear();
  lru_.clear();
  by_object_.clear();
  flights_.clear();
}

void FetchPipeline::InsertCacheEntry(const std::string& key, CacheEntry entry) {
  if (config_.cache_capacity == 0) {
    return;
  }
  EraseCacheEntry(key);  // replace, never duplicate LRU links
  while (cache_.size() >= config_.cache_capacity) {
    m_.evictions->Increment();
    EraseCacheEntry(lru_.back());
  }
  lru_.push_front(key);
  entry.lru_it = lru_.begin();
  by_object_[entry.object_id].insert(key);
  cache_.emplace(key, std::move(entry));
}

void FetchPipeline::TouchLru(CacheEntry& entry) {
  lru_.splice(lru_.begin(), lru_, entry.lru_it);  // the iterator stays valid
}

void FetchPipeline::EraseCacheEntry(const std::string& key) {
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    return;
  }
  // `key` may alias the LRU node's own string (eviction passes lru_.back()),
  // so the lru_ node must be freed only after the last use of `key`.
  auto lru_it = it->second.lru_it;
  auto keys = by_object_.find(it->second.object_id);
  if (keys != by_object_.end()) {
    keys->second.erase(key);
    if (keys->second.empty()) {
      by_object_.erase(keys);
    }
  }
  cache_.erase(it);
  lru_.erase(lru_it);
}

}  // namespace bladerunner
