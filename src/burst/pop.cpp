#include "src/burst/pop.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <vector>

namespace bladerunner {

namespace {

// Bound on conflation-queued envelopes per placed stream; beyond it the
// oldest is shed.
constexpr size_t kPopMaxPendingPerStream = 8;

// Entry bound of the POP's versioned payload cache (LRU within the
// stale-read rule: a fill superseded by a newer observed version is
// delivered to its waiters but never cached).
constexpr size_t kPopPayloadCacheCapacity = 256;

}  // namespace

Pop::Pop(Simulator* sim, PopId pop_id, RegionId region, ProxyConnector connector,
         DescriptorLookup descriptors, BurstConfig config, MetricsRegistry* metrics,
         TraceCollector* trace)
    : BurstRelay(sim, region, trace,
                 Hop{.span = "burst.pop",
                     .id_key = "pop",
                     .id = static_cast<int64_t>(pop_id.value),
                     .detached = "device connection lost",
                     .degraded = "proxy path lost",
                     .no_route = "no proxy available",
                     .unreachable = "no proxy available",
                     .failures = &metrics->GetCounter("burst.pop_failures"),
                     .down_losses = &metrics->GetCounter("burst.pop_device_disconnects"),
                     .up_losses = &metrics->GetCounter("burst.pop_uplink_failures"),
                     .repairs = &metrics->GetCounter("burst.pop_initiated_reconnects")}),
      pop_id_(pop_id),
      connector_(std::move(connector)),
      descriptors_(std::move(descriptors)),
      config_(config),
      cache_(kPopPayloadCacheCapacity) {
  assert(descriptors_);
  m_.pop_backbone_bytes_up = &metrics->GetCounter("burst.pop_backbone_bytes_up");
  m_.pop_backbone_bytes_down = &metrics->GetCounter("burst.pop_backbone_bytes_down");
  m_.pop_envelope_bytes = &metrics->GetCounter("burst.pop_envelope_bytes");
  m_.pop_fetch_bytes = &metrics->GetCounter("burst.pop_fetch_bytes");
  m_.pop_fill_bytes = &metrics->GetCounter("burst.pop_fill_bytes");
  m_.pop_envelopes = &metrics->GetCounter("burst.pop_envelopes");
  m_.pop_filtered = &metrics->GetCounter("burst.pop_filtered");
  m_.pop_conflated = &metrics->GetCounter("burst.pop_conflated");
  m_.pop_shed = &metrics->GetCounter("burst.pop_shed");
  m_.pop_deliveries = &metrics->GetCounter("burst.pop_deliveries");
  m_.pop_delivered_bytes = &metrics->GetCounter("burst.pop_delivered_bytes");
  m_.pop_cache_hits = &metrics->GetCounter("burst.pop_cache_hits");
  m_.pop_cache_misses = &metrics->GetCounter("burst.pop_cache_misses");
  m_.pop_cache_stale_fills = &metrics->GetCounter("burst.pop_cache_stale_fills");
  m_.pop_fetches = &metrics->GetCounter("burst.pop_fetches");
  m_.pop_privacy_drops = &metrics->GetCounter("burst.pop_privacy_drops");
}

void Pop::FailPop() {
  Fail();
  flights_.clear();
}

std::optional<int64_t> Pop::Route(const Value& header) {
  return StreamHeaderView(header).region(0);
}

std::shared_ptr<ConnectionEnd> Pop::ConnectUpstream(int64_t region) {
  return connector_(this, static_cast<RegionId>(region));
}

void Pop::OnSendUp(const Message& frame) {
  m_.pop_backbone_bytes_up->Increment(static_cast<int64_t>(frame.WireSize()));
}

BrassPlacement Pop::ResolvePlacement(const StreamHeaderView& view) const {
  if (!config_.pop_placement_enabled) {
    return BrassPlacement::kRegional;
  }
  const BrassAppDescriptor* descriptor = descriptors_(view.app());
  if (descriptor == nullptr || descriptor->durable || view.durable()) {
    // Durable sequences cannot be filtered or conflated in transit.
    return BrassPlacement::kRegional;
  }
  return descriptor->placement == BrassPlacement::kPopFilterConflate
             ? BrassPlacement::kPopFilterConflate
             : BrassPlacement::kRegional;
}

void Pop::PrepareStream(SubscribeFrame& frame, Stream& stream) {
  StreamHeaderView view(frame.header);
  stream.app = view.app();
  stream.viewer = view.viewer();
  stream.placement = ResolvePlacement(view);
  if (stream.placement != BrassPlacement::kRegional) {
    stream.pacer = PushPacer(ctx_, descriptors_(stream.app)->pop_push_gap_us,
                             [this, key = frame.key](PendingDelivery next) {
                               ResolveAndDeliver({key}, next.payload, next.options);
                             });
  }
  // Stamp (or clear) the placement this POP will actually run, so the
  // BRASS host knows which stages it may delegate. A resubscribe through
  // an incapable POP thereby falls the stream back to fully regional
  // processing. Untouched headers stay byte-identical.
  int32_t stamp = static_cast<int32_t>(stream.placement);
  if (stamp != 0 || view.placement() != 0) {
    StreamHeader header(std::move(frame.header));
    header.set_placement(stamp);
    frame.header = std::move(header).Take();
  }
}

void Pop::HandleUpstreamFrame(const MessagePtr& message) {
  const auto bytes = static_cast<int64_t>(message->WireSize());
  m_.pop_backbone_bytes_down->Increment(bytes);
  if (auto response = std::dynamic_pointer_cast<ResponseFrame>(message)) {
    ForwardResponse(response);
  } else if (auto envelope = std::dynamic_pointer_cast<EnvelopeFrame>(message)) {
    m_.pop_envelope_bytes->Increment(bytes);
    HandleEnvelope(*envelope);
  } else if (auto fill = std::dynamic_pointer_cast<PopFillFrame>(message)) {
    m_.pop_fill_bytes->Increment(bytes);
    HandleFill(*fill);
  }
}

void Pop::HandleEnvelope(const EnvelopeFrame& frame) {
  std::vector<StreamKey> placed;
  placed.reserve(frame.streams.size());
  for (const StreamKey& key : frame.streams) {
    auto it = streams_.find(key);
    if (it == streams_.end()) {
      continue;  // cancelled / GCed while the frame was in flight
    }
    m_.pop_envelopes->Increment();
    // An incapable POP drops envelopes defensively: the host will stop
    // sending them once the stream resubscribes with a cleared stamp.
    if (it->second.placement != BrassPlacement::kRegional && config_.pop_placement_enabled) {
      placed.push_back(key);
    }
  }
  if (placed.empty()) {
    return;
  }
  // One application instance sent the frame, so its streams share the app.
  const std::string app = streams_.find(placed.front())->second.app;
  const BrassAppDescriptor* descriptor = descriptors_(app);
  if (descriptor == nullptr) {
    return;
  }
  // Every forwarded event advances the version watermark — the cache's
  // stale-read rule (fetch_pipeline's ObserveEvent, one hop earlier).
  cache_.ObserveVersion(app, ObjectIdOf(frame.metadata), frame.version);
  // Viewer-independent coarse filter, in transit, once per frame.
  if (!descriptor->pop_filter.quality_field.empty()) {
    double quality = frame.metadata.Get(descriptor->pop_filter.quality_field).AsDouble(0.0);
    bool passed = quality >= descriptor->pop_filter.min_quality;
    if (frame.trace.valid()) {
      TraceContext span = trace_->RecordSpan(frame.trace, "pop.filter", "burst", region_,
                                             ctx_.Now(), ctx_.Now());
      trace_->Annotate(span, "pop", Value(static_cast<int64_t>(pop_id_.value)));
      trace_->Annotate(span, "passed", Value(passed));
    }
    if (!passed) {
      m_.pop_filtered->Increment(static_cast<int64_t>(placed.size()));
      return;
    }
  }
  DeliverOptions options;
  options.event_created_at = frame.event_created_at;
  options.parent = frame.trace;
  options.conflation_key = frame.conflation_key;
  options.version = frame.version;
  // Every stream that must wait for a push slot is queued before any fetch
  // for the frame leaves, so the first fetch asks for its viewers too.
  std::vector<StreamKey> ready;
  for (const StreamKey& key : placed) {
    if (AdmitEnvelope(streams_.find(key)->second, *descriptor, frame.metadata, options)) {
      ready.push_back(key);
    }
  }
  if (!ready.empty()) {
    ResolveAndDeliver(ready, frame.metadata, options);
  }
}

bool Pop::AdmitEnvelope(Stream& state, const BrassAppDescriptor& descriptor,
                        const Value& metadata, const DeliverOptions& options) {
  if (state.pacer.TakeSlot()) {
    return true;
  }
  ConflatingDeliveryQueue::OfferResult result = state.pacer.queue().Offer(
      metadata, options, descriptor.conflatable, kPopMaxPendingPerStream);
  if (result.outcome == ConflatingDeliveryQueue::Outcome::kConflated) {
    m_.pop_conflated->Increment();
    if (options.parent.valid()) {
      TraceContext span = trace_->RecordSpan(options.parent, "pop.conflate", "burst", region_,
                                             ctx_.Now(), ctx_.Now());
      trace_->Annotate(span, "pop", Value(static_cast<int64_t>(pop_id_.value)));
      trace_->Annotate(span, "outcome", Value("conflated"));
    }
  } else if (result.outcome == ConflatingDeliveryQueue::Outcome::kShed) {
    m_.pop_shed->Increment();
    if (result.shed.options.parent.valid()) {
      TraceContext span = trace_->RecordSpan(result.shed.options.parent, "pop.conflate",
                                             "burst", region_, ctx_.Now(), ctx_.Now());
      trace_->Annotate(span, "pop", Value(static_cast<int64_t>(pop_id_.value)));
      trace_->Annotate(span, "outcome", Value("shed"));
    }
  }
  state.pacer.ScheduleRelease();
  return false;
}

void Pop::ResolveAndDeliver(const std::vector<StreamKey>& keys, const Value& metadata,
                            const DeliverOptions& options) {
  const std::string app = streams_.find(keys.front())->second.app;
  const int64_t object = ObjectIdOf(metadata);
  auto record_cache_span = [this, &options](const char* outcome) {
    if (options.parent.valid()) {
      TraceContext span = trace_->RecordSpan(options.parent, "pop.cache", "burst", region_,
                                             ctx_.Now(), ctx_.Now());
      trace_->Annotate(span, "pop", Value(static_cast<int64_t>(pop_id_.value)));
      trace_->Annotate(span, "outcome", Value(outcome));
    }
  };
  const PopPayloadCache::Entry* entry = cache_.Get(app, object, options.version);
  std::vector<StreamKey> missed;
  for (const StreamKey& key : keys) {
    const Stream& state = streams_.find(key)->second;
    if (entry != nullptr) {
      auto decision = entry->decisions.find(state.viewer);
      if (decision != entry->decisions.end()) {
        m_.pop_cache_hits->Increment();
        record_cache_span("hit");
        if (decision->second) {
          DeliverToDevice(key, state, entry->payload, options);
        } else {
          m_.pop_privacy_drops->Increment();
        }
        continue;
      }
    }
    m_.pop_cache_misses->Increment();
    record_cache_span(entry != nullptr ? "miss_viewer_decision" : "miss");
    missed.push_back(key);
  }
  if (missed.empty()) {
    return;
  }
  ObjectVersionKey fkey{app, object, options.version};
  auto fit = flights_.find(fkey);
  if (fit == flights_.end()) {
    // A new flight asks at once for every viewer whose envelope of this
    // version waits at the POP, so the queued streams hit the cache later.
    auto via = std::find_if(missed.begin(), missed.end(),
                            [this](const StreamKey& key) { return HasUpstream(key); });
    if (via == missed.end()) {
      return;  // no uplink: the streams are being repaired; the next envelope retries
    }
    std::vector<int64_t> viewers = FetchSet(app, object, missed, options);
    Flight& flight = flights_[fkey];
    flight.metadata = metadata;
    for (const StreamKey& key : missed) {
      flight.waiters.push_back(Flight::Waiter{key, options});
    }
    flight.pending_viewers.insert(viewers.begin(), viewers.end());
    flight.requests.push_back(Flight::Request{*via, std::move(viewers)});
    SendFetch(app, flight, flight.requests.back());
    return;
  }
  // Join the flight in the air; viewers no outstanding request covers get
  // one more request.
  Flight& flight = fit->second;
  std::vector<int64_t> ask;
  const StreamKey* via = nullptr;  // the first asking stream with an uplink
  for (const StreamKey& key : missed) {
    const Stream& state = streams_.find(key)->second;
    if (!flight.pending_viewers.contains(state.viewer)) {
      ask.push_back(state.viewer);
      if (via == nullptr && HasUpstream(key)) {
        via = &key;
      }
    }
    flight.waiters.push_back(Flight::Waiter{key, options});
  }
  if (via != nullptr) {
    std::sort(ask.begin(), ask.end());
    ask.erase(std::unique(ask.begin(), ask.end()), ask.end());
    flight.pending_viewers.insert(ask.begin(), ask.end());
    flight.requests.push_back(Flight::Request{*via, std::move(ask)});
    SendFetch(app, flight, flight.requests.back());
  }
}

std::vector<int64_t> Pop::FetchSet(const std::string& app, int64_t object,
                                   const std::vector<StreamKey>& waiting,
                                   const DeliverOptions& options) const {
  std::vector<int64_t> viewers;
  for (const StreamKey& key : waiting) {
    viewers.push_back(streams_.find(key)->second.viewer);
  }
  for (const auto& [key, state] : streams_) {
    if (state.placement != BrassPlacement::kRegional && state.app == app &&
        state.pacer.queue().Holds(options.conflation_key, options.version)) {
      viewers.push_back(state.viewer);
    }
  }
  if (const PopPayloadCache::Entry* entry = cache_.Peek(app, object, options.version)) {
    std::erase_if(viewers, [entry](int64_t viewer) { return entry->decisions.contains(viewer); });
  }
  std::sort(viewers.begin(), viewers.end());
  viewers.erase(std::unique(viewers.begin(), viewers.end()), viewers.end());
  return viewers;
}

void Pop::SendFetch(const std::string& app, const Flight& flight, const Flight::Request& request) {
  auto fetch = std::make_shared<PopFetchFrame>();
  fetch->key = request.via;
  fetch->app = app;
  fetch->metadata = flight.metadata;
  fetch->viewers = request.viewers;
  m_.pop_fetches->Increment();
  m_.pop_fetch_bytes->Increment(static_cast<int64_t>(fetch->WireSize()));
  ForwardUp(request.via, fetch);
}

void Pop::ResendFetchesVia(const StreamKey& key) {
  for (auto fit = flights_.begin(); fit != flights_.end();) {
    Flight& flight = fit->second;
    bool touched = std::erase_if(flight.waiters, [this](const Flight::Waiter& waiter) {
                     return streams_.find(waiter.key) == streams_.end();
                   }) > 0;
    auto via = std::find_if(
        flight.waiters.begin(), flight.waiters.end(),
        [this](const Flight::Waiter& waiter) { return HasUpstream(waiter.key); });
    for (auto request = flight.requests.begin(); request != flight.requests.end();) {
      if (request->via != key) {
        ++request;
        continue;
      }
      touched = true;
      if (via == flight.waiters.end()) {
        for (int64_t viewer : request->viewers) {
          flight.pending_viewers.erase(viewer);
        }
        request = flight.requests.erase(request);
        continue;
      }
      request->via = via->key;
      SendFetch(fit->first.app, flight, *request);
      ++request;
    }
    if (touched && (flight.waiters.empty() || flight.requests.empty())) {
      fit = flights_.erase(fit);
    } else {
      ++fit;
    }
  }
}

void Pop::HandleFill(const PopFillFrame& fill) {
  if (fill.ok) {
    if (!cache_.Put(fill.app, fill.object, fill.version, fill.payload, fill.decisions)) {
      // Stale (a newer version crossed while this fill was in flight) or
      // cache disabled: waiters below are still served, nothing is cached.
      m_.pop_cache_stale_fills->Increment();
    }
  }
  auto fit = flights_.find(ObjectVersionKey{fill.app, fill.object, fill.version});
  if (fit == flights_.end()) {
    return;  // e.g. a re-sent request's twin after the flight resolved
  }
  Flight& flight = fit->second;
  // The request this fill answers: same path, same viewers.
  std::vector<int64_t> answered;
  answered.reserve(fill.decisions.size());
  for (const auto& [viewer, allowed] : fill.decisions) {
    answered.push_back(viewer);
  }
  std::sort(answered.begin(), answered.end());
  auto request = std::find_if(
      flight.requests.begin(), flight.requests.end(),
      [&](const Flight::Request& r) { return r.via == fill.key && r.viewers == answered; });
  if (request != flight.requests.end()) {
    for (int64_t viewer : request->viewers) {
      flight.pending_viewers.erase(viewer);
    }
    flight.requests.erase(request);
  }
  // Serve the waiters this fill covers; the others wait for their own
  // request's fill.
  std::map<int64_t, bool> decisions(fill.decisions.begin(), fill.decisions.end());
  std::vector<Flight::Waiter> waiting;
  for (Flight::Waiter& waiter : flight.waiters) {
    auto sit = streams_.find(waiter.key);
    if (sit == streams_.end()) {
      continue;  // stream gone while the fetch was in flight
    }
    auto decision = decisions.find(sit->second.viewer);
    if (decision == decisions.end()) {
      waiting.push_back(std::move(waiter));
    } else if (!fill.ok) {
      continue;  // no viewer may see it, or the regional fetch failed
    } else if (!decision->second) {
      m_.pop_privacy_drops->Increment();
    } else {
      DeliverToDevice(waiter.key, sit->second, fill.payload, waiter.options);
    }
  }
  flight.waiters = std::move(waiting);
  if (flight.requests.empty()) {
    flights_.erase(fit);
  }
}

void Pop::DeliverToDevice(const StreamKey& key, const Stream& state, Value payload,
                          const DeliverOptions& options) {
  // Same stamps and span as the regional push path (BrassHost::PushNow), so
  // device-side e2e accounting and trace shape are placement-agnostic.
  TraceContext deliver_span;
  if (options.parent.valid()) {
    deliver_span = trace_->StartSpan(options.parent, "burst.deliver", "burst", region_,
                                     ctx_.Now());
    trace_->Annotate(deliver_span, "app", Value(state.app));
    trace_->Annotate(deliver_span, "placement", Value("pop"));
  }
  StampForDevice(payload, state.app, options.event_created_at, ctx_.Now());
  m_.pop_deliveries->Increment();
  m_.pop_delivered_bytes->Increment(static_cast<int64_t>(payload.WireSize()));
  Delta delta = Delta::Data(std::move(payload), options.seq);
  delta.trace = deliver_span;
  SendDelta(key, state, std::move(delta));
}

}  // namespace bladerunner
