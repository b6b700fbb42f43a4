#include "src/burst/pop.h"

#include <algorithm>
#include <cassert>
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
         BurstConfig config, MetricsRegistry* metrics, TraceCollector* trace)
    : ctx_(sim),
      pop_id_(pop_id),
      region_(region),
      connector_(std::move(connector)),
      config_(config),
      metrics_(metrics),
      trace_(trace),
      cache_(kPopPayloadCacheCapacity) {
  assert(ctx_.sim() != nullptr && metrics_ != nullptr);
  m_.pop_device_disconnects = &metrics_->GetCounter("burst.pop_device_disconnects");
  m_.pop_failures = &metrics_->GetCounter("burst.pop_failures");
  m_.pop_initiated_reconnects = &metrics_->GetCounter("burst.pop_initiated_reconnects");
  m_.pop_uplink_failures = &metrics_->GetCounter("burst.pop_uplink_failures");
  m_.pop_backbone_bytes_up = &metrics_->GetCounter("burst.pop_backbone_bytes_up");
  m_.pop_backbone_bytes_down = &metrics_->GetCounter("burst.pop_backbone_bytes_down");
  m_.pop_envelope_bytes = &metrics_->GetCounter("burst.pop_envelope_bytes");
  m_.pop_fetch_bytes = &metrics_->GetCounter("burst.pop_fetch_bytes");
  m_.pop_fill_bytes = &metrics_->GetCounter("burst.pop_fill_bytes");
  m_.pop_envelopes = &metrics_->GetCounter("burst.pop_envelopes");
  m_.pop_filtered = &metrics_->GetCounter("burst.pop_filtered");
  m_.pop_conflated = &metrics_->GetCounter("burst.pop_conflated");
  m_.pop_shed = &metrics_->GetCounter("burst.pop_shed");
  m_.pop_deliveries = &metrics_->GetCounter("burst.pop_deliveries");
  m_.pop_delivered_bytes = &metrics_->GetCounter("burst.pop_delivered_bytes");
  m_.pop_cache_hits = &metrics_->GetCounter("burst.pop_cache_hits");
  m_.pop_cache_misses = &metrics_->GetCounter("burst.pop_cache_misses");
  m_.pop_cache_stale_fills = &metrics_->GetCounter("burst.pop_cache_stale_fills");
  m_.pop_fetches = &metrics_->GetCounter("burst.pop_fetches");
  m_.pop_privacy_drops = &metrics_->GetCounter("burst.pop_privacy_drops");
}

void Pop::AttachDeviceConnection(std::shared_ptr<ConnectionEnd> end) {
  assert(alive_);
  end->set_handler(this);
  uint64_t conn_id = end->connection_id();
  device_conns_[conn_id] = DeviceConn{std::move(end), {}};
}

void Pop::FailPop() {
  if (!alive_) {
    return;
  }
  alive_ = false;
  m_.pop_failures->Increment();
  for (auto& [conn_id, dev] : device_conns_) {
    dev.end->set_handler(nullptr);
    dev.end->Fail();
  }
  device_conns_.clear();
  for (auto& [r, uplink] : uplinks_) {
    uplink.end->set_handler(nullptr);
    uplink.end->Fail();
  }
  uplinks_.clear();
  uplink_by_conn_.clear();
  streams_.clear();
  flights_.clear();
}

Pop::UplinkState* Pop::EnsureUplink(RegionId target_region, ProxyId exclude_proxy_id) {
  auto it = uplinks_.find(target_region);
  if (it != uplinks_.end() && it->second.end->open()) {
    return &it->second;
  }
  Uplink fresh = connector_(this, target_region, exclude_proxy_id);
  if (fresh.end == nullptr) {
    return nullptr;
  }
  fresh.end->set_handler(this);
  UplinkState state;
  state.end = std::move(fresh.end);
  state.proxy_id = fresh.proxy_id;
  if (it != uplinks_.end()) {
    state.streams = std::move(it->second.streams);
    uplink_by_conn_.erase(it->second.end->connection_id());
    uplinks_.erase(it);
  }
  auto [ins, ok] = uplinks_.emplace(target_region, std::move(state));
  assert(ok);
  uplink_by_conn_[ins->second.end->connection_id()] = target_region;
  return &ins->second;
}

void Pop::SendUp(UplinkState& uplink, const MessagePtr& frame) {
  m_.pop_backbone_bytes_up->Increment(static_cast<int64_t>(frame->WireSize()));
  uplink.end->Send(frame);
}

void Pop::OnMessage(ConnectionEnd& on, MessagePtr message) {
  uint64_t conn_id = on.connection_id();
  if (device_conns_.find(conn_id) != device_conns_.end()) {
    HandleDeviceFrame(on, message);
  } else if (uplink_by_conn_.find(conn_id) != uplink_by_conn_.end()) {
    HandleUplinkFrame(on, message);
  }
}

BrassPlacement Pop::ResolvePlacement(const StreamHeaderView& view) const {
  if (!config_.pop_placement_enabled || !descriptors_) {
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

void Pop::HandleDeviceFrame(ConnectionEnd& on, const MessagePtr& message) {
  uint64_t conn_id = on.connection_id();
  if (auto subscribe = std::dynamic_pointer_cast<SubscribeFrame>(message)) {
    // Instant hop marker: the subscribe entered the edge at this POP.
    if (trace_ != nullptr) {
      TraceContext ctx = ContextFromValue(subscribe->header);
      if (ctx.valid()) {
        TraceContext hop =
            trace_->RecordSpan(ctx, "burst.pop", "burst", region_, ctx_.Now(), ctx_.Now());
        trace_->Annotate(hop, "pop", Value(static_cast<int64_t>(pop_id_.value)));
      }
    }
    StreamState state;
    StreamHeaderView view(subscribe->header);
    state.up_region = static_cast<RegionId>(view.region(0));
    state.app = view.app();
    state.viewer = view.viewer();
    state.placement = ResolvePlacement(view);
    if (state.placement != BrassPlacement::kRegional) {
      state.pacer = PushPacer(ctx_, descriptors_(state.app)->pop_push_gap_us,
                              [this, key = subscribe->key](PendingDelivery next) {
                                ResolveAndDeliver({key}, next.payload, next.options);
                              });
    }
    // Stamp (or clear) the placement this POP will actually run, so the
    // BRASS host knows which stages it may delegate. A resubscribe through
    // an incapable POP thereby falls the stream back to fully regional
    // processing. Untouched headers stay byte-identical.
    int32_t stamp = static_cast<int32_t>(state.placement);
    if (stamp != 0 || view.placement() != 0) {
      StreamHeader header(std::move(subscribe->header));
      header.set_placement(stamp);
      subscribe->header = std::move(header).Take();
    }
    state.header = subscribe->header;
    state.body = subscribe->body;
    state.device_conn = conn_id;
    device_conns_[conn_id].streams.insert(subscribe->key);
    // A resubscribe replaces the stream's state, its pacer's release with it.
    auto [it, inserted] = streams_.insert_or_assign(subscribe->key, std::move(state));
    (void)inserted;
    ForwardSubscribeUp(subscribe->key, it->second, subscribe->resubscribe);
    return;
  }
  if (auto cancel = std::dynamic_pointer_cast<CancelFrame>(message)) {
    auto it = streams_.find(cancel->key);
    if (it != streams_.end()) {
      auto up = uplinks_.find(it->second.up_region);
      if (up != uplinks_.end()) {
        SendUp(up->second, cancel);
        up->second.streams.erase(cancel->key);
      }
      device_conns_[conn_id].streams.erase(cancel->key);
      streams_.erase(it);
      ResendFetchesVia(cancel->key);
    }
    return;
  }
  if (auto ack = std::dynamic_pointer_cast<AckFrame>(message)) {
    auto it = streams_.find(ack->key);
    if (it != streams_.end()) {
      auto up = uplinks_.find(it->second.up_region);
      if (up != uplinks_.end()) {
        SendUp(up->second, ack);
      }
    }
    return;
  }
}

void Pop::HandleUplinkFrame(ConnectionEnd& on, const MessagePtr& message) {
  (void)on;
  const auto bytes = static_cast<int64_t>(message->WireSize());
  m_.pop_backbone_bytes_down->Increment(bytes);
  auto response = std::dynamic_pointer_cast<ResponseFrame>(message);
  if (response == nullptr) {
    if (auto envelope = std::dynamic_pointer_cast<EnvelopeFrame>(message)) {
      m_.pop_envelope_bytes->Increment(bytes);
      HandleEnvelope(*envelope);
    } else if (auto fill = std::dynamic_pointer_cast<PopFillFrame>(message)) {
      m_.pop_fill_bytes->Increment(bytes);
      HandleFill(*fill);
    }
    return;
  }
  auto it = streams_.find(response->key);
  if (it == streams_.end()) {
    return;  // stream was cancelled / GCed while the response was in flight
  }
  bool terminated = false;
  bool host_lost = false;
  for (const Delta& delta : response->batch) {
    if (delta.kind == DeltaKind::kRewrite) {
      // Proxies keep the current header so they can repair streams (§3.5);
      // rewrites update the stored copy as they pass through.
      delta.ApplyRewrite(it->second.header);
    } else if (delta.kind == DeltaKind::kTermination) {
      terminated = true;
    } else if (delta.kind == DeltaKind::kFlowStatus && delta.status == FlowStatus::kDegraded) {
      host_lost = true;  // the proxy lost the stream's host and re-routes it
    } else if (delta.kind == DeltaKind::kData && trace_ != nullptr && delta.trace.valid()) {
      // Instant hop marker: the update left the backbone at this POP.
      TraceContext hop = trace_->RecordSpan(delta.trace, "burst.pop", "burst", region_,
                                            ctx_.Now(), ctx_.Now());
      trace_->Annotate(hop, "pop", Value(static_cast<int64_t>(pop_id_.value)));
    }
  }
  auto dev = device_conns_.find(it->second.device_conn);
  if (dev != device_conns_.end()) {
    dev->second.end->Send(response);
  }
  if (terminated) {
    RemoveStream(response->key);
  } else if (host_lost) {
    ResendFetchesVia(response->key);
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
  const BrassAppDescriptor* descriptor = descriptors_ ? descriptors_(app) : nullptr;
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
    if (trace_ != nullptr && frame.trace.valid()) {
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

bool Pop::AdmitEnvelope(StreamState& state, const BrassAppDescriptor& descriptor,
                        const Value& metadata, const DeliverOptions& options) {
  if (state.pacer.TakeSlot()) {
    return true;
  }
  ConflatingDeliveryQueue::OfferResult result = state.pacer.queue().Offer(
      metadata, options, descriptor.conflatable, kPopMaxPendingPerStream);
  if (result.outcome == ConflatingDeliveryQueue::Outcome::kConflated) {
    m_.pop_conflated->Increment();
    if (trace_ != nullptr && options.parent.valid()) {
      TraceContext span = trace_->RecordSpan(options.parent, "pop.conflate", "burst", region_,
                                             ctx_.Now(), ctx_.Now());
      trace_->Annotate(span, "pop", Value(static_cast<int64_t>(pop_id_.value)));
      trace_->Annotate(span, "outcome", Value("conflated"));
    }
  } else if (result.outcome == ConflatingDeliveryQueue::Outcome::kShed) {
    m_.pop_shed->Increment();
    if (trace_ != nullptr && result.shed.options.parent.valid()) {
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
    if (trace_ != nullptr && options.parent.valid()) {
      TraceContext span = trace_->RecordSpan(options.parent, "pop.cache", "burst", region_,
                                             ctx_.Now(), ctx_.Now());
      trace_->Annotate(span, "pop", Value(static_cast<int64_t>(pop_id_.value)));
      trace_->Annotate(span, "outcome", Value(outcome));
    }
  };
  const PopPayloadCache::Entry* entry = cache_.Get(app, object, options.version);
  std::vector<StreamKey> missed;
  for (const StreamKey& key : keys) {
    const StreamState& state = streams_.find(key)->second;
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
                            [this](const StreamKey& key) { return HasUplink(key); });
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
    const StreamState& state = streams_.find(key)->second;
    if (!flight.pending_viewers.contains(state.viewer)) {
      ask.push_back(state.viewer);
      if (via == nullptr && HasUplink(key)) {
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

bool Pop::HasUplink(const StreamKey& key) const {
  auto it = streams_.find(key);
  return it != streams_.end() && uplinks_.find(it->second.up_region) != uplinks_.end();
}

void Pop::SendFetch(const std::string& app, const Flight& flight, const Flight::Request& request) {
  auto fetch = std::make_shared<PopFetchFrame>();
  fetch->key = request.via;
  fetch->app = app;
  fetch->metadata = flight.metadata;
  fetch->viewers = request.viewers;
  m_.pop_fetches->Increment();
  m_.pop_fetch_bytes->Increment(static_cast<int64_t>(fetch->WireSize()));
  SendUp(uplinks_.find(streams_.find(request.via)->second.up_region)->second, fetch);
}

void Pop::ResendFetchesVia(const StreamKey& key) {
  for (auto fit = flights_.begin(); fit != flights_.end();) {
    Flight& flight = fit->second;
    bool touched = std::erase_if(flight.waiters, [this](const Flight::Waiter& waiter) {
                     return streams_.find(waiter.key) == streams_.end();
                   }) > 0;
    auto via = std::find_if(flight.waiters.begin(), flight.waiters.end(),
                            [this](const Flight::Waiter& waiter) { return HasUplink(waiter.key); });
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

void Pop::DeliverToDevice(const StreamKey& key, const StreamState& state, Value payload,
                          const DeliverOptions& options) {
  auto dev = device_conns_.find(state.device_conn);
  if (dev == device_conns_.end()) {
    return;
  }
  // Same stamps and span as the regional push path (BrassHost::PushNow), so
  // device-side e2e accounting and trace shape are placement-agnostic.
  TraceContext deliver_span;
  if (trace_ != nullptr && options.parent.valid()) {
    deliver_span = trace_->StartSpan(options.parent, "burst.deliver", "burst", region_,
                                     ctx_.Now());
    trace_->Annotate(deliver_span, "app", Value(state.app));
    trace_->Annotate(deliver_span, "placement", Value("pop"));
  }
  StampForDevice(payload, state.app, options.event_created_at, ctx_.Now());
  m_.pop_deliveries->Increment();
  m_.pop_delivered_bytes->Increment(static_cast<int64_t>(payload.WireSize()));
  auto response = std::make_shared<ResponseFrame>();
  response->key = key;
  Delta delta = Delta::Data(std::move(payload), options.seq);
  delta.trace = deliver_span;
  response->batch.push_back(std::move(delta));
  dev->second.end->Send(response);
}

void Pop::ForwardSubscribeUp(const StreamKey& key, StreamState& state, bool resubscribe) {
  UplinkState* uplink = EnsureUplink(state.up_region);
  if (uplink == nullptr) {
    // No proxy reachable: tell the device so the app can fall back to
    // polling (§4) — signalled as a terminated stream.
    auto response = std::make_shared<ResponseFrame>();
    response->key = key;
    response->batch.push_back(Delta::Terminate(TerminateReason::kError, "no proxy available"));
    auto dev = device_conns_.find(state.device_conn);
    if (dev != device_conns_.end()) {
      dev->second.end->Send(response);
    }
    RemoveStream(key);
    return;
  }
  uplink->streams.insert(key);
  auto subscribe = std::make_shared<SubscribeFrame>();
  subscribe->key = key;
  subscribe->header = state.header;
  subscribe->body = state.body;
  subscribe->resubscribe = resubscribe;
  SendUp(*uplink, subscribe);
}

void Pop::RemoveStream(const StreamKey& key) {
  auto it = streams_.find(key);
  if (it == streams_.end()) {
    return;
  }
  const StreamKey gone = key;
  auto dev = device_conns_.find(it->second.device_conn);
  if (dev != device_conns_.end()) {
    dev->second.streams.erase(key);
  }
  auto up = uplinks_.find(it->second.up_region);
  if (up != uplinks_.end()) {
    up->second.streams.erase(key);
  }
  streams_.erase(it);
  ResendFetchesVia(gone);
}

void Pop::OnDisconnect(ConnectionEnd& on, DisconnectReason reason) {
  (void)reason;
  uint64_t conn_id = on.connection_id();
  auto up_it = uplink_by_conn_.find(conn_id);
  if (up_it != uplink_by_conn_.end()) {
    HandleUplinkDisconnect(up_it->second);
    return;
  }
  if (device_conns_.find(conn_id) != device_conns_.end()) {
    HandleDeviceDisconnect(conn_id);
  }
}

void Pop::HandleDeviceDisconnect(uint64_t conn_id) {
  // §4 axiom 1: the POP detects the device loss and informs all BRASSes
  // servicing streams instantiated by the device. Stream state is GCed
  // immediately (§3.5): the device will subscribe afresh elsewhere.
  m_.pop_device_disconnects->Increment();
  auto dev = device_conns_.find(conn_id);
  if (dev == device_conns_.end()) {
    return;
  }
  std::vector<StreamKey> keys(dev->second.streams.begin(), dev->second.streams.end());
  for (const StreamKey& key : keys) {
    auto it = streams_.find(key);
    if (it == streams_.end() || it->second.device_conn != conn_id) {
      // The device already resubscribed over a new connection before the
      // old one's failure was detected; the stream is healthy — a stale
      // detach here would wrongly kill the resumed stream upstream.
      continue;
    }
    auto up = uplinks_.find(it->second.up_region);
    if (up != uplinks_.end()) {
      auto detached = std::make_shared<StreamDetachedFrame>();
      detached->key = key;
      detached->reason = "device connection lost";
      SendUp(up->second, detached);
      up->second.streams.erase(key);
    }
    streams_.erase(it);
    ResendFetchesVia(key);
  }
  dev->second.end->set_handler(nullptr);
  device_conns_.erase(dev);
}

void Pop::HandleUplinkDisconnect(RegionId up_region) {
  // §4 axiom 2: the POP is the closest surviving component downstream of
  // the failed proxy; it repairs every affected stream by resubscribing
  // through an alternate proxy, using the stored (rewritten) requests.
  auto it = uplinks_.find(up_region);
  if (it == uplinks_.end()) {
    return;
  }
  m_.pop_uplink_failures->Increment();
  ProxyId failed_proxy = it->second.proxy_id;
  std::vector<StreamKey> affected(it->second.streams.begin(), it->second.streams.end());
  uplink_by_conn_.erase(it->second.end->connection_id());
  it->second.end->set_handler(nullptr);
  uplinks_.erase(it);

  // Tell each affected device the stream is degraded (§4 axiom 1,
  // downstream direction).
  for (const StreamKey& key : affected) {
    auto stream = streams_.find(key);
    if (stream == streams_.end()) {
      continue;
    }
    auto dev = device_conns_.find(stream->second.device_conn);
    if (dev != device_conns_.end()) {
      auto response = std::make_shared<ResponseFrame>();
      response->key = key;
      response->batch.push_back(Delta::Flow(FlowStatus::kDegraded, "proxy path lost"));
      dev->second.end->Send(response);
    }
  }

  UplinkState* fresh = EnsureUplink(up_region, failed_proxy);
  if (fresh == nullptr) {
    // Nothing to repair over; terminate the affected streams.
    for (const StreamKey& key : affected) {
      auto stream = streams_.find(key);
      if (stream == streams_.end()) {
        continue;
      }
      auto dev = device_conns_.find(stream->second.device_conn);
      if (dev != device_conns_.end()) {
        auto response = std::make_shared<ResponseFrame>();
        response->key = key;
        response->batch.push_back(
            Delta::Terminate(TerminateReason::kError, "no alternate proxy"));
        dev->second.end->Send(response);
      }
      RemoveStream(key);
    }
    return;
  }
  for (const StreamKey& key : affected) {
    auto stream = streams_.find(key);
    if (stream == streams_.end()) {
      continue;
    }
    m_.pop_initiated_reconnects->Increment();
    ForwardSubscribeUp(key, stream->second, /*resubscribe=*/true);
  }
  // Fetches that went up the failed uplink will not be answered.
  for (const StreamKey& key : affected) {
    ResendFetchesVia(key);
  }
}

}  // namespace bladerunner
