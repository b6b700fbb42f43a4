#include "src/brass/host.h"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

#include "src/pylon/messages.h"
#include "src/was/messages.h"

namespace bladerunner {

BrassHost::BrassHost(Simulator* sim, int64_t host_id, RegionId region, WebAppServer* was,
                     PylonCluster* pylon, const BrassAppRegistry* registry, BrassConfig config,
                     BurstConfig burst_config, MetricsRegistry* metrics,
                     TraceCollector* trace)
    : ctx_(sim),
      host_id_(host_id),
      region_(region),
      was_(was),
      pylon_(pylon),
      registry_(registry),
      config_(config),
      burst_config_(burst_config),
      metrics_(metrics),
      trace_(trace) {
  assert(ctx_.sim() != nullptr && was_ != nullptr && registry_ != nullptr && metrics_ != nullptr);
  assert(trace_ != nullptr);
  m_.vm_cap_rejections = &metrics_->GetCounter("brass.vm_cap_rejections");
  m_.app_spawns = &metrics_->GetCounter("brass.app_spawns");
  m_.streams_started = &metrics_->GetCounter("brass.streams_started");
  m_.topic_attaches = &metrics_->GetCounter("brass.topic_attaches");
  m_.pylon_subscribes = &metrics_->GetCounter("brass.pylon_subscribes");
  m_.pylon_subscribe_failures = &metrics_->GetCounter("brass.pylon_subscribe_failures");
  m_.pylon_unsubscribes = &metrics_->GetCounter("brass.pylon_unsubscribes");
  m_.events_received = &metrics_->GetCounter("brass.events_received");
  m_.events_unsubscribed_topic = &metrics_->GetCounter("brass.events_unsubscribed_topic");
  m_.decisions = &metrics_->GetCounter("brass.decisions");
  m_.decisions_positive = &metrics_->GetCounter("brass.decisions_positive");
  m_.filtered = &metrics_->GetCounter("brass.filtered");
  m_.degraded_drops = &metrics_->GetCounter("brass.degraded_drops");
  m_.conflated = &metrics_->GetCounter("brass.conflated");
  m_.shed = &metrics_->GetCounter("brass.shed");
  m_.delivery_queue_depth = &metrics_->GetHistogram("brass.delivery_queue_depth");
  m_.deliveries = &metrics_->GetCounter("brass.deliveries");
  m_.delivered_bytes = &metrics_->GetCounter("brass.delivered_bytes");
  m_.degrade_signals = &metrics_->GetCounter("brass.degrade_signals");
  m_.recover_signals = &metrics_->GetCounter("brass.recover_signals");
  m_.host_drain_starts = &metrics_->GetCounter("brass.host_drain_starts");
  m_.host_drains = &metrics_->GetCounter("brass.host_drains");
  m_.host_failures = &metrics_->GetCounter("brass.host_failures");
  m_.host_revives = &metrics_->GetCounter("brass.host_revives");
  m_.durable_appends = &metrics_->GetCounter("brass.durable_appends");
  m_.durable_append_duplicates = &metrics_->GetCounter("brass.durable_append_duplicates");
  m_.durable_replayed = &metrics_->GetCounter("brass.durable_replayed");
  m_.durable_duplicates_suppressed = &metrics_->GetCounter("brass.durable_duplicates_suppressed");
  m_.durable_live_suppressed = &metrics_->GetCounter("brass.durable_live_suppressed");
  m_.durable_truncated_resumes = &metrics_->GetCounter("brass.durable_truncated_resumes");
  m_.durable_token_rewrites = &metrics_->GetCounter("brass.durable_token_rewrites");
  m_.envelopes = &metrics_->GetCounter("brass.envelopes");
  m_.envelope_frames = &metrics_->GetCounter("brass.envelope_frames");
  // BurstServer's counter: an envelope for a detached stream is a push it
  // would have dropped.
  m_.server_pushes_dropped = &metrics_->GetCounter("burst.server_pushes_dropped");
  m_.pop_fetch_serves = &metrics_->GetCounter("brass.pop_fetch_serves");
  burst_ = std::make_unique<BurstServer>(ctx_.sim(), host_id_, this, burst_config_, metrics_);
  event_rpc_.RegisterMethod("brass.event", [this](MessagePtr request, RpcServer::Respond respond) {
    HandlePylonEvent(std::move(request), std::move(respond));
  });
  was_channel_ = std::make_unique<RpcChannel>(
      ctx_, was_->rpc(),
      pylon_ != nullptr ? pylon_->topology()->LinkModel(region_, was_->region())
                        : LatencyModel::IntraRegion());
  fetch_pipeline_ = std::make_unique<FetchPipeline>(
      ctx_.sim(), region_, was_channel_.get(), config_.was_call_timeout, config_.fetch, metrics_,
      trace_,
      [this](const std::string& app) -> const std::vector<UserId>& { return ViewersForApp(app); });
  if (pylon_ != nullptr) {
    pylon_->RegisterSubscriberHost(host_id_, region_, &event_rpc_);
  }
}

const BrassHost::AppMetrics& BrassHost::AppMetricsFor(const std::string& app) {
  auto it = app_metrics_.find(app);
  if (it != app_metrics_.end()) {
    return it->second;
  }
  AppMetrics handles;
  handles.decisions = &metrics_->GetCounter("brass.decisions." + app);
  handles.conflated = &metrics_->GetCounter("brass.conflated." + app);
  handles.shed = &metrics_->GetCounter("brass.shed." + app);
  handles.deliveries = &metrics_->GetCounter("brass.deliveries." + app);
  handles.degrade_signals = &metrics_->GetCounter("brass.degrade_signals." + app);
  handles.push_delay_us = &metrics_->GetHistogram("brass.push_delay_us." + app);
  return app_metrics_.emplace(app, handles).first->second;
}

BrassHost::~BrassHost() {
  if (pylon_ != nullptr) {
    pylon_->UnregisterSubscriberHost(host_id_);
  }
}

BrassHost::AppInstance* BrassHost::GetOrSpawnApp(const std::string& name) {
  auto it = apps_.find(name);
  if (it != apps_.end()) {
    return &it->second;
  }
  auto registration = registry_->find(name);
  if (registration == registry_->end()) {
    return nullptr;
  }
  if (static_cast<int>(apps_.size()) >= config_.max_apps_per_host) {
    m_.vm_cap_rejections->Increment();
    return nullptr;
  }
  // Serverless spawn: the first stream for an application arriving at this
  // host spools up a fresh instance (§1).
  AppInstance instance;
  instance.runtime = std::make_unique<BrassRuntime>(this, name);
  instance.app = registration->second.factory(*instance.runtime);
  m_.app_spawns->Increment();
  auto [ins, ok] = apps_.emplace(name, std::move(instance));
  assert(ok);
  return &ins->second;
}

void BrassHost::OnStreamStarted(ServerStream& stream) {
  m_.streams_started->Increment();
  StreamHeaderView header(stream.header());
  const std::string& app_name = header.app();
  StreamKey key = stream.key();
  UserId viewer = header.viewer();

  // Continue the device's "subscribe" trace (ids in the header) or, for
  // streams opened without one (direct transport tests), root a fresh
  // trace here. "brass.subscribe" covers stream arrival -> subscription
  // complete — the device-observed setup latency of Table 3.
  TraceContext root = ContextFromValue(stream.header());
  if (!root.decided()) {
    root = trace_->StartTrace("subscribe", "brass", region_, ctx_.Now());
  }
  TraceContext sub_span = trace_->StartSpan(root, "brass.subscribe", "brass", region_, ctx_.Now());
  trace_->Annotate(sub_span, "app", Value(app_name));
  trace_->Annotate(sub_span, "viewer", Value(viewer));

  AppInstance* app = GetOrSpawnApp(app_name);
  if (app == nullptr) {
    trace_->MarkError(sub_span, "no BRASS implementation", ctx_.Now());
    stream.Terminate(TerminateReason::kError, "no BRASS implementation for '" + app_name + "'");
    return;
  }

  // Resolve the GraphQL subscription into concrete Pylon topics by calling
  // the WAS (Fig. 3 step 5).
  auto resolve = std::make_shared<WasResolveSubRequest>();
  resolve->subscription = header.subscription();
  resolve->viewer = viewer;
  resolve->trace = sub_span;
  LatencyModel dispatch{config_.subscribe_dispatch_ms, 0.3, config_.subscribe_dispatch_ms / 4.0};
  const uint64_t serial = ++last_resolve_serial_;
  resolve_serials_[key] = serial;
  ctx_.Schedule(dispatch.Sample(ctx_.rng()), [this, key, app_name, resolve, sub_span, serial]() {
    was_channel_->Call(
        "was.resolve_subscription", resolve,
        [this, key, app_name, sub_span, serial](RpcStatus status, MessagePtr response) {
          if (Superseded(key, serial, sub_span)) {
            return;
          }
          if (status != RpcStatus::kOk) {
            trace_->MarkError(sub_span, "subscription resolution failed", ctx_.Now());
            ServerStream* s = burst_->FindStream(key);
            if (s != nullptr) {
              s->Terminate(TerminateReason::kError, "subscription resolution failed");
            }
            return;
          }
          CompleteSubscription(key, app_name, std::move(response));
        },
        config_.was_call_timeout);
  });
}

bool BrassHost::Superseded(const StreamKey& key, uint64_t serial, const TraceContext& sub_span) {
  auto latest = resolve_serials_.find(key);
  if (latest == resolve_serials_.end() || latest->second == serial) {
    return false;
  }
  trace_->Annotate(sub_span, "superseded", Value(true));
  trace_->EndSpan(sub_span, ctx_.Now());
  return true;
}

void BrassHost::CompleteSubscription(const StreamKey& key, const std::string& app,
                                     MessagePtr resolve_response) {
  // The resolve response carried the "brass.subscribe" span's context back
  // (responses inherit the request's trace).
  TraceContext sub_span = resolve_response->trace;
  ServerStream* stream = burst_->FindStream(key);
  if (stream == nullptr) {
    trace_->Annotate(sub_span, "cancelled", Value(true));
    trace_->EndSpan(sub_span, ctx_.Now());
    return;  // cancelled or detached-and-GCed while resolving
  }
  auto resolution = std::static_pointer_cast<WasResolveSubResponse>(resolve_response);
  if (!resolution->ok) {
    trace_->MarkError(sub_span, resolution->error, ctx_.Now());
    stream->Terminate(TerminateReason::kError, resolution->error);
    return;
  }
  AppInstance* instance = GetOrSpawnApp(app);
  if (instance == nullptr) {
    trace_->MarkError(sub_span, "application unavailable", ctx_.Now());
    stream->Terminate(TerminateReason::kError, "application unavailable");
    return;
  }

  // Device-observed subscription setup (Table 3's device-side subscription
  // latency) is the "brass.subscribe" span's end relative to the trace
  // root the device opened before sending the subscribe frame.
  trace_->EndSpan(sub_span, ctx_.Now());

  HostStream host_stream;
  host_stream.app = app;
  host_stream.state.stream = stream;
  host_stream.state.key = key;
  host_stream.state.viewer = StreamHeaderView(stream->header()).viewer();
  host_stream.state.topics = resolution->topics;
  host_stream.state.context = resolution->context;
  host_stream.state.started_at = ctx_.Now();
  if (sub_span.valid()) {
    host_stream.stream_span =
        trace_->StartSpan(sub_span, "brass.stream", "brass", region_, ctx_.Now());
    trace_->Annotate(host_stream.stream_span, "app", Value(app));
  }
  HostStream& installed = InstallStream(key, std::move(host_stream));
  // streams_ nodes never move, and erasing the stream destroys the pacer
  // with its pending release.
  installed.pacer = PushPacer(ctx_, config_.overload.min_push_gap,
                              [this, &installed](PendingDelivery next) {
                                PushNow(installed.app, installed.state, std::move(next.payload),
                                        next.options);
                              });

  // Durable tier: position the stream on its channel's log. An absent
  // resume token means a fresh subscriber (live tail from the current log
  // head); a present one — including 0 — is a readSeq offset to replay
  // after. Token 0 with a non-empty log replays everything retained.
  const BrassAppDescriptor* descriptor = DescriptorFor(app);
  const bool durable_app =
      descriptor != nullptr && descriptor->durable && !installed.state.topics.empty();
  if (durable_app) {
    HostStream& state = installed;
    state.durable = true;
    state.durable_channel = state.state.topics.front();
    StreamHeaderView view(stream->header());
    DurableTopicLog& log = durable_logs()->LogFor(state.durable_channel);
    state.durable_delivered =
        view.has_resume_token() ? static_cast<uint64_t>(view.resume_token()) : log.last_seq();
    state.durable_acked = state.durable_delivered;
  }

  // Edge placement: the device-facing POP stamped the header when it runs
  // this app's viewer-independent stages in transit. Durable apps never
  // place — a conflated-away sequence could not be replayed consistently.
  installed.state.pop_placed =
      !durable_app && StreamHeaderView(stream->header()).placement() != 0;

  // Sticky routing (§3.5): patch the stream's stored request everywhere
  // along the path with this host's identity, so a resubscribe after a
  // failure lands back here. Durable streams also persist their position —
  // a cold resubscribe (host crash, GC) then carries the token back.
  StreamHeader header(stream->header());
  header.set_brass_host(host_id_);
  if (durable_app) {
    header.set_durable(true);
    header.set_resume_token(static_cast<int64_t>(installed.durable_delivered));
  }
  stream->Rewrite(std::move(header).Take());

  for (const Topic& topic : installed.state.topics) {
    SubscribeTopic(topic, key, sub_span);
  }
  instance->app->OnStreamStarted(installed.state);
  if (durable_app) {
    StartDurableReplay(key);
  }
}

void BrassHost::SubscribeTopic(const Topic& topic, const StreamKey& key, TraceContext parent) {
  TopicEntry& entry = topics_[topic];
  if (entry.streams.insert(key).second) {
    // The key's stream is installed: it counts this topic's events from now.
    memberships_[key].push_back(Membership{&entry, entry.events});
    entry.plan.reset();
  }
  // Counterfactual for the subscription-manager ablation: without host-
  // level dedup, every (stream, topic) attach would be a Pylon operation.
  m_.topic_attaches->Increment();
  if (entry.subscribed || entry.in_flight || pylon_ == nullptr) {
    return;  // host-level dedup: one Pylon subscription per (host, topic)
  }
  entry.in_flight = true;
  m_.pylon_subscribes->Increment();
  // The quorum write's "pylon.subscribe" span nests under the stream that
  // triggered this host-level (deduplicated) subscription.
  CallPylonSubscribe(
      topic, /*subscribe=*/true, parent,
      [this, topic](RpcStatus status, MessagePtr response) {
        auto it = topics_.find(topic);
        if (it == topics_.end()) {
          return;  // all streams left while subscribing
        }
        it->second.in_flight = false;
        bool ok = status == RpcStatus::kOk &&
                  std::static_pointer_cast<PylonAck>(response)->ok;
        if (ok) {
          it->second.subscribed = true;
          return;
        }
        // Pylon quorum unreachable: reliably inform the affected clients
        // (§4) — their streams terminate, and devices fall back to polling
        // and resubscribing.
        m_.pylon_subscribe_failures->Increment();
        TerminateStreamsOnTopic(topic, "pylon subscription failed");
      },
      Seconds(3));
}

void BrassHost::CallPylonSubscribe(const Topic& topic, bool subscribe, TraceContext parent,
                                   RpcResponseCallback callback, SimTime timeout) {
  PylonServer* server = pylon_->RouteServer(topic);
  auto it = pylon_channels_.find(server->server_id());
  if (it == pylon_channels_.end()) {
    auto channel = std::make_unique<RpcChannel>(
        ctx_, server->rpc(), pylon_->topology()->LinkModel(region_, server->region()));
    it = pylon_channels_.emplace(server->server_id(), std::move(channel)).first;
  }
  auto request = std::make_shared<PylonSubscribeRequest>();
  request->topic = topic;
  request->host_id = host_id_;
  request->subscribe = subscribe;
  request->trace = parent;
  it->second->Call("pylon.subscribe", request, std::move(callback), timeout);
}

void BrassHost::TerminateStreamsOnTopic(const Topic& topic, const std::string& detail) {
  auto it = topics_.find(topic);
  if (it == topics_.end()) {
    return;
  }
  std::vector<StreamKey> keys(it->second.streams.begin(), it->second.streams.end());
  for (const StreamKey& key : keys) {
    ServerStream* stream = burst_->FindStream(key);
    if (stream != nullptr) {
      // Terminate() notifies OnStreamClosed, which releases all host state.
      stream->Terminate(TerminateReason::kError, detail);
      continue;
    }
    // No transport stream (already GCed): release host state directly.
    UnsubscribeStreamTopics(key);
    auto hs = streams_.find(key);
    if (hs != streams_.end()) {
      trace_->MarkError(hs->second.stream_span, detail, ctx_.Now());
      closed_stream_records_.push_back(StreamRecord{key, hs->second.app,
                                                    hs->second.state.started_at, ctx_.Now(),
                                                    EventsTargeted(key, hs->second)});
      auto app = apps_.find(hs->second.app);
      if (app != apps_.end()) {
        app->second.app->OnStreamClosed(hs->second.state);
      }
      EraseStream(hs);
    }
  }
}

void BrassHost::UnsubscribeStreamTopics(const StreamKey& key) {
  auto hs = streams_.find(key);
  if (hs == streams_.end()) {
    return;
  }
  for (const Topic& topic : hs->second.state.topics) {
    auto it = topics_.find(topic);
    if (it == topics_.end() || it->second.streams.erase(key) == 0) {
      continue;  // a topic listed twice, already left
    }
    // Settle the topic's events into the stream and drop the membership.
    // The topic's plan needs no reset: both callers erase the stream next,
    // which moves stream_epoch_.
    TopicEntry& entry = it->second;
    std::vector<Membership>& members = memberships_[key];
    auto member = std::find_if(members.begin(), members.end(),
                               [&entry](const Membership& m) { return m.topic == &entry; });
    assert(member != members.end());
    hs->second.events_targeted += entry.events - member->baseline;
    members.erase(member);
    if (members.empty()) {
      memberships_.erase(key);
    }
    if (!entry.streams.empty()) {
      continue;
    }
    bool was_subscribed = entry.subscribed;
    topics_.erase(it);
    if (was_subscribed && pylon_ != nullptr) {
      m_.pylon_unsubscribes->Increment();
      CallPylonSubscribe(topic, /*subscribe=*/false, TraceContext(),
                         [](RpcStatus, MessagePtr) { /* best effort */ });
    }
  }
}

void BrassHost::HandlePylonEvent(MessagePtr request, RpcServer::Respond respond) {
  auto delivery = std::static_pointer_cast<BrassEventDelivery>(request);
  respond(std::make_shared<PylonAck>());
  if (!alive_) {
    return;
  }
  auto event = delivery->event;
  m_.events_received->Increment();
  // Version observation: a newer version of an object arriving in any
  // event invalidates the fetch pipeline's cached payloads of older
  // versions (TAO replication lag must never serve a stale payload).
  fetch_pipeline_->ObserveEvent(event->metadata);
  // Table 3's "Pylon receives publish -> update sent to n BRASSes" span:
  // close the "pylon.deliver" span Pylon opened for this host, and have
  // the copy of the event the apps see continue from it (the shared event
  // itself is delivered to many hosts and must stay immutable here).
  if (delivery->trace.valid()) {
    trace_->EndSpan(delivery->trace, ctx_.Now());
    auto traced = std::make_shared<UpdateEvent>(*event);
    traced->trace = delivery->trace;
    event = traced;
  }

  auto topic_it = topics_.find(event->topic);
  if (topic_it == topics_.end()) {
    m_.events_unsubscribed_topic->Increment();
    return;
  }
  TopicEntry& entry = topic_it->second;
  entry.events += 1;  // Fig. 7 accounting, for every stream on the topic
  // Dispatch on the event loop: one VM callback per application instance,
  // in app-name order, each after its own dispatch delay.
  std::shared_ptr<const DispatchPlan> plan = PlanFor(entry);
  for (size_t i = 0; i < plan->groups.size(); ++i) {
    LatencyModel dispatch{config_.event_dispatch_ms, 0.4, config_.event_dispatch_ms / 5.0};
    ctx_.Schedule(dispatch.Sample(ctx_.rng()), [this, plan, i, event]() {
      const DispatchGroup& group = plan->groups[i];
      auto app = apps_.find(group.app);
      if (app == apps_.end()) {
        return;
      }
      if (plan->epoch == stream_epoch_) {
        // No stream left the host since the plan was built: every pointer
        // still names its live stream.
        app->second.app->OnEvent(event->topic, *event, group.live);
        return;
      }
      std::vector<BrassStream*> live;
      live.reserve(group.keys.size());
      for (const StreamKey& key : group.keys) {
        auto hs = streams_.find(key);
        if (hs != streams_.end()) {
          live.push_back(&hs->second.state);
        }
      }
      if (!live.empty()) {
        app->second.app->OnEvent(event->topic, *event, live);
      }
    });
  }
}

std::shared_ptr<const BrassHost::DispatchPlan> BrassHost::PlanFor(TopicEntry& entry) {
  if (entry.plan != nullptr && entry.plan->epoch == stream_epoch_) {
    return entry.plan;
  }
  // Keys come from a std::set, so each group is in StreamKey order.
  auto plan = std::make_shared<DispatchPlan>();
  plan->epoch = stream_epoch_;
  DispatchGroup* group = nullptr;
  for (const StreamKey& key : entry.streams) {
    auto hs = streams_.find(key);
    if (hs == streams_.end()) {
      continue;
    }
    const std::string& app = hs->second.app;
    if (group == nullptr || group->app != app) {
      auto found = std::find_if(plan->groups.begin(), plan->groups.end(),
                                [&app](const DispatchGroup& g) { return g.app == app; });
      group = found != plan->groups.end() ? &*found
                                          : &plan->groups.emplace_back(DispatchGroup{app, {}, {}});
    }
    group->keys.push_back(key);
    group->live.push_back(&hs->second.state);
  }
  std::sort(plan->groups.begin(), plan->groups.end(),
            [](const DispatchGroup& a, const DispatchGroup& b) { return a.app < b.app; });
  ++dispatch_plan_builds_;
  entry.plan = plan;
  return plan;
}

void BrassHost::OnStreamResumed(ServerStream& stream) {
  auto hs = streams_.find(stream.key());
  if (hs == streams_.end()) {
    // The transport kept the stream but the host has no state for it: the
    // resume arrived before the stream's first resolve completed. Start it
    // the way a new stream starts; the earlier resolve is superseded.
    OnStreamStarted(stream);
    return;
  }
  // The transport resumes the ServerStream it kept, and the host's entry
  // goes in the same call that drops a ServerStream: the entry already
  // points at this one.
  assert(hs->second.state.stream == &stream);
  // Re-read the placement stamp: a resubscribe through a different POP may
  // have changed (or cleared) it, and the stream must fall back to fully
  // regional processing when the new edge is placement-incapable.
  hs->second.state.pop_placed =
      !hs->second.durable && StreamHeaderView(stream.header()).placement() != 0;
  auto app = apps_.find(hs->second.app);
  if (app != apps_.end()) {
    app->second.app->OnStreamResumed(hs->second.state);
  }
  if (hs->second.durable) {
    // Pushes in flight during the detach window may be lost; rewind to the
    // acked watermark and replay. The client dedups any overlap, so each
    // sequence still reaches the app exactly once.
    hs->second.durable_delivered = hs->second.durable_acked;
    if (!hs->second.replaying) {
      StartDurableReplay(stream.key());
    }
    // A replay already running continues from the rewound watermark: its
    // next batch reads after durable_delivered.
  }
}

void BrassHost::OnStreamDetached(ServerStream& stream, const std::string& reason) {
  // State is retained (BurstServer holds it for the keep timeout); nothing
  // application-visible happens until resume or GC. The stream span keeps
  // running but records the detach so a later error close is explicable.
  auto hs = streams_.find(stream.key());
  if (hs != streams_.end()) {
    trace_->Annotate(hs->second.stream_span, "detached", Value(reason));
  }
}

void BrassHost::OnStreamClosed(const StreamKey& key, TerminateReason reason) {
  resolve_serials_.erase(key);
  auto hs = streams_.find(key);
  if (hs == streams_.end()) {
    return;
  }
  if (hs->second.replaying) {
    EndDurableReplay(hs->second, "stream closed");
  }
  if (reason == TerminateReason::kError) {
    trace_->MarkError(hs->second.stream_span, "stream error", ctx_.Now());
  } else {
    trace_->Annotate(hs->second.stream_span, "close_reason", Value(ToString(reason)));
    trace_->EndSpan(hs->second.stream_span, ctx_.Now());
  }
  UnsubscribeStreamTopics(key);
  closed_stream_records_.push_back(StreamRecord{key, hs->second.app,
                                                hs->second.state.started_at, ctx_.Now(),
                                                EventsTargeted(key, hs->second)});
  auto app = apps_.find(hs->second.app);
  if (app != apps_.end()) {
    app->second.app->OnStreamClosed(hs->second.state);
  }
  EraseStream(hs);
}

std::vector<StreamRecord> BrassHost::OpenStreamRecords() const {
  std::vector<StreamRecord> records;
  records.reserve(streams_.size());
  for (const auto& [key, hs] : streams_) {
    records.push_back(
        StreamRecord{key, hs.app, hs.state.started_at, 0, EventsTargeted(key, hs)});
  }
  return records;
}

uint64_t BrassHost::EventsTargeted(const StreamKey& key, const HostStream& hs) const {
  uint64_t events = hs.events_targeted;
  auto members = memberships_.find(key);
  if (members != memberships_.end()) {
    for (const Membership& m : members->second) {
      events += m.topic->events - m.baseline;
    }
  }
  return events;
}

BrassHost::HostStream& BrassHost::InstallStream(const StreamKey& key, HostStream host_stream) {
  // Only a key's latest resolve installs, and a stream leaves every topic
  // as it closes: the key is new to the host and to every topic.
  assert(streams_.count(key) == 0);
  assert(memberships_.count(key) == 0);
  HostStream& hs = streams_.emplace(key, std::move(host_stream)).first->second;
  AddViewer(hs.app, hs.state.viewer);
  return hs;
}

void BrassHost::EraseStream(StreamTable::iterator hs) {
  RemoveViewer(hs->second.app, hs->second.state.viewer);
  streams_.erase(hs);
  ++stream_epoch_;
}

void BrassHost::ClearStreams() {
  streams_.clear();
  resolve_serials_.clear();
  ++stream_epoch_;
  viewers_by_app_.clear();
}

void BrassHost::AddViewer(const std::string& app, UserId viewer) {
  if (viewer == 0) {
    return;
  }
  AppViewers& index = viewers_by_app_[app];
  auto it = std::lower_bound(index.viewers.begin(), index.viewers.end(), viewer);
  const size_t at = static_cast<size_t>(it - index.viewers.begin());
  if (it != index.viewers.end() && *it == viewer) {
    index.streams[at] += 1;
    return;
  }
  index.viewers.insert(it, viewer);
  index.streams.insert(index.streams.begin() + static_cast<std::ptrdiff_t>(at), 1);
}

void BrassHost::RemoveViewer(const std::string& app, UserId viewer) {
  if (viewer == 0) {
    return;
  }
  AppViewers& index = viewers_by_app_[app];
  auto it = std::lower_bound(index.viewers.begin(), index.viewers.end(), viewer);
  assert(it != index.viewers.end() && *it == viewer);
  const auto at = it - index.viewers.begin();
  if (--index.streams[static_cast<size_t>(at)] == 0) {
    index.viewers.erase(it);
    index.streams.erase(index.streams.begin() + at);
  }
}

void BrassHost::OnAck(ServerStream& stream, uint64_t seq) {
  auto hs = streams_.find(stream.key());
  if (hs == streams_.end()) {
    return;
  }
  HostStream& state = hs->second;
  if (state.durable && seq > state.durable_acked) {
    state.durable_acked = seq;
    state.acks_since_rewrite += 1;
    const uint64_t interval = std::max<uint64_t>(config_.durable_log.token_rewrite_interval, 1);
    if (state.acks_since_rewrite >= interval && stream.attached()) {
      // Persist the acked offset as the stream's resume token: the rewrite
      // ripples the stored request at client/POP/proxy, so a later cold
      // resubscribe (or a proxy-initiated repair) replays from here.
      state.acks_since_rewrite = 0;
      m_.durable_token_rewrites->Increment();
      if (state.stream_span.valid()) {
        TraceContext ack_span =
            trace_->StartSpan(state.stream_span, "burst.ack", "burst", region_, ctx_.Now());
        trace_->Annotate(ack_span, "seq", Value(static_cast<int64_t>(state.durable_acked)));
        trace_->EndSpan(ack_span, ctx_.Now());
      }
      StreamHeader header(stream.header());
      header.set_resume_token(static_cast<int64_t>(state.durable_acked));
      stream.Rewrite(std::move(header).Take());
    }
  }
  auto app = apps_.find(state.app);
  if (app != apps_.end()) {
    app->second.app->OnAck(state.state, seq);
  }
}

void BrassHost::FetchPayload(const std::string& app, const Value& metadata,
                             const FetchOptions& options,
                             std::function<void(bool, Value)> callback) {
  fetch_pipeline_->Fetch(app, metadata, options, std::move(callback));
}

BrassStream* BrassHost::FindStream(const std::string& app, const StreamKey& key) {
  auto hs = streams_.find(key);
  return hs != streams_.end() && hs->second.app == app ? &hs->second.state : nullptr;
}

const std::vector<UserId>& BrassHost::ViewersForApp(const std::string& app) const {
  static const std::vector<UserId> kNone;
  auto it = viewers_by_app_.find(app);
  return it == viewers_by_app_.end() ? kNone : it->second.viewers;
}

void BrassHost::WasQuery(const std::string& query, const FetchOptions& options,
                         std::function<void(bool, Value)> callback) {
  auto request = std::make_shared<WasQueryRequest>();
  request->query = query;
  request->viewer = options.viewer;
  auto cb = std::make_shared<std::function<void(bool, Value)>>(std::move(callback));
  was_channel_->Call(
      "was.query", request,
      [cb](RpcStatus status, MessagePtr response) {
        if (status != RpcStatus::kOk) {
          (*cb)(false, Value(nullptr));
          return;
        }
        auto result = std::static_pointer_cast<WasQueryResponse>(response);
        (*cb)(result->errors.empty(), result->data);
      },
      config_.was_call_timeout);
}

void BrassHost::CountDecisions(const std::string& app, bool delivered, int64_t n) {
  // A decision is one examine-and-decide on (event, stream); Fig. 8's
  // "decisions on updates" series. Positive decisions lead to deliveries
  // (possibly batched: several positive decisions can share one push).
  assert(n >= 0);
  if (n == 0) {
    return;
  }
  m_.decisions->Increment(n);
  AppMetricsFor(app).decisions->Increment(n);
  (delivered ? m_.decisions_positive : m_.filtered)->Increment(n);
}

const BrassAppDescriptor* BrassHost::DescriptorFor(const std::string& app) const {
  auto it = registry_->find(app);
  return it == registry_->end() ? nullptr : &it->second.descriptor;
}

void BrassHost::DeliverData(const std::string& app, BrassStream& stream, Value payload,
                            const DeliverOptions& options) {
  // Apps deliver only to streams they were handed and that have not closed.
  auto hs = streams_.find(stream.key);
  assert(hs != streams_.end() && &hs->second.state == &stream);
  HostStream& state = hs->second;
  if (state.durable) {
    DeliverDurable(state, std::move(payload), options);
    return;
  }
  RollShedWindow(state);
  if (state.degraded) {
    // The device is polling; streaming deliveries are dropped, but the
    // offered load is still observed so recovery can tell it subsided.
    state.degraded_attempts += 1;
    m_.degraded_drops->Increment();
    return;
  }
  state.window_attempts += 1;
  if (state.pacer.TakeSlot()) {
    PushNow(app, stream, std::move(payload), options);
    return;
  }

  const BrassAppDescriptor* descriptor = DescriptorFor(app);
  const bool conflatable = descriptor != nullptr && descriptor->conflatable;
  size_t bound = config_.overload.max_pending_per_stream;
  if (descriptor != nullptr && descriptor->max_pending_per_stream > 0) {
    bound = descriptor->max_pending_per_stream;
  }
  bound = std::max<size_t>(bound, 1);
  auto result = state.pacer.queue().Offer(std::move(payload), options, conflatable, bound);
  switch (result.outcome) {
    case ConflatingDeliveryQueue::Outcome::kConflated:
      m_.conflated->Increment();
      AppMetricsFor(app).conflated->Increment();
      break;
    case ConflatingDeliveryQueue::Outcome::kShed: {
      state.window_sheds += 1;
      m_.shed->Increment();
      AppMetricsFor(app).shed->Increment();
      // Instant "brass.shed" span on the shed delivery's trace, so dropped
      // updates are visible in their timeline (docs/TRACING.md).
      if (result.shed.options.parent.valid()) {
        TraceContext shed_span = trace_->StartSpan(result.shed.options.parent, "brass.shed",
                                                   "brass", region_, ctx_.Now());
        trace_->Annotate(shed_span, "app", Value(app));
        trace_->EndSpan(shed_span, ctx_.Now());
      }
      break;
    }
    case ConflatingDeliveryQueue::Outcome::kQueued:
      break;
  }
  m_.delivery_queue_depth->Record(static_cast<double>(state.pacer.queue().size()));

  // Degrade-to-poll: sustained shedding of a large fraction of the
  // stream's attempts means pacing alone cannot absorb the spike.
  if (descriptor != nullptr && descriptor->degrade_to_poll &&
      state.window_sheds >= static_cast<uint64_t>(config_.overload.degrade_min_sheds) &&
      static_cast<double>(state.window_sheds) >=
          config_.overload.degrade_shed_fraction * static_cast<double>(state.window_attempts)) {
    DegradeStream(stream.key, state);
    return;
  }
  state.pacer.ScheduleRelease();
}

void BrassHost::PushNow(const std::string& app, BrassStream& stream, Value payload,
                        const DeliverOptions& options) {
  // Fig. 8's "update deliveries" series: actual pushes toward devices.
  m_.deliveries->Increment();
  AppMetricsFor(app).deliveries->Increment();
  // Last-mile bandwidth accounting (the filter-location ablation).
  m_.delivered_bytes->Increment(static_cast<int64_t>(payload.WireSize()));
  // "burst.deliver": push leaves BRASS -> device receives it. The span's
  // context rides on the data delta; the device's BURST client ends it.
  TraceContext deliver_span;
  if (options.parent.valid()) {
    deliver_span =
        trace_->StartSpan(options.parent, "burst.deliver", "burst", region_, ctx_.Now());
    trace_->Annotate(deliver_span, "app", Value(app));
  }
  StampForDevice(payload, app, options.event_created_at, ctx_.Now());
  stream.stream->PushData(std::move(payload), options.seq, deliver_span);
  if (options.event_created_at > 0) {
    AppMetricsFor(app).push_delay_us->Record(
        static_cast<double>(ctx_.Now() - options.event_created_at));
  }
}

void BrassHost::PushEnvelope(const std::string& app, const std::vector<BrassStream*>& streams,
                             Value envelope, const DeliverOptions& options) {
  // Accounting stays per stream, as one envelope push per stream would
  // count it. Envelopes bypass host-side pacing and byte accounting: the
  // POP runs the same conflation/pacing knobs at the edge and counts the
  // actual device-bound bytes there.
  std::vector<std::pair<uint64_t, ServerStream*>> by_connection;
  by_connection.reserve(streams.size());
  for (BrassStream* stream : streams) {
    m_.envelopes->Increment();
    if (!stream->attached()) {
      m_.server_pushes_dropped->Increment();
      continue;
    }
    by_connection.emplace_back(stream->stream->connection_id(), stream->stream);
  }
  // One frame per proxy connection, sent along its first stream the way
  // fills travel; each frame lists its streams in key order.
  std::stable_sort(by_connection.begin(), by_connection.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (size_t begin = 0; begin < by_connection.size();) {
    size_t end = begin + 1;
    while (end < by_connection.size() && by_connection[end].first == by_connection[begin].first) {
      ++end;
    }
    auto frame = std::make_shared<EnvelopeFrame>();
    frame->streams.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      frame->streams.push_back(by_connection[i].second->key());
    }
    frame->metadata = envelope;
    frame->conflation_key = options.conflation_key;
    frame->version = options.version;
    frame->event_created_at = options.event_created_at;
    if (options.parent.valid()) {
      frame->trace = trace_->StartSpan(options.parent, "brass.process", "brass", region_,
                                       ctx_.Now());
      trace_->Annotate(frame->trace, "app", Value(app));
      trace_->Annotate(frame->trace, "outcome", Value("envelope"));
      trace_->Annotate(frame->trace, "streams", Value(static_cast<int64_t>(end - begin)));
    }
    m_.envelope_frames->Increment();
    by_connection[begin].second->SendFrame(frame);
    if (frame->trace.valid()) {
      trace_->EndSpan(frame->trace, ctx_.Now());
    }
    begin = end;
  }
}

void BrassHost::OnPopFetch(ServerStream& stream, const PopFetchFrame& fetch) {
  m_.pop_fetch_serves->Increment();
  // One regional fetch answers every envelope of this object version
  // waiting at the POP: the fetch pipeline coalesces the listed viewers
  // onto one WAS round trip (batched privacy checks, with the envelope's
  // author for blocks), and the fill fans the payload out at the edge.
  // Per-viewer privacy stays regional — every decision in the fill was
  // computed by the WAS.
  auto fill = std::make_shared<PopFillFrame>();
  fill->key = fetch.key;
  fill->app = fetch.app;
  fill->object = ObjectIdOf(fetch.metadata);
  fill->version = ObjectVersionOf(fetch.metadata);
  StreamKey key = stream.key();
  fetch_pipeline_->FetchForViewers(
      fetch.app, fetch.metadata, fetch.viewers, fetch.trace,
      [this, fill, key](FetchPipeline::ViewerDecisions decisions, Value payload) {
        fill->ok = std::any_of(decisions.begin(), decisions.end(),
                               [](const auto& decision) { return decision.second; });
        fill->payload = std::move(payload);
        fill->decisions = std::move(decisions);
        // Answer the POP if the stream the fetch came through is still
        // attached. If it left the POP, the POP has re-sent the request
        // through another waiting stream (Pop::ResendFetchesVia).
        ServerStream* s = burst_->FindStream(key);
        if (s != nullptr) {
          s->SendFrame(fill);
        }
      });
}

DurableLogDirectory* BrassHost::durable_logs() {
  if (durable_logs_ == nullptr) {
    durable_logs_ = std::make_shared<DurableLogDirectory>(config_.durable_log);
  }
  return durable_logs_.get();
}

uint64_t BrassHost::AppendDurable(const Topic& channel, uint64_t event_id, Value payload,
                                  SimTime created_at) {
  AppendResult result =
      durable_logs()->LogFor(channel).Append(event_id, std::move(payload), created_at);
  if (result.duplicate) {
    m_.durable_append_duplicates->Increment();
  } else {
    m_.durable_appends->Increment();
  }
  return result.seq;
}

void BrassHost::DeliverDurable(HostStream& state, Value payload, const DeliverOptions& options) {
  if (options.seq > 0) {
    if (state.replaying) {
      // The running replay reads up to the log head, which includes this
      // entry; pushing it live too would deliver it twice.
      m_.durable_live_suppressed->Increment();
      return;
    }
    if (options.seq <= state.durable_delivered) {
      m_.durable_duplicates_suppressed->Increment();
      return;
    }
    if (!state.state.attached()) {
      // Detached: the entry is durable in the log; the resume replay
      // delivers it (the best-effort tier would simply drop it here).
      m_.durable_live_suppressed->Increment();
      return;
    }
    if (options.seq > state.durable_delivered + 1) {
      // Event dispatch raced the log order (per-app dispatch latencies are
      // independent draws): delivering this now would skip the sequences in
      // between. Replay the gap from the log — in order — instead.
      m_.durable_live_suppressed->Increment();
      StartDurableReplay(state.state.key);
      return;
    }
    state.durable_delivered = options.seq;
    payload.Set("_seq", static_cast<int64_t>(options.seq));
  }
  PushNow(state.app, state.state, std::move(payload), options);
}

void BrassHost::StartDurableReplay(const StreamKey& key) {
  auto hs = streams_.find(key);
  if (hs == streams_.end() || !hs->second.durable || hs->second.replaying) {
    return;
  }
  HostStream& state = hs->second;
  DurableTopicLog& log = durable_logs()->LogFor(state.durable_channel);
  if (log.Truncated(state.durable_delivered)) {
    // Retention outran this subscriber: the missed prefix is gone for good.
    // Surface the restart (the app layer must re-snapshot or accept the
    // gap) and resume from the oldest retained entry.
    m_.durable_truncated_resumes->Increment();
    if (state.state.attached()) {
      state.state.stream->PushFlow(FlowStatus::kRestarted,
                                   "durable log truncated past resume token");
    }
    state.durable_delivered = log.oldest_retained_seq() - 1;
    if (state.durable_acked < state.durable_delivered) {
      state.durable_acked = state.durable_delivered;
    }
  }
  if (state.durable_delivered >= log.last_seq()) {
    return;  // caught up; nothing to replay
  }
  state.replaying = true;
  if (state.stream_span.valid()) {
    state.replay_span =
        trace_->StartSpan(state.stream_span, "burst.replay", "burst", region_, ctx_.Now());
    trace_->Annotate(state.replay_span, "from_seq",
                     Value(static_cast<int64_t>(state.durable_delivered)));
  }
  ReplayDurableBatch(key);
}

void BrassHost::ReplayDurableBatch(const StreamKey& key) {
  auto hs = streams_.find(key);
  if (hs == streams_.end() || !hs->second.replaying) {
    return;
  }
  HostStream& state = hs->second;
  ServerStream* raw = state.state.stream;
  if (!raw->attached()) {
    // Detached mid-replay; the next resume rewinds to the acked watermark
    // and starts a fresh replay.
    EndDurableReplay(state, "aborted: stream detached");
    return;
  }
  DurableTopicLog& log = durable_logs()->LogFor(state.durable_channel);
  const int batch_size = std::max(config_.durable_log.replay_batch, 1);
  ReadResult read = log.ReadAfter(state.durable_delivered, batch_size);
  if (read.status == ReadStatus::kTruncated) {
    // Retention advanced past our cursor while replaying (tiny log bounds
    // under sustained publishing); same contract as a truncated resume.
    m_.durable_truncated_resumes->Increment();
    raw->PushFlow(FlowStatus::kRestarted, "durable log truncated during replay");
  }
  if (read.entries.empty()) {
    EndDurableReplay(state, "");
    return;
  }
  const AppMetrics& app_metrics = AppMetricsFor(state.app);
  std::vector<Delta> batch;
  batch.reserve(read.entries.size());
  for (const DurableEntry* entry : read.entries) {
    Value payload = entry->payload;
    StampForDevice(payload, state.app, entry->created_at, ctx_.Now());
    payload.Set("_seq", static_cast<int64_t>(entry->seq));
    m_.deliveries->Increment();
    app_metrics.deliveries->Increment();
    m_.delivered_bytes->Increment(static_cast<int64_t>(entry->bytes));
    m_.durable_replayed->Increment();
    if (entry->created_at > 0) {
      app_metrics.push_delay_us->Record(static_cast<double>(ctx_.Now() - entry->created_at));
    }
    state.durable_delivered = entry->seq;
    batch.push_back(Delta::Data(std::move(payload), entry->seq));
  }
  raw->Push(std::move(batch));
  if (state.durable_delivered >= log.last_seq()) {
    EndDurableReplay(state, "");
    return;
  }
  ctx_.Schedule(std::max<SimTime>(config_.durable_log.replay_batch_gap, 1),
                 [this, key]() { ReplayDurableBatch(key); });
}

void BrassHost::EndDurableReplay(HostStream& state, const std::string& note) {
  state.replaying = false;
  if (state.replay_span.valid()) {
    if (!note.empty()) {
      trace_->Annotate(state.replay_span, "note", Value(note));
    }
    trace_->Annotate(state.replay_span, "to_seq",
                     Value(static_cast<int64_t>(state.durable_delivered)));
    trace_->EndSpan(state.replay_span, ctx_.Now());
    state.replay_span = TraceContext();
  }
}

void BrassHost::RollShedWindow(HostStream& state) {
  const SimTime window = config_.overload.shed_window;
  if (window <= 0) {
    return;
  }
  const SimTime now = ctx_.Now();
  if (now - state.window_start >= window) {
    state.window_start = now;
    state.window_attempts = 0;
    state.window_sheds = 0;
  }
}

void BrassHost::DegradeStream(const StreamKey& key, HostStream& state) {
  if (state.degraded) {
    return;
  }
  state.degraded = true;
  state.degraded_attempts = 0;
  m_.degraded_drops->Increment(static_cast<int64_t>(state.pacer.queue().size()));
  state.pacer.queue().Clear();
  m_.degrade_signals->Increment();
  AppMetricsFor(state.app).degrade_signals->Increment();
  // "burst.degrade" span covers the degraded-to-polling interval on the
  // stream's timeline (docs/TRACING.md).
  if (state.stream_span.valid()) {
    state.degrade_span =
        trace_->StartSpan(state.stream_span, "burst.degrade", "burst", region_, ctx_.Now());
    trace_->Annotate(state.degrade_span, "app", Value(state.app));
  }
  state.state.stream->PushFlow(FlowStatus::kDegradeToPoll, "shed rate exceeded");
  ScheduleRecoveryCheck(key);
}

void BrassHost::ScheduleRecoveryCheck(const StreamKey& key) {
  ctx_.Schedule(config_.overload.recover_check_interval, [this, key]() {
    auto it = streams_.find(key);
    if (it == streams_.end() || !it->second.degraded) {
      return;
    }
    HostStream& state = it->second;
    // Recover when the load offered during the last interval fits under the
    // stream's push pacing; otherwise keep polling and check again.
    const SimTime gap = config_.overload.min_push_gap;
    const SimTime interval = config_.overload.recover_check_interval;
    const bool sustainable =
        gap <= 0 || static_cast<SimTime>(state.degraded_attempts) * gap <= interval;
    if (!sustainable) {
      state.degraded_attempts = 0;
      ScheduleRecoveryCheck(key);
      return;
    }
    state.degraded = false;
    state.degraded_attempts = 0;
    state.window_start = ctx_.Now();
    state.window_attempts = 0;
    state.window_sheds = 0;
    m_.recover_signals->Increment();
    if (state.degrade_span.valid()) {
      trace_->EndSpan(state.degrade_span, ctx_.Now());
      state.degrade_span = TraceContext();
    }
    state.state.stream->PushFlow(FlowStatus::kResumeStream, "overload subsided");
  });
}

void BrassHost::CloseAllStreamSpans(const std::string& reason) {
  for (auto& [key, hs] : streams_) {
    const Span* span = trace_->FindSpan(hs.stream_span);
    if (span != nullptr && span->open()) {
      trace_->MarkError(hs.stream_span, reason, ctx_.Now());
    }
  }
}

void BrassHost::WithdrawAllPylonSubscriptions() {
  for (const auto& [topic, entry] : topics_) {
    if (entry.subscribed) {  // only ever set by a Pylon ack
      CallPylonSubscribe(topic, /*subscribe=*/false, TraceContext(), [](RpcStatus, MessagePtr) {});
    }
  }
  // Every topic goes: settle their events into the streams still here.
  for (const auto& [key, members] : memberships_) {
    auto hs = streams_.find(key);
    if (hs != streams_.end()) {
      hs->second.events_targeted = EventsTargeted(key, hs->second);
    }
  }
  memberships_.clear();
  topics_.clear();
}

void BrassHost::StartDrain(SimTime grace) {
  if (!alive_ || draining_) {
    return;
  }
  // Phase 1: stop taking new streams (the router and sticky re-routing
  // skip draining hosts) while existing streams keep being served.
  draining_ = true;
  m_.host_drain_starts->Increment();
  ctx_.Schedule(grace, [this]() { Drain(); });
}

void BrassHost::Drain() {
  if (!alive_) {
    return;
  }
  alive_ = false;
  draining_ = true;
  m_.host_drains->Increment();
  burst_->Drain();
  WithdrawAllPylonSubscriptions();
  CloseAllStreamSpans("host drain");
  ClearStreams();
  apps_.clear();
  fetch_pipeline_->Clear();
  if (pylon_ != nullptr) {
    pylon_->UnregisterSubscriberHost(host_id_);
  }
}

void BrassHost::FailHost() {
  if (!alive_) {
    return;
  }
  alive_ = false;
  m_.host_failures->Increment();
  burst_->FailHost();
  // "Pylon also detects this and removes all subscriptions from that host"
  // (§4): modeled as the withdrawal happening shortly after the crash.
  pending_withdrawal_ = ctx_.Schedule(Millis(800), [this]() {
    pending_withdrawal_ = kInvalidTimerId;
    WithdrawAllPylonSubscriptions();
  });
  CloseAllStreamSpans("host failure");
  ClearStreams();
  apps_.clear();
  fetch_pipeline_->Clear();  // a crash loses the payload cache with the host
  if (pylon_ != nullptr) {
    pylon_->UnregisterSubscriberHost(host_id_);
  }
}

void BrassHost::Revive() {
  if (alive_) {
    return;
  }
  if (pending_withdrawal_ != kInvalidTimerId) {
    ctx_.Cancel(pending_withdrawal_);
    pending_withdrawal_ = kInvalidTimerId;
    WithdrawAllPylonSubscriptions();
  }
  alive_ = true;
  draining_ = false;
  burst_ = std::make_unique<BurstServer>(ctx_.sim(), host_id_, this, burst_config_, metrics_);
  if (pylon_ != nullptr) {
    pylon_->RegisterSubscriberHost(host_id_, region_, &event_rpc_);
  }
  m_.host_revives->Increment();
}

}  // namespace bladerunner
