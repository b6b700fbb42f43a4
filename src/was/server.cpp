#include "src/was/server.h"

#include <cassert>
#include <utility>

#include "src/pylon/messages.h"

namespace bladerunner {

WebAppServer::WebAppServer(Simulator* sim, RegionId region, TaoStore* tao, PylonCluster* pylon,
                           WasConfig config, MetricsRegistry* metrics, TraceCollector* trace)
    : ctx_(sim),
      region_(region),
      tao_(tao),
      pylon_(pylon),
      config_(config),
      metrics_(metrics),
      trace_(trace),
      next_event_id_((static_cast<uint64_t>(region) << 48) + 1) {
  assert(ctx_.sim() != nullptr && tao_ != nullptr && metrics_ != nullptr && trace_ != nullptr);
  m_.privacy_checks = &metrics_->GetCounter("was.privacy_checks");
  m_.cpu_us = &metrics_->GetCounter("was.cpu_us");
  m_.queries = &metrics_->GetCounter("was.queries");
  m_.mutations = &metrics_->GetCounter("was.mutations");
  m_.subscription_resolves = &metrics_->GetCounter("was.subscription_resolves");
  m_.fetches = &metrics_->GetCounter("was.fetches");
  m_.fetch_viewers = &metrics_->GetCounter("was.fetch_viewers");
  m_.fetch_batched = &metrics_->GetCounter("was.fetch_batched");
  m_.fetch_payload_bytes = &metrics_->GetHistogram("was.fetch_payload_bytes");
  m_.publishes = &metrics_->GetCounter("was.publishes");
  m_.lvc_hot_comments = &metrics_->GetCounter("was.lvc_hot_comments");
  m_.lvc_hot_discarded = &metrics_->GetCounter("was.lvc_hot_discarded");
  rpc_.RegisterMethod("was.query", [this](MessagePtr request, RpcServer::Respond respond) {
    HandleQuery(std::move(request), std::move(respond));
  });
  rpc_.RegisterMethod("was.mutate", [this](MessagePtr request, RpcServer::Respond respond) {
    HandleMutate(std::move(request), std::move(respond));
  });
  rpc_.RegisterMethod("was.resolve_subscription",
                      [this](MessagePtr request, RpcServer::Respond respond) {
                        HandleResolveSubscription(std::move(request), std::move(respond));
                      });
  rpc_.RegisterMethod("was.fetch", [this](MessagePtr request, RpcServer::Respond respond) {
    HandleFetch(std::move(request), std::move(respond));
  });
}

void WebAppServer::RegisterSubscriptionResolver(const std::string& field_name,
                                                SubscriptionResolver resolver) {
  subscription_resolvers_[field_name] = std::move(resolver);
}

void WebAppServer::RegisterFetchHandler(const std::string& app, FetchHandler handler) {
  fetch_handlers_[app] = std::move(handler);
}

bool WebAppServer::PrivacyCheck(UserId viewer, UserId author, QueryCost* cost) {
  if (viewer == author) {
    return true;
  }
  m_.privacy_checks->Increment();
  bool viewer_blocked_author =
      tao_->GetAssoc(region_, viewer, AssocType::kBlocked, author, cost).has_value();
  bool author_blocked_viewer =
      tao_->GetAssoc(region_, author, AssocType::kBlocked, viewer, cost).has_value();
  return !viewer_blocked_author && !author_blocked_viewer;
}

ExecResult WebAppServer::ExecuteNow(const std::string& text, UserId viewer) {
  ParseResult parsed = Parse(text);
  if (!parsed.ok()) {
    ExecResult result;
    result.errors.push_back("parse error: " + parsed.error);
    return result;
  }
  WasContext was_ctx;
  was_ctx.was = this;
  was_ctx.tao = tao_;
  was_ctx.region = region_;
  was_ctx.created_at = ctx_.Now();
  ExecContext ctx;
  ctx.viewer_id = viewer;
  ctx.backend = &was_ctx;
  ExecResult result = schema_.Execute(*parsed.document, ctx);
  // Mutations executed through this path still publish.
  if (!was_ctx.publishes.empty()) {
    SchedulePublishes(std::move(was_ctx.publishes), was_ctx.created_at);
  }
  return result;
}

void WebAppServer::ChargeCpu(double ms) {
  m_.cpu_us->Increment(static_cast<int64_t>(ms * 1000.0));
}

void WebAppServer::HandleQuery(MessagePtr request, RpcServer::Respond respond) {
  auto query = std::static_pointer_cast<WasQueryRequest>(request);
  m_.queries->Increment();

  ParseResult parsed = Parse(query->query);
  auto response = std::make_shared<WasQueryResponse>();
  if (!parsed.ok()) {
    response->errors.push_back("parse error: " + parsed.error);
    ctx_.Schedule(MillisF(config_.query_base_ms), [respond, response]() { respond(response); });
    return;
  }
  WasContext was_ctx;
  was_ctx.was = this;
  was_ctx.tao = tao_;
  was_ctx.region = region_;
  ExecContext ctx;
  ctx.viewer_id = query->viewer;
  ctx.backend = &was_ctx;
  ExecResult result = schema_.Execute(*parsed.document, ctx);
  response->data = std::move(result.data);
  response->errors = std::move(result.errors);
  response->cost = result.cost;

  SimTime tao_latency = tao_->SampleQueryLatency(result.cost);
  SimTime total = MillisF(config_.query_base_ms) + tao_latency;
  ChargeCpu(config_.query_base_ms + 0.15 * static_cast<double>(result.cost.TotalReads()) +
            0.05 * static_cast<double>(result.cost.shards_touched));
  ctx_.Schedule(total, [respond, response]() { respond(response); });
}

void WebAppServer::HandleMutate(MessagePtr request, RpcServer::Respond respond) {
  auto mutate = std::static_pointer_cast<WasMutateRequest>(request);
  m_.mutations->Increment();

  ParseResult parsed = Parse(mutate->mutation);
  auto response = std::make_shared<WasMutateResponse>();
  if (!parsed.ok()) {
    response->ok = false;
    response->errors.push_back("parse error: " + parsed.error);
    ctx_.Schedule(MillisF(config_.query_base_ms), [respond, response]() { respond(response); });
    return;
  }
  WasContext was_ctx;
  was_ctx.was = this;
  was_ctx.tao = tao_;
  was_ctx.region = region_;
  was_ctx.created_at = mutate->created_at > 0 ? mutate->created_at : ctx_.Now();
  ExecContext ctx;
  ctx.viewer_id = mutate->viewer;
  ctx.backend = &was_ctx;
  ExecResult result = schema_.Execute(*parsed.document, ctx);
  response->ok = result.ok();
  response->data = std::move(result.data);
  response->errors = std::move(result.errors);

  // The device's response waits for the TAO write; the event publication
  // continues asynchronously (Fig. 4 steps 4-5 happen after step 3).
  SimTime write_latency = MillisF(config_.query_base_ms);
  for (uint64_t i = 0; i < result.cost.writes; ++i) {
    write_latency += tao_->SampleWriteLatency(region_, mutate->viewer);
  }
  ChargeCpu(config_.query_base_ms + 0.4 * static_cast<double>(result.cost.writes));
  ctx_.Schedule(write_latency, [respond, response]() { respond(response); });

  if (!was_ctx.publishes.empty()) {
    SimTime created = was_ctx.created_at;
    std::vector<PublishSpec> specs = std::move(was_ctx.publishes);
    SimTime base = write_latency;
    ctx_.Schedule(base, [this, specs = std::move(specs), created]() mutable {
      SchedulePublishes(std::move(specs), created);
    });
  }
}

void WebAppServer::HandleResolveSubscription(MessagePtr request, RpcServer::Respond respond) {
  auto resolve = std::static_pointer_cast<WasResolveSubRequest>(request);
  m_.subscription_resolves->Increment();
  auto response = std::make_shared<WasResolveSubResponse>();

  TraceContext resolve_span;
  if (request->trace.valid()) {
    resolve_span = trace_->StartSpan(request->trace, "was.resolve", "was", region_, ctx_.Now());
  }

  ParseResult parsed = Parse(resolve->subscription);
  QueryCost cost;
  if (!parsed.ok() || parsed.document->Sole().type != OperationType::kSubscription ||
      parsed.document->Sole().selections.fields.empty()) {
    response->ok = false;
    response->error = "invalid subscription document";
  } else {
    const Field& root = parsed.document->Sole().selections.fields.front();
    auto it = subscription_resolvers_.find(root.name);
    if (it == subscription_resolvers_.end()) {
      response->ok = false;
      response->error = "unknown subscription field '" + root.name + "'";
    } else {
      WasContext was_ctx;
      was_ctx.was = this;
      was_ctx.tao = tao_;
      was_ctx.region = region_;
      ExecContext ctx;
      ctx.viewer_id = resolve->viewer;
      ctx.backend = &was_ctx;
      SubscriptionResolution resolution = it->second(root, resolve->viewer, ctx);
      cost = ctx.cost;
      response->ok = resolution.ok;
      response->app = resolution.app;
      response->topics = std::move(resolution.topics);
      response->error = resolution.error;
      response->context = std::move(resolution.context);
    }
  }
  SimTime latency = MillisF(config_.query_base_ms) + tao_->SampleQueryLatency(cost);
  ChargeCpu(config_.query_base_ms);
  ctx_.Schedule(latency, [this, respond, response, resolve_span]() {
    trace_->EndSpan(resolve_span, ctx_.Now());
    respond(response);
  });
}

void WebAppServer::HandleFetch(MessagePtr request, RpcServer::Respond respond) {
  auto fetch = std::static_pointer_cast<WasFetchRequest>(request);
  // One fetch RPC == one BRASS<->WAS round trip, regardless of how many
  // viewers it is batched for; the viewer count is accounted separately.
  m_.fetches->Increment();
  m_.fetch_viewers->Increment(static_cast<int64_t>(fetch->viewers.size()));
  if (fetch->viewers.size() > 1) {
    m_.fetch_batched->Increment();
  }
  auto response = std::make_shared<WasFetchResponse>();

  // Server-side view of the BRASS point fetch: separates WAS processing
  // time from the network round trip inside the parent "brass.fetch" span.
  TraceContext fetch_span;
  if (request->trace.valid()) {
    fetch_span = trace_->StartSpan(request->trace, "was.fetch", "was", region_, ctx_.Now());
  }

  WasContext was_ctx;
  was_ctx.was = this;
  was_ctx.tao = tao_;
  was_ctx.region = region_;
  ExecContext ctx;
  ctx.backend = &was_ctx;

  // Privacy-only top-ups skip the data query, so they only pay query
  // dispatch; payload fetches pay the full point-fetch base.
  double processing_ms = fetch->need_payload ? config_.fetch_base_ms : config_.query_base_ms;
  response->allowed.assign(fetch->viewers.size(), 0);
  auto it = fetch_handlers_.find(fetch->app);
  if (it != fetch_handlers_.end()) {
    // Privacy check first (§2: checking only messages selected for
    // delivery), and per viewer — batching changes the round-trip count,
    // never the per-viewer decision.
    UserId author = fetch->metadata.Get("author").AsInt(0);
    UserId first_allowed = 0;
    bool any_allowed = false;
    for (size_t i = 0; i < fetch->viewers.size(); ++i) {
      bool allowed = author == 0 || PrivacyCheck(fetch->viewers[i], author, &ctx.cost);
      processing_ms += config_.privacy_check_ms;
      response->allowed[i] = allowed ? 1 : 0;
      if (allowed && !any_allowed) {
        any_allowed = true;
        first_allowed = fetch->viewers[i];
      }
    }
    if (fetch->need_payload && any_allowed) {
      // The data query runs once; payloads are viewer-independent (any
      // per-viewer variation lives in the metadata, which is part of the
      // BRASS cache key).
      ctx.viewer_id = first_allowed;
      bool found = true;
      response->payload = it->second(fetch->metadata, first_allowed, ctx, &found);
      if (!found) {
        // The object is gone (or not yet visible here): no viewer may see
        // it, same as the unbatched handler reported per viewer.
        std::fill(response->allowed.begin(), response->allowed.end(), 0);
      } else {
        m_.fetch_payload_bytes->Record(static_cast<double>(response->payload.WireSize()));
      }
    }
    response->version = was_ctx.fetched_object_version != 0
                            ? was_ctx.fetched_object_version
                            : static_cast<uint64_t>(fetch->metadata.Get("version").AsInt(0));
  }
  SimTime latency = MillisF(ctx_.rng().LogNormal(processing_ms, 0.35)) +
                    tao_->SampleQueryLatency(ctx.cost);
  ChargeCpu(processing_ms * 0.12);  // fetch handling is mostly TAO/IO wait
  if (fetch_span.valid()) {
    int64_t granted = 0;
    for (uint8_t a : response->allowed) granted += a;
    trace_->Annotate(fetch_span, "viewers", Value(static_cast<int64_t>(fetch->viewers.size())));
    trace_->Annotate(fetch_span, "allowed", Value(granted));
  }
  ctx_.Schedule(latency, [this, respond, response, fetch_span]() {
    trace_->EndSpan(fetch_span, ctx_.Now());
    respond(response);
  });
}

void WebAppServer::SchedulePublishes(std::vector<PublishSpec> specs, SimTime created_at) {
  for (PublishSpec& spec : specs) {
    double logic_ms = ctx_.rng().LogNormal(config_.publish_logic_ms, 0.25);
    if (spec.requires_ranking) {
      logic_ms += ctx_.rng().LogNormal(config_.ranking_ms, 0.15);
    }
    ChargeCpu(logic_ms * 0.005);  // ranking runs on a separate ML tier; WAS mostly waits
    bool ranked = spec.requires_ranking;
    PublishSpec moved = std::move(spec);
    // Table 3 measures this span "from the time the corresponding TAO
    // mutation has completed to when the update has been sent to Pylon" —
    // i.e. from the start of the publish pipeline, not from the device.
    SimTime pipeline_start = ctx_.Now();
    // Root the update's trace at the mutation commit; "was.mutate" covers
    // the TAO write, "was.publish" the business-logic/ranking pipeline up
    // to the Pylon publish (the Table 3 WAS->Pylon span).
    TraceContext publish_span;
    if (!moved.topic.empty()) {
      TraceContext root = trace_->StartTrace("update", "was", region_, created_at);
      if (root.valid()) {
        trace_->Annotate(root, "topic", Value(moved.topic));
        trace_->RecordSpan(root, "was.mutate", "was", region_, created_at, pipeline_start);
        publish_span = trace_->StartSpan(root, "was.publish", "was", region_, pipeline_start);
        trace_->Annotate(publish_span, "ranked", Value(ranked));
      } else {
        // Sampled-out: carry the sentinel so downstream hops inherit the
        // head decision instead of rooting replacement traces.
        publish_span = root;
      }
    }
    ctx_.Schedule(MillisF(logic_ms), [this, moved = std::move(moved), created_at,
                                       publish_span]() {
      trace_->EndSpan(publish_span, ctx_.Now());
      if (moved.on_published) {
        moved.on_published();
      }
      PublishNow(moved, created_at, publish_span);
    });
  }
}

void WebAppServer::PublishNow(const PublishSpec& spec, SimTime created_at, TraceContext trace) {
  if (pylon_ == nullptr || spec.topic.empty()) {
    return;  // a WAS without Pylon, or a discarded (hot-mode) update
  }
  // Server-side agents publish without going through SchedulePublishes;
  // give those updates a root so their fanout is traceable too.
  if (!trace.decided()) {
    trace = trace_->StartTrace("update", "was", region_, created_at);
    if (trace.valid()) trace_->Annotate(trace, "topic", Value(spec.topic));
  }
  auto event = std::make_shared<UpdateEvent>();
  event->topic = spec.topic;
  event->event_id = next_event_id_++;
  event->metadata = spec.metadata;
  event->created_at = created_at;
  event->origin_region = region_;
  event->seq = spec.seq;
  event->trace = trace;

  PylonServer* server = pylon_->RouteServer(spec.topic);
  RpcChannel* channel = ChannelToPylon(server);
  auto publish = std::make_shared<PylonPublishRequest>();
  publish->event = std::move(event);
  m_.publishes->Increment();
  channel->Call("pylon.publish", publish, [](RpcStatus, MessagePtr) {
    // Best-effort: a lost publish is recovered (if at all) by app logic.
  });
}

RpcChannel* WebAppServer::ChannelToPylon(PylonServer* server) {
  auto it = pylon_channels_.find(server->server_id());
  if (it == pylon_channels_.end()) {
    auto channel = std::make_unique<RpcChannel>(
        ctx_, server->rpc(), pylon_->topology()->LinkModel(region_, server->region()));
    it = pylon_channels_.emplace(server->server_id(), std::move(channel)).first;
  }
  return it->second.get();
}

}  // namespace bladerunner
