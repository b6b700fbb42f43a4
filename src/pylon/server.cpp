#include "src/pylon/server.h"

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/pylon/cluster.h"

namespace bladerunner {

PylonServer::PylonServer(Simulator* sim, PylonCluster* cluster, uint64_t server_id,
                         RegionId region)
    : ctx_(sim), cluster_(cluster), server_id_(server_id), region_(region) {
  MetricsRegistry* metrics = cluster_->metrics();
  m_.publishes = &metrics->GetCounter("pylon.publishes");
  m_.fanout_dead_hosts = &metrics->GetCounter("pylon.fanout_dead_hosts");
  m_.fanout_sends = &metrics->GetCounter("pylon.fanout_sends");
  m_.fanout_send_delay_us = &metrics->GetHistogram("pylon.fanout_send_delay_us");
  m_.fanout_bytes = &metrics->GetCounter("pylon.fanout_bytes");
  m_.fanout_bytes_cross_region = &metrics->GetCounter("pylon.fanout_bytes_cross_region");
  m_.fanout_sends_cross_region = &metrics->GetCounter("pylon.fanout_sends_cross_region");
  m_.kv_read_failures = &metrics->GetCounter("pylon.kv_read_failures");
  m_.kv_patches_sent = &metrics->GetCounter("pylon.kv_patches_sent");
  m_.kv_inconsistencies = &metrics->GetCounter("pylon.kv_inconsistencies");
  m_.subscribes = &metrics->GetCounter("pylon.subscribes");
  m_.unsubscribes = &metrics->GetCounter("pylon.unsubscribes");
  m_.quorum_failures = &metrics->GetCounter("pylon.quorum_failures");
  rpc_.RegisterMethod("pylon.publish", [this](MessagePtr request, RpcServer::Respond respond) {
    HandlePublish(std::move(request), std::move(respond));
  });
  rpc_.RegisterMethod("pylon.subscribe", [this](MessagePtr request, RpcServer::Respond respond) {
    HandleSubscribe(std::move(request), std::move(respond));
  });
}

namespace {

// Shared state of one publish fanout: which subscribers have already been
// forwarded to, and the per-replica responses for the final patch check.
struct FanoutState {
  // One KV replica's answer to the fanout kGet, kept per node so the
  // divergence repair can patch exactly the nodes that were behind, guarded
  // on the version each one reported.
  struct ReplicaView {
    KvNode* node = nullptr;
    uint64_t version = 0;
    std::vector<int64_t> subscribers;
  };
  std::set<int64_t> forwarded;
  std::vector<ReplicaView> replica_views;
  size_t responses = 0;
  size_t replicas = 0;
  // Serialization index carried across forward_new calls: the Nth
  // subscriber this publish sends to pays N*per_subscriber_send_us no
  // matter which replica's response surfaced it.
  size_t send_index = 0;
  // The quorum-wait ablation forwards exactly once, when the quorum is
  // first reached; straggler views only feed the patch check.
  bool quorum_forwarded = false;
};

}  // namespace

void PylonServer::HandlePublish(MessagePtr request, RpcServer::Respond respond) {
  auto publish = std::static_pointer_cast<PylonPublishRequest>(request);
  auto event = publish->event;
  m_.publishes->Increment();

  // Span covering receive -> ack; the per-subscriber deliver spans below
  // are its children. A publish arriving without context (e.g. a bench
  // driving Pylon directly) roots a fresh trace here.
  TraceCollector* tracer = cluster_->trace();
  TraceContext publish_span =
      event->trace.decided()
          ? tracer->StartSpan(event->trace, "pylon.publish", "pylon", region_, ctx_.Now())
          : tracer->StartTrace("pylon.publish", "pylon", region_, ctx_.Now());
  tracer->Annotate(publish_span, "topic", Value(event->topic));

  const PylonConfig& config = cluster_->config();
  LatencyModel processing{config.publish_processing_ms, 0.3, config.publish_processing_ms / 4.0};
  SimTime processing_delay = processing.Sample(ctx_.rng());

  // Ack the publisher as soon as local processing is done; fanout is async.
  ctx_.Schedule(processing_delay, [this, tracer, publish_span,
                                    respond = std::move(respond)]() {
    tracer->EndSpan(publish_span, ctx_.Now());
    respond(std::make_shared<PylonAck>());
  });

  std::vector<KvNode*> replicas = cluster_->ReplicasFor(event->topic, region_);
  auto state = std::make_shared<FanoutState>();
  state->replicas = replicas.size();
  SimTime received_at = ctx_.Now();

  const double send_us = config.per_subscriber_send_us;
  const double pipeline_ms = config.fanout_pipeline_ms;
  auto forward_new = [this, event, state, received_at, send_us, pipeline_ms, tracer,
                      publish_span](const std::vector<int64_t>& subscribers) {
    // The fanout batch size informs the Table 3 small/large latency split;
    // carried on each delivery so receivers can bucket their measurements.
    std::vector<int64_t> fresh;
    for (int64_t host : subscribers) {
      if (state->forwarded.insert(host).second) {
        fresh.push_back(host);
      }
    }
    for (int64_t host : fresh) {
      RpcChannel* channel = cluster_->ChannelToHost(region_, host);
      if (channel == nullptr) {
        m_.fanout_dead_hosts->Increment();
        continue;
      }
      auto delivery = std::make_shared<BrassEventDelivery>();
      delivery->event = event;
      // One "pylon.deliver" span per subscriber, from the moment the
      // publish arrived until the BRASS host receives it (the host ends the
      // span) — the fanout latency Table 3 reports.
      if (publish_span.valid()) {
        delivery->trace = tracer->StartSpan(publish_span, "pylon.deliver", "pylon",
                                            region_, received_at);
        tracer->Annotate(delivery->trace, "host", Value(host));
      }
      // Serialization/send cost per subscriber makes very large fanouts pay
      // a measurable premium (the >=10k row of Table 3).
      // The internal pipeline budget (queuing/batching) plus the marginal
      // per-subscriber serialization cost.
      LatencyModel pipeline{pipeline_ms, 0.35, pipeline_ms / 4.0};
      SimTime send_cost =
          pipeline.Sample(ctx_.rng()) +
          static_cast<SimTime>(static_cast<double>(state->send_index) * send_us);
      ++state->send_index;
      SimTime pylon_delay = ctx_.Now() - received_at + send_cost;
      // Re-resolve the channel at send time: the host may unregister (host
      // drain/crash) while this send sits in the pipeline, which destroys
      // the cached channel — a stale pointer here would be use-after-free.
      PylonCluster* cluster = cluster_;
      RegionId region = region_;
      ctx_.Schedule(send_cost, [cluster, region, host, delivery]() {
        RpcChannel* live_channel = cluster->ChannelToHost(region, host);
        if (live_channel == nullptr) {
          return;  // host gone: the delivery is simply lost (§4)
        }
        live_channel->Call("brass.event", delivery, [](RpcStatus, MessagePtr) {
          // Best-effort: a failed delivery is simply lost (§4).
        });
      });
      m_.fanout_sends->Increment();
      m_.fanout_send_delay_us->Record(static_cast<double>(pylon_delay));
      // Bandwidth accounting for the event-vs-payload ablation: bytes the
      // fanout moves, split by whether the hop crosses regions (the scarce
      // resource the metadata-only design protects, §1).
      const SubscriberHostRef* ref = cluster_->FindSubscriberHost(host);
      uint64_t bytes = delivery->WireSize();
      m_.fanout_bytes->Increment(static_cast<int64_t>(bytes));
      if (ref != nullptr && ref->region != region_) {
        m_.fanout_bytes_cross_region->Increment(static_cast<int64_t>(bytes));
        m_.fanout_sends_cross_region->Increment();
      }
    }
  };

  for (KvNode* node : replicas) {
    RpcChannel* channel = cluster_->ChannelToKv(region_, node);
    auto get = std::make_shared<KvOpRequest>();
    get->op = KvOpRequest::Op::kGet;
    get->topic = event->topic;
    ctx_.Schedule(processing_delay, [this, channel, get, state, forward_new, event,
                                      node]() {
      channel->Call(
          "kv.op", get,
          [this, state, forward_new, event, node](RpcStatus status,
                                                  MessagePtr response) {
            state->responses += 1;
            if (status == RpcStatus::kOk) {
              auto kv = std::static_pointer_cast<KvOpResponse>(response);
              if (cluster_->config().forward_on_first_response) {
                // Forward-on-first-response: every replica's answer forwards
                // whatever earlier replicas missed (§3.1).
                forward_new(kv->subscribers);
              }
              state->replica_views.push_back(
                  FanoutState::ReplicaView{node, kv->version, kv->subscribers});
              if (!cluster_->config().forward_on_first_response &&
                  !state->quorum_forwarded &&
                  static_cast<int>(state->replica_views.size()) >=
                      std::min<int>(cluster_->config().write_quorum,
                                    static_cast<int>(state->replicas))) {
                // Quorum-wait ablation: forward once, when a quorum of
                // replica views is in; stragglers still patch below.
                state->quorum_forwarded = true;
                for (const auto& view : state->replica_views) {
                  forward_new(view.subscribers);
                }
              }
            } else {
              m_.kv_read_failures->Increment();
            }
            if (state->responses == state->replicas) {
              // All replicas answered (or failed): repair divergence by
              // patching the nodes that were behind up to the union of the
              // observed views. The patch is additive and guarded on the
              // version each node reported, so a quorum-acked add/remove
              // that lands between this read and the patch wins.
              if (state->replica_views.size() >= 2) {
                std::set<int64_t> unioned;
                for (const auto& view : state->replica_views) {
                  unioned.insert(view.subscribers.begin(), view.subscribers.end());
                }
                bool divergent = false;
                for (const auto& view : state->replica_views) {
                  if (view.subscribers.size() != unioned.size()) {
                    m_.kv_patches_sent->Increment();
                    auto patch = std::make_shared<KvOpRequest>();
                    patch->op = KvOpRequest::Op::kPatch;
                    patch->topic = event->topic;
                    patch->base_version = view.version;
                    patch->replacement.assign(unioned.begin(), unioned.end());
                    cluster_->ChannelToKv(region_, view.node)
                        ->Call("kv.op", patch, [](RpcStatus, MessagePtr) {});
                    divergent = true;
                  }
                }
                if (divergent) {
                  m_.kv_inconsistencies->Increment();
                }
              }
            }
          },
          cluster_->config().kv_timeout);
    });
  }
}

void PylonServer::HandleSubscribe(MessagePtr request, RpcServer::Respond respond) {
  auto sub = std::static_pointer_cast<PylonSubscribeRequest>(request);
  (sub->subscribe ? m_.subscribes : m_.unsubscribes)->Increment();

  // Span covering the quorum replication of this subscription; ends when
  // the quorum is reached (the latency formerly recorded as
  // pylon.subscribe_replication_us) or errors when it cannot be.
  TraceCollector* tracer = cluster_->trace();
  TraceContext sub_span =
      request->trace.decided()
          ? tracer->StartSpan(request->trace, "pylon.subscribe", "pylon", region_, ctx_.Now())
          : tracer->StartTrace("pylon.subscribe", "pylon", region_, ctx_.Now());
  tracer->Annotate(sub_span, "topic", Value(sub->topic));
  if (!sub->subscribe) tracer->Annotate(sub_span, "unsubscribe", Value(true));

  std::vector<KvNode*> replicas = cluster_->ReplicasFor(sub->topic, region_);
  const PylonConfig& config = cluster_->config();
  int required = std::min<int>(config.write_quorum, config.replication_factor);
  if (static_cast<int>(replicas.size()) < required) {
    // Too few reachable replicas to form a write quorum (e.g. a correlated
    // KV outage). Fail closed immediately — without this the replica loop
    // below issues fewer Calls than the quorum needs (zero, when the pool
    // is empty) and the subscribe RPC would hang forever.
    m_.quorum_failures->Increment();
    tracer->MarkError(sub_span, "too few reachable replicas", ctx_.Now());
    auto ack = std::make_shared<PylonAck>();
    ack->ok = false;
    ack->error = "too few reachable replicas";
    respond(ack);
    return;
  }
  int quorum = std::min<int>(config.write_quorum, static_cast<int>(replicas.size()));

  struct QuorumState {
    int acks = 0;
    int responses = 0;
    int total = 0;
    bool decided = false;
  };
  auto state = std::make_shared<QuorumState>();
  state->total = static_cast<int>(replicas.size());
  auto shared_respond = std::make_shared<RpcServer::Respond>(std::move(respond));

  auto op = std::make_shared<KvOpRequest>();
  op->op = sub->subscribe ? KvOpRequest::Op::kAdd : KvOpRequest::Op::kRemove;
  op->topic = sub->topic;
  op->subscriber = sub->host_id;

  for (KvNode* node : replicas) {
    RpcChannel* channel = cluster_->ChannelToKv(region_, node);
    channel->Call(
        "kv.op", op,
        [this, state, quorum, shared_respond, tracer, sub_span](
            RpcStatus status, MessagePtr) {
          state->responses += 1;
          if (status == RpcStatus::kOk) {
            state->acks += 1;
          }
          if (!state->decided && state->acks >= quorum) {
            // CP write reached its quorum: the subscription is durable.
            state->decided = true;
            tracer->EndSpan(sub_span, ctx_.Now());
            (*shared_respond)(std::make_shared<PylonAck>());
          } else if (!state->decided && state->responses == state->total &&
                     state->acks < quorum) {
            // Quorum unreachable: the CP side fails closed, and the caller
            // (a BRASS) is reliably informed (§4 axiom 1).
            state->decided = true;
            m_.quorum_failures->Increment();
            tracer->MarkError(sub_span, "subscription quorum unreachable", ctx_.Now());
            auto ack = std::make_shared<PylonAck>();
            ack->ok = false;
            ack->error = "subscription quorum unreachable";
            (*shared_respond)(ack);
          }
        },
        config.kv_timeout);
  }
}

}  // namespace bladerunner
