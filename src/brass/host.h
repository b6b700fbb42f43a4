// A BRASS host: the multi-tenant machine that runs BRASS application
// instances (§3.2).
//
// The host owns (i) the BURST server endpoint its streams terminate at,
// (ii) the Pylon *subscription manager* that deduplicates topic
// subscriptions across all instances on the host (§3.3 footnote 10), and
// (iii) the per-application instances, spawned serverlessly when the first
// stream for an application arrives.

#ifndef BLADERUNNER_SRC_BRASS_HOST_H_
#define BLADERUNNER_SRC_BRASS_HOST_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/brass/application.h"
#include "src/brass/config.h"
#include "src/brass/delivery_queue.h"
#include "src/brass/fetch_pipeline.h"
#include "src/brass/runtime.h"
#include "src/burst/config.h"
#include "src/burst/durable_log.h"
#include "src/burst/server.h"
#include "src/net/rpc.h"
#include "src/pylon/cluster.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"
#include "src/trace/collector.h"
#include "src/was/server.h"

namespace bladerunner {

// Per-stream lifecycle record, used by the Fig. 7 analysis ("number of
// update events targeting each request-stream's subscription during the
// stream's entire lifetime").
struct StreamRecord {
  StreamKey key;
  std::string app;
  SimTime started_at = 0;
  SimTime closed_at = 0;  // 0: still open
  uint64_t events_targeted = 0;
};

class BrassHost : public BurstServerHandler {
 public:
  // With a null `pylon` the host makes no Pylon subscriptions; a test that
  // plays Pylon itself delivers events to event_rpc().
  BrassHost(Simulator* sim, int64_t host_id, RegionId region, WebAppServer* was,
            PylonCluster* pylon, const BrassAppRegistry* registry, BrassConfig config,
            BurstConfig burst_config, MetricsRegistry* metrics, TraceCollector* trace);
  ~BrassHost() override;

  int64_t host_id() const { return host_id_; }
  RegionId region() const { return region_; }
  bool alive() const { return alive_; }
  // True from StartDrain()/Drain() until Revive(): the router must not
  // place new streams here even while existing streams are still served.
  bool draining() const { return draining_; }
  Simulator* sim() { return ctx_.sim(); }
  SimContext ctx() const { return ctx_; }
  MetricsRegistry* metrics() { return metrics_; }
  TraceCollector* trace() { return trace_; }

  BurstServer* burst() { return burst_.get(); }
  RpcServer* event_rpc() { return &event_rpc_; }

  size_t StreamCount() const { return streams_.size(); }
  size_t AppInstanceCount() const { return apps_.size(); }
  size_t PylonSubscriptionCount() const { return topics_.size(); }

  // Topics this host holds acked Pylon subscriptions for. The failure
  // campaign audit checks each against the current KV replicas: an acked
  // topic on zero replicas is a permanently lost subscription.
  std::vector<Topic> PylonSubscribedTopics() const {
    std::vector<Topic> out;
    for (const auto& [topic, entry] : topics_) {
      if (entry.subscribed) {
        out.push_back(topic);
      }
    }
    return out;
  }

  // ---- Fig. 7 stream records ----

  // Records of streams that have closed (with their lifetime event counts).
  const std::vector<StreamRecord>& closed_stream_records() const {
    return closed_stream_records_;
  }
  void ClearClosedStreamRecords() { closed_stream_records_.clear(); }

  // Snapshot of still-open streams as records (closed_at == 0).
  std::vector<StreamRecord> OpenStreamRecords() const;

  // Graceful drain for upgrades/rebalancing: streams move to other hosts
  // (the proxies repair them); Pylon subscriptions are withdrawn.
  void Drain();

  // Two-phase drain: immediately stops accepting new streams (the router
  // and sticky re-routing skip draining hosts) while existing streams keep
  // being served for `grace`, then completes the Drain().
  void StartDrain(SimTime grace);

  // Crash: all state (streams, app instances, buffers) is lost; Pylon
  // detects the failure and withdraws the host's subscriptions (§4).
  void FailHost();

  // Brings a drained/crashed host back into service with a fresh BURST
  // endpoint and no state (a replacement host in the paper's terms). A
  // crash's Pylon withdrawal still pending runs first, so it cannot take
  // back what the new incarnation subscribes.
  void Revive();

  // ---- services used by BrassRuntime ----
  // The open stream with `key` if it belongs to `app`, else nullptr.
  BrassStream* FindStream(const std::string& app, const StreamKey& key);
  // Payload fetches route through the host's shared fetch pipeline
  // (coalescing, versioned cache, batched privacy checks — see
  // docs/BRASS_FETCH.md); `options.parent` (when valid) nests the fetch's
  // spans under the caller's span.
  void FetchPayload(const std::string& app, const Value& metadata, const FetchOptions& options,
                    std::function<void(bool, Value)> callback);
  void WasQuery(const std::string& query, const FetchOptions& options,
                std::function<void(bool, Value)> callback);
  // Counts `n` decisions with the same outcome (none when n == 0).
  void CountDecisions(const std::string& app, bool delivered, int64_t n);
  // Pushes (or, when pacing is on, queues/conflates/sheds) one payload on
  // the stream; see docs/OVERLOAD.md for the queueing policy.
  void DeliverData(const std::string& app, BrassStream& stream, Value payload,
                   const DeliverOptions& options);
  // Pushes one event *envelope* (metadata only) to pop-placed `streams`:
  // one EnvelopeFrame per downstream proxy connection, listing that
  // connection's streams, under one "brass.process" span per frame. The POP
  // filters, conflates and paces each stream's copy and resolves the
  // payload at the edge (docs/BURST.md "Placement"). Bypasses host-side
  // pacing — the POP runs the same pacing knobs against its own clock.
  void PushEnvelope(const std::string& app, const std::vector<BrassStream*>& streams,
                    Value envelope, const DeliverOptions& options);

  // Appends one event payload to `channel`'s durable log (idempotent on
  // event_id: every subscribed host appends the same Pylon event; the first
  // append assigns the sequence). Returns the entry's dense per-topic
  // sequence, which the app passes as DeliverOptions::seq.
  uint64_t AppendDurable(const Topic& channel, uint64_t event_id, Value payload,
                         SimTime created_at);

  // Installs the cluster-shared durable log directory (the durable tier is
  // a service that survives any single host's crash). Without one the host
  // lazily creates a private directory — enough for single-host tests.
  void SetDurableLogDirectory(std::shared_ptr<DurableLogDirectory> dir) {
    durable_logs_ = std::move(dir);
  }
  DurableLogDirectory* durable_logs();

  // The registered QoS descriptor for `app` (nullptr if unknown).
  const BrassAppDescriptor* DescriptorFor(const std::string& app) const;

  FetchPipeline* fetch_pipeline() { return fetch_pipeline_.get(); }

  // Viewers of the application's streams currently on this host, sorted and
  // deduplicated, used by the fetch pipeline to batch privacy checks. Kept
  // up to date as streams start and close; valid until the next change.
  const std::vector<UserId>& ViewersForApp(const std::string& app) const;

  // Dispatch plans built so far (docs/PERF.md §11). A topic's event builds
  // one only if the topic's streams changed, or a stream left the host,
  // since the topic's plan was built.
  uint64_t dispatch_plan_builds() const { return dispatch_plan_builds_; }

  // ---- BurstServerHandler ----
  void OnStreamStarted(ServerStream& stream) override;
  void OnStreamResumed(ServerStream& stream) override;
  void OnStreamDetached(ServerStream& stream, const std::string& reason) override;
  void OnStreamClosed(const StreamKey& key, TerminateReason reason) override;
  void OnAck(ServerStream& stream, uint64_t seq) override;
  void OnPopFetch(ServerStream& stream, const PopFetchFrame& fetch) override;

 private:
  struct AppInstance {
    std::unique_ptr<BrassRuntime> runtime;
    std::unique_ptr<BrassApplication> app;
  };

  // The streams an event on one topic goes to: one group per application,
  // in app-name order, each group's keys in StreamKey order. `live[i]` is
  // the stream `keys[i]` names while stream_epoch_ equals `epoch`. Shared,
  // immutable, with the dispatch events of every event that used it.
  struct DispatchGroup {
    std::string app;
    std::vector<StreamKey> keys;
    std::vector<BrassStream*> live;
  };
  struct DispatchPlan {
    uint64_t epoch = 0;
    std::vector<DispatchGroup> groups;
  };

  struct TopicEntry {
    std::set<StreamKey> streams;
    bool subscribed = false;   // Pylon ack received
    bool in_flight = false;    // subscribe RPC outstanding
    // Events this host handled on the topic (Fig. 7): each one targeted
    // every stream on the topic, so a stream's count is read off this
    // counter against its Membership baseline instead of bumped per event.
    uint64_t events = 0;
    // Dropped when a key joins `streams`; stale once stream_epoch_ moves (a
    // key leaves `streams` only as its stream leaves the host). Rebuilt by
    // the next event.
    std::shared_ptr<const DispatchPlan> plan;
  };

  // One topic whose `streams` lists a key, with the topic's event count
  // when the key's current stream began counting there.
  struct Membership {
    TopicEntry* topic;
    uint64_t baseline;
  };

  struct HostStream {
    BrassStream state;
    std::string app;
    // Events from topics this stream has left; see EventsTargeted.
    uint64_t events_targeted = 0;
    // Span covering the stream's lifetime on this host; closed with an
    // error annotation when the stream fails or the host dies.
    TraceContext stream_span;

    // ---- overload state ----
    // Paces pushes at min_push_gap; set once the stream is installed.
    PushPacer pacer;
    // Shed-rate window feeding the degrade-to-poll trigger.
    SimTime window_start = 0;
    uint64_t window_attempts = 0;
    uint64_t window_sheds = 0;
    // Degraded to polling: deliveries are dropped until recovery.
    bool degraded = false;
    uint64_t degraded_attempts = 0;  // offered load observed while degraded
    TraceContext degrade_span;

    // ---- durable-tier state (descriptor.durable apps only) ----
    bool durable = false;
    Topic durable_channel;           // the log this stream delivers from
    uint64_t durable_delivered = 0;  // highest log seq pushed this attach
    uint64_t durable_acked = 0;      // highest device-acked log seq
    bool replaying = false;          // replay running; live pushes suppressed
    uint64_t acks_since_rewrite = 0;
    TraceContext replay_span;
  };

  // Metric handles resolved once at construction; per-app handles resolved
  // once per app name via AppMetricsFor (docs/PERF.md).
  struct Metrics {
    Counter* vm_cap_rejections;
    Counter* app_spawns;
    Counter* streams_started;
    Counter* topic_attaches;
    Counter* pylon_subscribes;
    Counter* pylon_subscribe_failures;
    Counter* pylon_unsubscribes;
    Counter* events_received;
    Counter* events_unsubscribed_topic;
    Counter* decisions;
    Counter* decisions_positive;
    Counter* filtered;
    Counter* degraded_drops;
    Counter* conflated;
    Counter* shed;
    Histogram* delivery_queue_depth;
    Counter* deliveries;
    Counter* delivered_bytes;
    Counter* degrade_signals;
    Counter* recover_signals;
    Counter* host_drain_starts;
    Counter* host_drains;
    Counter* host_failures;
    Counter* host_revives;
    Counter* durable_appends;
    Counter* durable_append_duplicates;
    Counter* durable_replayed;
    Counter* durable_duplicates_suppressed;
    Counter* durable_live_suppressed;
    Counter* durable_truncated_resumes;
    Counter* durable_token_rewrites;
    Counter* envelopes;
    Counter* envelope_frames;
    Counter* server_pushes_dropped;
    Counter* pop_fetch_serves;
  };
  struct AppMetrics {
    Counter* decisions;
    Counter* conflated;
    Counter* shed;
    Counter* deliveries;
    Counter* degrade_signals;
    Histogram* push_delay_us;
  };
  // The per-app handle bundle, resolved (and the names built) only the
  // first time an app is seen on this host.
  const AppMetrics& AppMetricsFor(const std::string& app);

  // Spawns the instance if needed ("serverless" spawn); nullptr if the app
  // is unknown or the host is at its VM cap.
  AppInstance* GetOrSpawnApp(const std::string& name);

  void HandlePylonEvent(MessagePtr request, RpcServer::Respond respond);
  // The topic's plan, rebuilt first if a membership change dropped it or a
  // stream left the host since it was built.
  std::shared_ptr<const DispatchPlan> PlanFor(TopicEntry& entry);
  // True when a later resolve of `key` started after resolve `serial`: only
  // the key's latest resolve may install or terminate its stream. A
  // superseded resolve's "brass.subscribe" span ends, annotated so.
  bool Superseded(const StreamKey& key, uint64_t serial, const TraceContext& sub_span);
  void CompleteSubscription(const StreamKey& key, const std::string& app,
                            MessagePtr resolve_response);
  void SubscribeTopic(const Topic& topic, const StreamKey& key,
                      TraceContext parent = TraceContext());
  // Sends one pylon.subscribe request (subscribe or withdraw) for `topic`
  // over the host's channel to the topic's Pylon server.
  void CallPylonSubscribe(const Topic& topic, bool subscribe, TraceContext parent,
                          RpcResponseCallback callback, SimTime timeout = 0);
  // Closes every live stream's span with an error annotation; used by
  // Drain/FailHost before stream state is dropped.
  void CloseAllStreamSpans(const std::string& reason);
  void UnsubscribeStreamTopics(const StreamKey& key);
  void TerminateStreamsOnTopic(const Topic& topic, const std::string& detail);
  void WithdrawAllPylonSubscriptions();

  // ---- stream table (streams_, with its derived indexes) ----
  // The stream's Fig. 7 count: settled events plus those of every topic
  // that still lists its key.
  uint64_t EventsTargeted(const StreamKey& key, const HostStream& hs) const;
  // Inserts the key's stream. The key must have no stream and be listed by
  // no topic (asserted).
  HostStream& InstallStream(const StreamKey& key, HostStream host_stream);
  using StreamTable = std::unordered_map<StreamKey, HostStream, StreamKeyHash>;
  // Both destroy the app state of each entry they drop with it.
  void EraseStream(StreamTable::iterator hs);
  void ClearStreams();
  void AddViewer(const std::string& app, UserId viewer);
  void RemoveViewer(const std::string& app, UserId viewer);

  // ---- overload path (docs/OVERLOAD.md) ----
  // One push that leaves now: accounting, deliver span, stamps, and the
  // actual BURST PushData.
  void PushNow(const std::string& app, BrassStream& stream, Value payload,
               const DeliverOptions& options);
  // Rolls the shed-rate window of `state` forward past expired windows.
  void RollShedWindow(HostStream& state);
  // Flips the stream to degrade-to-poll: drops its queue, signals the
  // device (flow_status degrade_to_poll), starts the recovery checks.
  void DegradeStream(const StreamKey& key, HostStream& state);
  void ScheduleRecoveryCheck(const StreamKey& key);

  // ---- durable tier (docs/BURST.md "Resumption") ----
  // Deliver path for durable streams: bypasses pacing/conflation (a
  // conflated-away sequence could never be replayed consistently), dedups
  // on sequence, and suppresses live pushes while a replay is running.
  void DeliverDurable(HostStream& state, Value payload, const DeliverOptions& options);
  // Starts replaying the log suffix after the stream's delivered watermark
  // (no-op if already replaying or caught up).
  void StartDurableReplay(const StreamKey& key);
  void ReplayDurableBatch(const StreamKey& key);
  void EndDurableReplay(HostStream& state, const std::string& note);

  SimContext ctx_;
  int64_t host_id_;
  RegionId region_;
  WebAppServer* was_;
  PylonCluster* pylon_;
  const BrassAppRegistry* registry_;
  BrassConfig config_;
  BurstConfig burst_config_;
  MetricsRegistry* metrics_;
  TraceCollector* trace_;
  Metrics m_;
  std::unordered_map<std::string, AppMetrics> app_metrics_;
  bool alive_ = true;
  bool draining_ = false;
  // The Pylon withdrawal FailHost schedules; Revive runs it early.
  TimerId pending_withdrawal_ = kInvalidTimerId;

  std::unique_ptr<BurstServer> burst_;
  RpcServer event_rpc_;
  std::unique_ptr<RpcChannel> was_channel_;
  std::unique_ptr<FetchPipeline> fetch_pipeline_;
  std::map<std::string, AppInstance> apps_;
  StreamTable streams_;
  // Bumped by every erase from (and clear of) streams_. Its nodes never
  // move, so pointers into it taken at one epoch are valid, and name the
  // same streams, for as long as the epoch is unchanged.
  uint64_t stream_epoch_ = 0;
  std::map<Topic, TopicEntry> topics_;
  // For every key some topic's `streams` lists, those topics: the key's
  // stream's own topics, or, between FailHost and its withdrawal, those of
  // a stream the crash dropped. Entries point into topics_, whose nodes
  // never move and are erased only once they list no key.
  std::unordered_map<StreamKey, std::vector<Membership>, StreamKeyHash> memberships_;
  // The serial of the latest subscription resolve started for each key
  // whose stream is open; see Superseded.
  std::unordered_map<StreamKey, uint64_t, StreamKeyHash> resolve_serials_;
  uint64_t last_resolve_serial_ = 0;
  // ViewersForApp: per app, its streams' distinct nonzero viewers, sorted,
  // with the number of streams of each.
  struct AppViewers {
    std::vector<UserId> viewers;
    std::vector<uint32_t> streams;
  };
  std::unordered_map<std::string, AppViewers> viewers_by_app_;
  uint64_t dispatch_plan_builds_ = 0;
  // One channel per Pylon server, by server id, for pylon.subscribe calls.
  std::map<uint64_t, std::unique_ptr<RpcChannel>> pylon_channels_;
  std::vector<StreamRecord> closed_stream_records_;
  std::shared_ptr<DurableLogDirectory> durable_logs_;
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_BRASS_HOST_H_
