// The Web Application Server (WAS).
//
// The WAS is where *all* application business logic on the write path and
// the read path lives (§3.3): it executes GraphQL queries against TAO
// (device polls, BRASS point fetches), executes mutations (TAO writes) and
// publishes the resulting update events to Pylon, resolves GraphQL
// subscriptions into concrete Pylon topics, and performs the privacy checks
// that in Bladerunner's environment may only run inside the WAS (§1).

#ifndef BLADERUNNER_SRC_WAS_SERVER_H_
#define BLADERUNNER_SRC_WAS_SERVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/graphql/executor.h"
#include "src/graphql/parser.h"
#include "src/net/rpc.h"
#include "src/net/topology.h"
#include "src/pylon/cluster.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"
#include "src/tao/store.h"
#include "src/trace/collector.h"
#include "src/was/config.h"
#include "src/was/messages.h"

namespace bladerunner {

class WebAppServer;

// One update event to be published to Pylon after the mutation completes;
// mutation resolvers append these to the request context.
struct PublishSpec {
  Topic topic;
  Value metadata;
  bool requires_ranking = false;  // comment-like: pay the ML ranking latency
  uint64_t seq = 0;               // per-topic app sequence (Messenger)
  // Runs when the business-logic (and ranking) pipeline completes, just
  // before the Pylon publish. Used for work gated on the pipeline, e.g.
  // LVC comments enter the *serving index* only after quality ranking, so
  // polls cannot see an unranked comment.
  std::function<void()> on_published;
};

// Request-scoped context available to resolvers via ExecContext::backend.
struct WasContext {
  WebAppServer* was = nullptr;
  TaoStore* tao = nullptr;
  RegionId region = 0;
  SimTime created_at = 0;
  std::vector<PublishSpec> publishes;
  // Set by fetch handlers that read a versioned TAO object: the version of
  // the object the payload was built from. Reported to the BRASS so its
  // payload cache can detect replication-lagged (stale) reads.
  uint64_t fetched_object_version = 0;

  static WasContext& Of(ExecContext& ctx) { return *static_cast<WasContext*>(ctx.backend); }
};

// Resolves one subscription root field into an app name + concrete topics
// (+ optional context the BRASS application uses, e.g. the friend list).
struct SubscriptionResolution {
  bool ok = true;
  std::string app;
  std::vector<Topic> topics;
  Value context;
  std::string error;
};
using SubscriptionResolver =
    std::function<SubscriptionResolution(const Field& field, UserId viewer, ExecContext& ctx)>;

// Builds the privacy-checked payload for an update event; sets *allowed.
using FetchHandler =
    std::function<Value(const Value& metadata, UserId viewer, ExecContext& ctx, bool* allowed)>;

class WebAppServer {
 public:
  // With a null `pylon` the server publishes nothing (a WAS timed alone).
  WebAppServer(Simulator* sim, RegionId region, TaoStore* tao, PylonCluster* pylon,
               WasConfig config, MetricsRegistry* metrics, TraceCollector* trace);

  RegionId region() const { return region_; }
  RpcServer* rpc() { return &rpc_; }
  Schema& schema() { return schema_; }
  TaoStore* tao() { return tao_; }
  Simulator* sim() { return ctx_.sim(); }
  const WasConfig& config() const { return config_; }
  MetricsRegistry* metrics() { return metrics_; }
  TraceCollector* trace() { return trace_; }

  // Metric handles resolved once at construction (docs/PERF.md); public so
  // resolvers registered against this server share the cached pointers.
  struct Metrics {
    Counter* privacy_checks;
    Counter* cpu_us;
    Counter* queries;
    Counter* mutations;
    Counter* subscription_resolves;
    Counter* fetches;
    Counter* fetch_viewers;
    Counter* fetch_batched;
    Histogram* fetch_payload_bytes;
    Counter* publishes;
    Counter* lvc_hot_comments;
    Counter* lvc_hot_discarded;
  };
  const Metrics& metric_handles() const { return m_; }

  void RegisterSubscriptionResolver(const std::string& field_name, SubscriptionResolver resolver);
  void RegisterFetchHandler(const std::string& app, FetchHandler handler);

  // Viewer may see content authored by `author` (block checks both ways).
  // TAO reads are charged to `cost`.
  bool PrivacyCheck(UserId viewer, UserId author, QueryCost* cost);

  // Executes a query synchronously against region-local TAO state with no
  // modeled latency; used by setup code and by in-process callers that
  // model latency themselves.
  ExecResult ExecuteNow(const std::string& text, UserId viewer);

  // Immediately publishes a pre-built spec (used by server-side agents).
  // `trace` names the span the published event should continue; an invalid
  // context roots a fresh "update" trace here.
  void PublishNow(const PublishSpec& spec, SimTime created_at, TraceContext trace = TraceContext());

 private:
  void HandleQuery(MessagePtr request, RpcServer::Respond respond);
  void HandleMutate(MessagePtr request, RpcServer::Respond respond);
  void HandleResolveSubscription(MessagePtr request, RpcServer::Respond respond);
  void HandleFetch(MessagePtr request, RpcServer::Respond respond);

  // Schedules the Pylon publishes produced by a mutation, paying the
  // business-logic (and optionally ranking) latency first.
  void SchedulePublishes(std::vector<PublishSpec> specs, SimTime created_at);
  RpcChannel* ChannelToPylon(PylonServer* server);
  void ChargeCpu(double ms);

  SimContext ctx_;
  RegionId region_;
  TaoStore* tao_;
  PylonCluster* pylon_;
  WasConfig config_;
  MetricsRegistry* metrics_;
  Metrics m_;
  TraceCollector* trace_;
  RpcServer rpc_;
  Schema schema_;
  std::map<std::string, SubscriptionResolver> subscription_resolvers_;
  std::map<std::string, FetchHandler> fetch_handlers_;
  std::map<uint64_t, std::unique_ptr<RpcChannel>> pylon_channels_;  // by server id
  uint64_t next_event_id_;
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_WAS_SERVER_H_
