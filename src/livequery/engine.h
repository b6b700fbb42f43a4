// Incremental view maintenance over the TAO change stream.
//
// The engine subscribes to TaoStore's change stream in one region and keeps
// a materialized view per registered live query. Each delta is folded into
// the dependent views — O(delta) work for the supported shapes, instead of
// re-executing the query — and the publisher diffs old/new view state and
// publishes only the net changes to Pylon (through WebAppServer::PublishNow,
// so the events flow through the ordinary fetch/conflation machinery).
//
// Convergence: both the fold path and the re-execute ablation path build
// rows through the same BuildRow code against the same region-local store
// state, so after all in-flight deltas have delivered, the two modes hold
// bit-identical view contents. AuditView() re-derives a view from the store
// and compares; benches and tests call it as ground truth.

#ifndef BLADERUNNER_SRC_LIVEQUERY_ENGINE_H_
#define BLADERUNNER_SRC_LIVEQUERY_ENGINE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/livequery/plan.h"
#include "src/pylon/topic.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"
#include "src/tao/store.h"
#include "src/trace/collector.h"
#include "src/was/server.h"

namespace bladerunner {

struct LiveQueryConfig {
  // Master switch: a cluster with live queries disabled constructs no
  // engine, registers no change observer, and behaves bit-identically to a
  // cluster without the subsystem.
  bool enabled = false;
  // Region whose change stream feeds the engine (views are maintained
  // against this region's visibility).
  RegionId home_region = 0;
  // Ablation: recompute dependent views from the store on every delta
  // instead of folding. Same published ops, vastly more read work.
  bool reexecute_always = false;
  // Window size registered for the declarative comment-feed app.
  size_t feed_limit = 25;
};

struct LiveQueryRegistration {
  std::string query;  // GraphQL query text (analyzed by AnalyzeLiveQuery)
  Topic topic;        // Pylon topic net changes are published to
  UserId viewer = 0;  // viewer identity used by the re-execute fallback
};

class LiveQueryEngine {
 public:
  LiveQueryEngine(Simulator* sim, TaoStore* tao, WebAppServer* was, LiveQueryConfig config,
                  MetricsRegistry* metrics, TraceCollector* trace);

  // Registers a live query (idempotent per topic: re-registering the same
  // query/viewer is a no-op) and materializes its initial snapshot from the
  // store. Returns false with `*error` set when the query does not plan
  // (unknown root field, parse error) or when the topic is already
  // registered with a different query or viewer.
  bool Register(const LiveQueryRegistration& reg, std::string* error = nullptr);
  bool IsRegistered(const Topic& topic) const { return views_.count(topic) != 0; }
  std::vector<Topic> Topics() const;
  const LiveQueryPlan* PlanFor(const Topic& topic) const;

  // Recomputes the view's plan shape from the store and compares it to the
  // maintained state; false (with a diagnostic) on divergence.
  bool AuditView(const Topic& topic, std::string* diagnostic = nullptr);
  bool AuditAll(std::string* diagnostic = nullptr);

  // Canonical JSON of a view's materialized state; used by the ablation
  // bench to byte-compare incremental vs full-re-execute runs.
  std::string ViewStateJson(const Topic& topic) const;

  // Test seam: feeds one delta directly (bypassing the change stream) so
  // tests can exercise out-of-order and duplicate arrivals deterministically.
  void InjectDelta(const TaoDelta& delta) { OnDelta(delta); }

  // Test seam: observes every published net-change op's metadata.
  using PublishHook = std::function<void(const Topic& topic, const Value& metadata)>;
  void set_publish_hook(PublishHook hook) { publish_hook_ = std::move(hook); }

  // Test seam: number of distinct tombstones a view holds whose add has not
  // been delivered yet. Bounded by in-flight deletes — every entry is
  // consumed when its add delta arrives.
  size_t PendingRemoveCount(const Topic& topic) const;

  const LiveQueryConfig& config() const { return config_; }

 private:
  // One materialized row of a kAssocRange view.
  struct Row {
    ObjectId id = kInvalidObjectId;  // id2 of the assoc (the content object)
    SimTime time = 0;                // assoc index time
    uint64_t version = 0;            // version of the object the value holds
    Value value;
  };

  struct View {
    LiveQueryRegistration reg;
    LiveQueryPlan plan;
    std::vector<Row> rows;  // kAssocRange: (time desc, id desc), <= limit
    // Tombstones that replicated ahead of their add, keyed by the entry's
    // exact (id2, index time). Only the matching add annihilates — a later
    // re-add of the same id2 is a fresh entry with a new time and folds
    // normally — and only deletes whose add is genuinely undelivered
    // (per TaoStore::AssocAddVisible) are parked here, so every entry is
    // consumed when its in-flight add lands.
    std::map<std::pair<ObjectId, SimTime>, int> pending_removes;
    int64_t count = 0;  // kAssocCount
    // kAssocCount: the multiset of entries the count has counted — the
    // registration snapshot plus folded adds, keyed by exact (id2, index
    // time) — i.e. the IVM support set. A delete decrements iff it matches
    // a counted entry; anything else is a tombstone ahead of its add.
    // Memory is proportional to the visible list (bounded by the store).
    std::map<std::pair<ObjectId, SimTime>, int> live;
    Value fallback;  // kReExecute: last materialized result
    // kReExecute: ids appearing in `fallback` (sorted), indexed in
    // by_object_ so object edits re-execute the view.
    std::vector<ObjectId> fallback_ids;
    uint64_t view_seq = 0;  // bumped per published net change
  };

  // One net change produced by diffing old/new view state.
  struct Op {
    std::string op;  // "insert" | "update" | "remove" | "count" | "invalidate"
    ObjectId id = kInvalidObjectId;
    uint64_t version = 0;
    int index = -1;
    SimTime time = 0;
    int64_t count = 0;
  };

  // Measures TAO read work done inside a scope through the store's global
  // counters (valid because the simulation is single-threaded and all
  // engine reads are synchronous).
  class CostScope {
   public:
    explicit CostScope(LiveQueryEngine* engine);
    // Adds the reads/shards consumed since construction to the counters.
    void CommitTo(Counter* reads, Counter* shards);

   private:
    LiveQueryEngine* engine_;
    int64_t reads_before_;
    int64_t shards_before_;
  };

  void OnDelta(const TaoDelta& delta);
  void Apply(View& view, const TaoDelta& delta, const TraceContext& root);

  // Shape maintenance: each returns the ops to publish.
  std::vector<Op> ApplyRange(View& view, const TaoDelta& delta);
  std::vector<Op> ApplyCount(View& view, const TaoDelta& delta);
  std::vector<Op> ApplyFallback(View& view);

  // Builds one row from region-local store state (partial when the content
  // object has not replicated yet — the object's own delta completes it).
  Row BuildRow(const LiveQueryPlan& plan, ObjectId id, SimTime time);
  // Recomputes the full window from the store, in canonical order.
  std::vector<Row> RecomputeRows(const View& view);
  std::vector<Op> DiffRows(const std::vector<Row>& before, const std::vector<Row>& after);
  void CommitRows(View& view, std::vector<Row> rows);

  void IndexObjectTopic(ObjectId id, const Topic& topic);
  void UnindexObjectTopic(ObjectId id, const Topic& topic);
  // Re-points by_object_ at the ids appearing in the view's fallback result
  // so kObjectPut deltas re-execute fallback views too.
  void UpdateFallbackIndex(View& view);

  void PublishOps(View& view, const std::vector<Op>& ops, const TaoDelta& delta,
                  const TraceContext& root);

  int64_t TaoReads() const;
  int64_t TaoShards() const;

  SimContext ctx_;
  TaoStore* tao_;
  WebAppServer* was_;
  LiveQueryConfig config_;
  MetricsRegistry* metrics_;
  TraceCollector* trace_;
  PublishHook publish_hook_;

  std::map<Topic, View> views_;  // ordered: deterministic iteration
  std::unordered_map<AssocListKey, std::vector<Topic>, AssocListKeyHash> by_list_;
  // Object id -> dependent views: range-view row ids plus fallback-result
  // ids, so kObjectPut deltas reach both shapes.
  std::unordered_map<ObjectId, std::vector<Topic>> by_object_;
  std::unordered_map<int, uint64_t> seq_high_water_;  // per shard, for out_of_order

  struct Metrics {
    Counter* deltas;
    Counter* applied;
    Counter* publishes;
    Counter* suppressed;
    Counter* fallback_reexecs;
    Counter* reexecs;
    Counter* refills;
    Counter* snapshots;
    Counter* out_of_order;
    Counter* maintenance_reads;
    Counter* maintenance_shards;
    Counter* audit_reads;
    Counter* audit_failures;
  };
  Metrics m_;

  // TAO read counters sampled by CostScope.
  Counter* tao_point_reads_;
  Counter* tao_range_reads_;
  Counter* tao_intersect_reads_;
  Counter* tao_shards_touched_;
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_LIVEQUERY_ENGINE_H_
