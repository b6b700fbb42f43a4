// GCC 12 reports spurious -Wmaybe-uninitialized on std::variant-backed
// Value moves during vector growth under -O2 (a known false positive in
// GCC's uninit analysis for variants); suppress it for this file only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include "src/livequery/engine.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace bladerunner {

namespace {

// Canonical view order: newest first, ties broken by id so the order is a
// deterministic total order independent of store append order.
bool RowBefore(SimTime a_time, ObjectId a_id, SimTime b_time, ObjectId b_id) {
  if (a_time != b_time) {
    return a_time > b_time;
  }
  return a_id > b_id;
}

// Every object id surfaced by a query result ("id" fields, recursively);
// edits to these are the object puts that can change a fallback view.
void CollectResultIds(const Value& v, std::vector<ObjectId>* out) {
  if (v.is_map()) {
    const Value& id = v.Get("id");
    if (id.is_int()) {
      out->push_back(static_cast<ObjectId>(id.AsInt()));
    }
    for (const auto& [key, child] : v.AsMap()) {
      CollectResultIds(child, out);
    }
  } else if (v.is_list()) {
    for (const Value& child : v.AsList()) {
      CollectResultIds(child, out);
    }
  }
}

}  // namespace

LiveQueryEngine::CostScope::CostScope(LiveQueryEngine* engine)
    : engine_(engine), reads_before_(engine->TaoReads()), shards_before_(engine->TaoShards()) {}

void LiveQueryEngine::CostScope::CommitTo(Counter* reads, Counter* shards) {
  if (reads != nullptr) {
    reads->Increment(engine_->TaoReads() - reads_before_);
  }
  if (shards != nullptr) {
    shards->Increment(engine_->TaoShards() - shards_before_);
  }
}

LiveQueryEngine::LiveQueryEngine(Simulator* sim, TaoStore* tao, WebAppServer* was,
                                 LiveQueryConfig config, MetricsRegistry* metrics,
                                 TraceCollector* trace)
    : ctx_(sim), tao_(tao), was_(was), config_(config), metrics_(metrics), trace_(trace) {
  assert(ctx_.sim() != nullptr && tao_ != nullptr && was_ != nullptr && metrics_ != nullptr);
  assert(trace_ != nullptr);
  m_.deltas = &metrics_->GetCounter("livequery.deltas");
  m_.applied = &metrics_->GetCounter("livequery.applied");
  m_.publishes = &metrics_->GetCounter("livequery.publishes");
  m_.suppressed = &metrics_->GetCounter("livequery.suppressed");
  m_.fallback_reexecs = &metrics_->GetCounter("livequery.fallback_reexecs");
  m_.reexecs = &metrics_->GetCounter("livequery.reexecs");
  m_.refills = &metrics_->GetCounter("livequery.refills");
  m_.snapshots = &metrics_->GetCounter("livequery.snapshots");
  m_.out_of_order = &metrics_->GetCounter("livequery.out_of_order");
  m_.maintenance_reads = &metrics_->GetCounter("livequery.maintenance_reads");
  m_.maintenance_shards = &metrics_->GetCounter("livequery.maintenance_shards");
  m_.audit_reads = &metrics_->GetCounter("livequery.audit_reads");
  m_.audit_failures = &metrics_->GetCounter("livequery.audit_failures");
  tao_point_reads_ = &metrics_->GetCounter("tao.point_reads");
  tao_range_reads_ = &metrics_->GetCounter("tao.range_reads");
  tao_intersect_reads_ = &metrics_->GetCounter("tao.intersect_reads");
  tao_shards_touched_ = &metrics_->GetCounter("tao.shards_touched");
  if (config_.enabled) {
    tao_->ObserveChanges(config_.home_region, [this](const TaoDelta& delta) { OnDelta(delta); });
  }
}

int64_t LiveQueryEngine::TaoReads() const {
  return tao_point_reads_->value() + tao_range_reads_->value() + tao_intersect_reads_->value();
}

int64_t LiveQueryEngine::TaoShards() const { return tao_shards_touched_->value(); }

bool LiveQueryEngine::Register(const LiveQueryRegistration& reg, std::string* error) {
  auto existing = views_.find(reg.topic);
  if (existing != views_.end()) {
    if (existing->second.reg.query == reg.query && existing->second.reg.viewer == reg.viewer) {
      return true;  // idempotent: re-resolution of the same subscription
    }
    // Two different queries mapping onto one topic would silently serve the
    // second subscriber ops for a view it did not ask for.
    if (error != nullptr) {
      *error = "topic " + reg.topic + " already registered with a different query or viewer";
    }
    return false;
  }
  PlanResult planned = AnalyzeLiveQuery(reg.query);
  if (!planned.ok) {
    if (error != nullptr) {
      *error = planned.error;
    }
    return false;
  }
  View view;
  view.reg = reg;
  view.plan = std::move(planned.plan);

  CostScope scope(this);
  switch (view.plan.shape) {
    case LiveQueryShape::kAssocRange:
      CommitRows(view, RecomputeRows(view));
      break;
    case LiveQueryShape::kAssocCount: {
      // Snapshot the *entries*, not just the count: a later delete of a
      // pre-registration edge must find its (id2, time) key here to know it
      // was counted.
      std::vector<Assoc> snapshot =
          tao_->AssocRange(config_.home_region, view.plan.anchor, view.plan.atype, kBeginningOfTime,
                           kSimTimeNever, std::numeric_limits<size_t>::max(), nullptr);
      for (const Assoc& a : snapshot) {
        view.live[{a.id2, a.time}] += 1;
      }
      view.count = static_cast<int64_t>(snapshot.size());
      break;
    }
    case LiveQueryShape::kReExecute:
      view.fallback = was_->ExecuteNow(view.reg.query, view.reg.viewer).data;
      UpdateFallbackIndex(view);
      break;
  }
  scope.CommitTo(m_.maintenance_reads, m_.maintenance_shards);
  m_.snapshots->Increment();

  for (const AssocListKey& dep : view.plan.deps) {
    std::vector<Topic>& topics = by_list_[dep];
    if (std::find(topics.begin(), topics.end(), reg.topic) == topics.end()) {
      topics.push_back(reg.topic);
    }
  }
  views_.emplace(reg.topic, std::move(view));
  return true;
}

std::vector<Topic> LiveQueryEngine::Topics() const {
  std::vector<Topic> out;
  out.reserve(views_.size());
  for (const auto& [topic, view] : views_) {
    out.push_back(topic);
  }
  return out;
}

const LiveQueryPlan* LiveQueryEngine::PlanFor(const Topic& topic) const {
  auto it = views_.find(topic);
  return it != views_.end() ? &it->second.plan : nullptr;
}

void LiveQueryEngine::OnDelta(const TaoDelta& delta) {
  m_.deltas->Increment();
  uint64_t& high = seq_high_water_[delta.shard];
  if (delta.shard_seq < high) {
    m_.out_of_order->Increment();
  } else {
    high = delta.shard_seq;
  }

  std::vector<Topic> topics;
  if (delta.kind == TaoMutationKind::kObjectPut) {
    auto it = by_object_.find(delta.id);
    if (it != by_object_.end()) {
      topics = it->second;  // copy: Apply can rewire the index
    }
  } else {
    auto it = by_list_.find(AssocListKey{delta.id, delta.atype});
    if (it != by_list_.end()) {
      topics = it->second;
    }
  }
  if (topics.empty()) {
    return;
  }

  TraceContext root =
      trace_->StartTrace("livequery", "livequery", config_.home_region, delta.committed_at);
  if (root.valid()) {
    trace_->Annotate(root, "shard", Value(static_cast<int64_t>(delta.shard)));
    trace_->Annotate(root, "shardSeq", Value(static_cast<int64_t>(delta.shard_seq)));
    // The delta span covers commit -> delivery into the engine (the
    // replication lag the view maintenance is downstream of).
    trace_->RecordSpan(root, "livequery.delta", "livequery", config_.home_region,
                       delta.committed_at, ctx_.Now());
  }
  for (const Topic& topic : topics) {
    auto it = views_.find(topic);
    if (it != views_.end()) {
      Apply(it->second, delta, root);
    }
  }
  trace_->EndSpan(root, ctx_.Now());
}

void LiveQueryEngine::Apply(View& view, const TaoDelta& delta, const TraceContext& root) {
  m_.applied->Increment();
  TraceContext span =
      trace_->StartSpan(root, "livequery.apply", "livequery", config_.home_region, ctx_.Now());
  CostScope scope(this);
  std::vector<Op> ops;
  switch (view.plan.shape) {
    case LiveQueryShape::kAssocRange:
      ops = ApplyRange(view, delta);
      break;
    case LiveQueryShape::kAssocCount:
      ops = ApplyCount(view, delta);
      break;
    case LiveQueryShape::kReExecute:
      ops = ApplyFallback(view);
      break;
  }
  scope.CommitTo(m_.maintenance_reads, m_.maintenance_shards);
  trace_->Annotate(span, "ops", Value(static_cast<int64_t>(ops.size())));
  trace_->EndSpan(span, ctx_.Now());
  if (ops.empty()) {
    m_.suppressed->Increment();
    return;
  }
  PublishOps(view, ops, delta, root);
}

LiveQueryEngine::Row LiveQueryEngine::BuildRow(const LiveQueryPlan& plan, ObjectId id,
                                               SimTime time) {
  Row row;
  row.id = id;
  row.time = time;
  auto object = tao_->GetObject(config_.home_region, id, nullptr);
  if (object.has_value()) {
    row.version = object->version;
    row.value = object->data;
    row.value.Set("__type", plan.row_type);
    row.value.Set("version", static_cast<int64_t>(object->version));
  } else {
    // The content object has not replicated into the home region yet; its
    // own kObjectPut delta completes the row when it lands.
    row.value.Set("partial", true);
  }
  row.value.Set("id", id);
  row.value.Set("indexTime", time);
  return row;
}

std::vector<LiveQueryEngine::Row> LiveQueryEngine::RecomputeRows(const View& view) {
  std::vector<Assoc> assocs =
      tao_->AssocRange(config_.home_region, view.plan.anchor, view.plan.atype, kBeginningOfTime,
                       kSimTimeNever, view.plan.limit, nullptr);
  std::vector<Row> rows;
  rows.reserve(assocs.size());
  for (const Assoc& a : assocs) {
    bool duplicate = false;
    for (const Row& r : rows) {
      if (r.id == a.id2) {
        duplicate = true;  // duplicate edges to one target: keep the newest
        break;
      }
    }
    if (!duplicate) {
      rows.push_back(BuildRow(view.plan, a.id2, a.time));
    }
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return RowBefore(a.time, a.id, b.time, b.id);
  });
  return rows;
}

std::vector<LiveQueryEngine::Op> LiveQueryEngine::DiffRows(const std::vector<Row>& before,
                                                           const std::vector<Row>& after) {
  std::vector<Op> ops;
  for (const Row& b : before) {
    bool present = false;
    for (const Row& a : after) {
      if (a.id == b.id) {
        present = true;
        break;
      }
    }
    if (!present) {
      Op op;
      op.op = "remove";
      op.id = b.id;
      op.version = b.version;
      ops.push_back(std::move(op));
    }
  }
  for (size_t i = 0; i < after.size(); ++i) {
    const Row& a = after[i];
    const Row* b = nullptr;
    for (const Row& candidate : before) {
      if (candidate.id == a.id) {
        b = &candidate;
        break;
      }
    }
    if (b == nullptr || b->value != a.value) {
      Op op;
      op.op = b == nullptr ? "insert" : "update";
      op.id = a.id;
      op.version = a.version;
      op.index = static_cast<int>(i);
      op.time = a.time;
      ops.push_back(std::move(op));
    }
  }
  return ops;
}

void LiveQueryEngine::IndexObjectTopic(ObjectId id, const Topic& topic) {
  std::vector<Topic>& topics = by_object_[id];
  if (std::find(topics.begin(), topics.end(), topic) == topics.end()) {
    topics.push_back(topic);
  }
}

void LiveQueryEngine::UnindexObjectTopic(ObjectId id, const Topic& topic) {
  auto it = by_object_.find(id);
  if (it == by_object_.end()) {
    return;
  }
  auto& topics = it->second;
  topics.erase(std::remove(topics.begin(), topics.end(), topic), topics.end());
  if (topics.empty()) {
    by_object_.erase(it);
  }
}

void LiveQueryEngine::CommitRows(View& view, std::vector<Row> rows) {
  auto has_id = [](const std::vector<Row>& haystack, ObjectId id) {
    for (const Row& r : haystack) {
      if (r.id == id) {
        return true;
      }
    }
    return false;
  };
  for (const Row& old : view.rows) {
    if (!has_id(rows, old.id)) {
      UnindexObjectTopic(old.id, view.reg.topic);
    }
  }
  for (const Row& added : rows) {
    if (!has_id(view.rows, added.id)) {
      IndexObjectTopic(added.id, view.reg.topic);
    }
  }
  view.rows = std::move(rows);
}

std::vector<LiveQueryEngine::Op> LiveQueryEngine::ApplyRange(View& view, const TaoDelta& delta) {
  std::vector<Row> rows;
  if (config_.reexecute_always) {
    m_.reexecs->Increment();
    rows = RecomputeRows(view);
  } else if (delta.kind == TaoMutationKind::kAssocAdd) {
    auto pending = view.pending_removes.find({delta.id2, delta.time});
    if (pending != view.pending_removes.end()) {
      // The tombstone replicated ahead of exactly this entry: the entry was
      // never visible in the home region, so the add and the delete
      // annihilate. A re-add of the same id2 is a fresh entry with a new
      // index time and does not match.
      if (--pending->second == 0) {
        view.pending_removes.erase(pending);
      }
      return {};
    }
    rows = view.rows;
    auto existing = std::find_if(rows.begin(), rows.end(),
                                 [&](const Row& r) { return r.id == delta.id2; });
    if (existing != rows.end()) {
      if (existing->time >= delta.time) {
        return {};  // duplicate (or older duplicate-edge) delivery
      }
      rows.erase(existing);
    }
    Row row = BuildRow(view.plan, delta.id2, delta.time);
    auto pos = std::lower_bound(rows.begin(), rows.end(), row, [](const Row& a, const Row& b) {
      return RowBefore(a.time, a.id, b.time, b.id);
    });
    if (pos == rows.end() && rows.size() >= view.plan.limit) {
      return {};  // older than every row of a full window
    }
    rows.insert(pos, std::move(row));
    if (rows.size() > view.plan.limit) {
      rows.pop_back();
    }
  } else if (delta.kind == TaoMutationKind::kAssocDelete) {
    bool in_window = false;
    for (const Row& r : view.rows) {
      if (r.id == delta.id2) {
        in_window = true;
        break;
      }
    }
    if (!in_window) {
      // Either an entry below the window (no view change) or a tombstone
      // that replicated ahead of its add. The delta carries the tombstoned
      // entry's exact index time, so probing whether that entry's add has
      // replicated here tells the two apart: only a genuinely undelivered
      // add gets a pending remove (consumed when it lands), so below-window
      // deletes never park stale tombstones that would annihilate a later
      // legitimate re-add or accumulate unboundedly.
      if (!tao_->AssocAddVisible(config_.home_region, delta.id, delta.atype, delta.id2, delta.time,
                                 nullptr)) {
        view.pending_removes[{delta.id2, delta.time}] += 1;
      }
      return {};
    }
    // Removing inside the window may pull an older entry back in; refill
    // from the store (the only fold case that pays a range read).
    m_.refills->Increment();
    rows = RecomputeRows(view);
  } else {  // kObjectPut: a row's content object changed (or just landed)
    size_t index = view.rows.size();
    for (size_t i = 0; i < view.rows.size(); ++i) {
      if (view.rows[i].id == delta.id) {
        index = i;
        break;
      }
    }
    if (index == view.rows.size() || view.rows[index].version >= delta.version) {
      return {};  // no row, or an out-of-order older version
    }
    rows = view.rows;
    Row& row = rows[index];
    row.version = delta.version;
    row.value = delta.data;
    row.value.Set("__type", view.plan.row_type);
    row.value.Set("version", static_cast<int64_t>(delta.version));
    row.value.Set("id", row.id);
    row.value.Set("indexTime", row.time);
  }
  std::vector<Op> ops = DiffRows(view.rows, rows);
  CommitRows(view, std::move(rows));
  return ops;
}

std::vector<LiveQueryEngine::Op> LiveQueryEngine::ApplyCount(View& view, const TaoDelta& delta) {
  int64_t count = view.count;
  if (config_.reexecute_always) {
    m_.reexecs->Increment();
    count = static_cast<int64_t>(
        tao_->AssocCount(config_.home_region, view.plan.anchor, view.plan.atype, nullptr));
  } else if (delta.kind == TaoMutationKind::kAssocAdd) {
    auto pending = view.pending_removes.find({delta.id2, delta.time});
    if (pending != view.pending_removes.end()) {
      // Tombstone replicated ahead of exactly this entry: never visible
      // here, so the pair is a net zero.
      if (--pending->second == 0) {
        view.pending_removes.erase(pending);
      }
    } else {
      view.live[{delta.id2, delta.time}] += 1;
      count += 1;
    }
  } else if (delta.kind == TaoMutationKind::kAssocDelete) {
    // The entry was counted iff its exact (id2, time) key is in the support
    // set — whether it predates registration (snapshot-seeded) or its add
    // delta was folded. Only a delete whose add is still in flight parks a
    // pending remove for the add to annihilate against; a later re-add of
    // the same id2 is a fresh entry with a new time and never matches.
    auto live = view.live.find({delta.id2, delta.time});
    if (live != view.live.end()) {
      if (--live->second == 0) {
        view.live.erase(live);
      }
      count -= 1;
    } else {
      view.pending_removes[{delta.id2, delta.time}] += 1;
    }
  }
  if (count == view.count) {
    return {};
  }
  view.count = count;
  Op op;
  op.op = "count";
  op.count = count;
  return {std::move(op)};
}

std::vector<LiveQueryEngine::Op> LiveQueryEngine::ApplyFallback(View& view) {
  m_.fallback_reexecs->Increment();
  Value data = was_->ExecuteNow(view.reg.query, view.reg.viewer).data;
  if (data == view.fallback) {
    return {};
  }
  view.fallback = std::move(data);
  UpdateFallbackIndex(view);
  Op op;
  op.op = "invalidate";
  return {std::move(op)};
}

void LiveQueryEngine::UpdateFallbackIndex(View& view) {
  std::vector<ObjectId> ids;
  CollectResultIds(view.fallback, &ids);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  for (ObjectId old_id : view.fallback_ids) {
    if (!std::binary_search(ids.begin(), ids.end(), old_id)) {
      UnindexObjectTopic(old_id, view.reg.topic);
    }
  }
  for (ObjectId id : ids) {
    if (!std::binary_search(view.fallback_ids.begin(), view.fallback_ids.end(), id)) {
      IndexObjectTopic(id, view.reg.topic);
    }
  }
  view.fallback_ids = std::move(ids);
}

size_t LiveQueryEngine::PendingRemoveCount(const Topic& topic) const {
  auto it = views_.find(topic);
  return it != views_.end() ? it->second.pending_removes.size() : 0;
}

void LiveQueryEngine::PublishOps(View& view, const std::vector<Op>& ops, const TaoDelta& delta,
                                 const TraceContext& root) {
  for (const Op& op : ops) {
    ++view.view_seq;
    PublishSpec spec;
    spec.topic = view.reg.topic;
    spec.metadata.Set("op", op.op);
    if (op.id != kInvalidObjectId) {
      spec.metadata.Set("id", op.id);
    }
    if (op.version != 0) {
      spec.metadata.Set("version", static_cast<int64_t>(op.version));
    }
    if (op.index >= 0) {
      spec.metadata.Set("index", static_cast<int64_t>(op.index));
    }
    if (op.time != 0) {
      spec.metadata.Set("time", op.time);
    }
    if (op.op == "count") {
      spec.metadata.Set("count", op.count);
    }
    spec.metadata.Set("viewSeq", static_cast<int64_t>(view.view_seq));
    spec.metadata.Set("shard", static_cast<int64_t>(delta.shard));
    spec.metadata.Set("shardSeq", static_cast<int64_t>(delta.shard_seq));
    m_.publishes->Increment();
    TraceContext span =
        trace_->StartSpan(root, "livequery.publish", "livequery", config_.home_region, ctx_.Now());
    if (publish_hook_) {
      publish_hook_(spec.topic, spec.metadata);
    }
    // created_at is the mutation's commit time so downstream end-to-end
    // latency measures commit -> device, like any other update event.
    was_->PublishNow(spec, delta.committed_at, span);
    trace_->EndSpan(span, ctx_.Now());
  }
}

bool LiveQueryEngine::AuditView(const Topic& topic, std::string* diagnostic) {
  auto it = views_.find(topic);
  if (it == views_.end()) {
    if (diagnostic != nullptr) {
      *diagnostic = "unknown view: " + topic;
    }
    return false;
  }
  View& view = it->second;
  CostScope scope(this);
  bool ok = true;
  std::string detail;
  switch (view.plan.shape) {
    case LiveQueryShape::kAssocRange: {
      std::vector<Row> expect = RecomputeRows(view);
      if (expect.size() != view.rows.size()) {
        ok = false;
        detail = "row count " + std::to_string(view.rows.size()) + " != expected " +
                 std::to_string(expect.size());
      } else {
        for (size_t i = 0; i < expect.size(); ++i) {
          if (expect[i].id != view.rows[i].id || expect[i].value != view.rows[i].value) {
            ok = false;
            detail = "row " + std::to_string(i) + ": held " + view.rows[i].value.ToJson() +
                     " != expected " + expect[i].value.ToJson();
            break;
          }
        }
      }
      break;
    }
    case LiveQueryShape::kAssocCount: {
      int64_t expect = static_cast<int64_t>(
          tao_->AssocCount(config_.home_region, view.plan.anchor, view.plan.atype, nullptr));
      if (expect != view.count) {
        ok = false;
        detail = "count " + std::to_string(view.count) + " != expected " + std::to_string(expect);
      }
      break;
    }
    case LiveQueryShape::kReExecute: {
      Value expect = was_->ExecuteNow(view.reg.query, view.reg.viewer).data;
      if (expect != view.fallback) {
        ok = false;
        detail = "fallback state " + view.fallback.ToJson() + " != expected " + expect.ToJson();
      }
      break;
    }
  }
  scope.CommitTo(m_.audit_reads, nullptr);
  if (!ok) {
    m_.audit_failures->Increment();
    if (diagnostic != nullptr) {
      *diagnostic = topic + ": " + detail;
    }
  }
  return ok;
}

bool LiveQueryEngine::AuditAll(std::string* diagnostic) {
  for (const auto& [topic, view] : views_) {
    if (!AuditView(topic, diagnostic)) {
      return false;
    }
  }
  return true;
}

std::string LiveQueryEngine::ViewStateJson(const Topic& topic) const {
  auto it = views_.find(topic);
  if (it == views_.end()) {
    return "null";
  }
  const View& view = it->second;
  Value state;
  switch (view.plan.shape) {
    case LiveQueryShape::kAssocRange: {
      ValueList rows;
      rows.reserve(view.rows.size());
      for (const Row& r : view.rows) {
        rows.push_back(r.value);
      }
      state.Set("rows", Value(std::move(rows)));
      break;
    }
    case LiveQueryShape::kAssocCount:
      state.Set("count", view.count);
      break;
    case LiveQueryShape::kReExecute:
      state.Set("data", view.fallback);
      break;
  }
  return state.ToJson();
}

}  // namespace bladerunner
