#include "src/trace/collector.h"

#include <utility>

#include "src/sim/lp.h"

namespace bladerunner {

namespace {
// Salt separating the sampling hash from the id-generation hash so the
// sampled subset is not simply "the numerically small ids".
constexpr uint64_t kSampleSalt = 0x5ca1ab1e0ddba11ULL;

// Lock guard that is a no-op when the store needs no locking (one LP,
// where only one thread ever touches the collector).
class MaybeLock {
 public:
  explicit MaybeLock(std::mutex* mu) : mu_(mu) {
    if (mu_ != nullptr) mu_->lock();
  }
  ~MaybeLock() {
    if (mu_ != nullptr) mu_->unlock();
  }
  MaybeLock(const MaybeLock&) = delete;
  MaybeLock& operator=(const MaybeLock&) = delete;

 private:
  std::mutex* mu_;
};
}  // namespace

TraceCollector::TraceCollector(TraceConfig config) : config_(std::move(config)) {
  // Seed 0 means the owner (cluster) did not override it; fall back to a
  // fixed constant so standalone collectors are still deterministic.
  if (config_.seed == 0) config_.seed = 0xb1adeb1adeULL;
}

void TraceCollector::ConfigureLps(uint32_t num_lps) {
  partitioned_ = true;
  lp_stores_.clear();
  for (uint32_t lp = 1; lp < num_lps; ++lp) {
    lp_stores_.push_back(std::make_unique<LpStore>());
  }
}

TraceCollector::StoreRef TraceCollector::GlobalStore() const {
  auto* self = const_cast<TraceCollector*>(this);
  StoreRef s;
  s.mu = partitioned_ ? &self->global_mu_ : nullptr;
  s.id_counter = &self->id_counter_;
  s.started = &self->traces_started_;
  s.evicted = &self->traces_evicted_;
  s.traces = &self->traces_;
  s.index = &self->index_;
  return s;
}

TraceCollector::StoreRef TraceCollector::StoreForLp(uint32_t lp) const {
  if (lp == 0 || !partitioned_) {
    return GlobalStore();
  }
  if (lp - 1 >= lp_stores_.size()) {
    return StoreRef{};  // unknown LP: treat as "trace not retained"
  }
  LpStore& store = *lp_stores_[lp - 1];
  StoreRef s;
  s.mu = &store.mu;
  s.id_counter = &store.id_counter;
  s.started = &store.started;
  s.evicted = &store.evicted;
  s.traces = &store.traces;
  s.index = &store.index;
  return s;
}

TraceCollector::StoreRef TraceCollector::StoreOfId(TraceId id) const {
  if (!partitioned_) {
    return GlobalStore();
  }
  uint64_t tag = id >> kTraceLpShift;
  if (tag == 0 || tag > lp_stores_.size() + 1) {
    return StoreRef{};  // foreign/legacy id in a partitioned run
  }
  return StoreForLp(static_cast<uint32_t>(tag - 1));
}

bool TraceCollector::Sampled(TraceId id) const {
  if (config_.sample_rate >= 1.0) return true;
  if (config_.sample_rate <= 0.0) return false;
  double u = static_cast<double>(TraceMix64(id ^ kSampleSalt)) /
             18446744073709551616.0;  // 2^64
  return u < config_.sample_rate;
}

TraceContext TraceCollector::StartTrace(const std::string& name,
                                        const std::string& component, int region,
                                        SimTime start) {
  if (!config_.enabled) return TraceContext{kSampledOutTraceId, 0};
  uint32_t lp = partitioned_ ? CurrentExecutionLp().value : 0;
  StoreRef store = StoreForLp(lp);
  if (!store.ok()) return TraceContext{kSampledOutTraceId, 0};
  MaybeLock lock(store.mu);

  TraceId id;
  if (partitioned_) {
    // The creating LP rides in the top bits; per-LP counters keep the id
    // sequence a function of that LP's program order alone.
    uint64_t tag = static_cast<uint64_t>(lp) + 1;
    uint64_t body = TraceMix64(config_.seed ^ TraceMix64((tag << kTraceLpShift) |
                                                         ++*store.id_counter));
    id = (tag << kTraceLpShift) | (body >> (64 - kTraceLpShift));
  } else {
    id = TraceMix64(config_.seed ^ TraceMix64(++*store.id_counter));
    if (id == 0 || id == kSampledOutTraceId) {
      id = TraceMix64(*store.id_counter);  // never hand out the sentinels
    }
  }
  // Sampled-out journeys still get a decided (sentinel) context so no
  // downstream component roots a replacement trace for them.
  if (!Sampled(id)) return TraceContext{kSampledOutTraceId, 0};

  ++*store.started;
  TraceRecord record;
  record.trace_id = id;
  Span root;
  root.span_id = 1;
  root.parent_span_id = 0;
  root.name = name;
  root.component = component;
  root.region = region;
  root.start = start;
  record.spans.push_back(std::move(root));

  (*store.index)[id] = *store.evicted + store.traces->size();
  store.traces->push_back(std::move(record));
  if (config_.max_traces > 0 && store.traces->size() > config_.max_traces) {
    store.index->erase(store.traces->front().trace_id);
    store.traces->pop_front();
    ++*store.evicted;
  }
  return TraceContext{id, 1};
}

TraceContext TraceCollector::StartSpan(const TraceContext& parent,
                                       const std::string& name,
                                       const std::string& component, int region,
                                       SimTime start) {
  // Children of a sampled-out trace inherit the sentinel so the decision
  // keeps propagating hop to hop.
  if (parent.sampled_out()) return TraceContext{kSampledOutTraceId, 0};
  if (!parent.valid()) return TraceContext();
  StoreRef store = StoreOfId(parent.trace_id);
  if (!store.ok()) return TraceContext();
  MaybeLock lock(store.mu);
  TraceRecord* trace = MutableTrace(store, parent.trace_id);
  if (trace == nullptr) return TraceContext();  // evicted
  Span span;
  span.span_id = trace->spans.size() + 1;
  span.parent_span_id = parent.span_id;
  span.name = name;
  span.component = component;
  span.region = region;
  span.start = start;
  trace->spans.push_back(std::move(span));
  return TraceContext{parent.trace_id, trace->spans.back().span_id};
}

TraceContext TraceCollector::RecordSpan(const TraceContext& parent,
                                        const std::string& name,
                                        const std::string& component, int region,
                                        SimTime start, SimTime end) {
  TraceContext ctx = StartSpan(parent, name, component, region, start);
  EndSpan(ctx, end);
  return ctx;
}

void TraceCollector::EndSpan(const TraceContext& ctx, SimTime end) {
  if (!ctx.valid()) return;
  StoreRef store = StoreOfId(ctx.trace_id);
  if (!store.ok()) return;
  MaybeLock lock(store.mu);
  TraceRecord* trace = MutableTrace(store, ctx.trace_id);
  Span* span = trace == nullptr ? nullptr : trace->Find(ctx.span_id);
  if (span == nullptr || !span->open()) return;
  span->end = end;
}

void TraceCollector::Annotate(const TraceContext& ctx, const std::string& key,
                              Value v) {
  if (!ctx.valid()) return;
  StoreRef store = StoreOfId(ctx.trace_id);
  if (!store.ok()) return;
  MaybeLock lock(store.mu);
  TraceRecord* trace = MutableTrace(store, ctx.trace_id);
  Span* span = trace == nullptr ? nullptr : trace->Find(ctx.span_id);
  if (span == nullptr) return;
  span->Annotate(key, std::move(v));
}

void TraceCollector::MarkError(const TraceContext& ctx, const std::string& message,
                               SimTime end) {
  if (!ctx.valid()) return;
  StoreRef store = StoreOfId(ctx.trace_id);
  if (!store.ok()) return;
  MaybeLock lock(store.mu);
  TraceRecord* trace = MutableTrace(store, ctx.trace_id);
  Span* span = trace == nullptr ? nullptr : trace->Find(ctx.span_id);
  if (span == nullptr) return;
  span->error = true;
  span->Annotate("error", Value(message));
  if (span->open()) span->end = end;
}

const TraceRecord* TraceCollector::FindTrace(TraceId id) const {
  StoreRef store = StoreOfId(id);
  if (!store.ok()) return nullptr;
  MaybeLock lock(store.mu);
  return const_cast<TraceCollector*>(this)->MutableTrace(store, id);
}

TraceRecord* TraceCollector::MutableTrace(const StoreRef& s, TraceId id) {
  auto it = s.index->find(id);
  if (it == s.index->end()) return nullptr;
  return &(*s.traces)[static_cast<size_t>(it->second - *s.evicted)];
}

const Span* TraceCollector::FindSpan(const TraceContext& ctx) const {
  const TraceRecord* trace = FindTrace(ctx.trace_id);
  return trace == nullptr ? nullptr : trace->Find(ctx.span_id);
}

std::vector<const TraceRecord*> TraceCollector::AllTraces() const {
  std::vector<const TraceRecord*> all;
  all.reserve(TraceCount());
  for (const TraceRecord& trace : traces_) {
    all.push_back(&trace);
  }
  for (const auto& store : lp_stores_) {
    for (const TraceRecord& trace : store->traces) {
      all.push_back(&trace);
    }
  }
  return all;
}

size_t TraceCollector::TraceCount() const {
  size_t n = traces_.size();
  for (const auto& store : lp_stores_) {
    n += store->traces.size();
  }
  return n;
}

uint64_t TraceCollector::traces_started() const {
  uint64_t n = traces_started_;
  for (const auto& store : lp_stores_) {
    n += store->started;
  }
  return n;
}

uint64_t TraceCollector::traces_evicted() const {
  uint64_t n = traces_evicted_;
  for (const auto& store : lp_stores_) {
    n += store->evicted;
  }
  return n;
}

void TraceCollector::Clear() {
  traces_.clear();
  index_.clear();
  traces_evicted_ = 0;
  traces_started_ = 0;
  for (const auto& store : lp_stores_) {
    store->traces.clear();
    store->index.clear();
    store->evicted = 0;
    store->started = 0;
  }
  // id counters intentionally not reset: cleared collectors keep producing
  // fresh ids so a Clear mid-run cannot cause id collisions.
}

}  // namespace bladerunner
