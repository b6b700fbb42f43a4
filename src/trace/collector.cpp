#include "src/trace/collector.h"

#include <algorithm>
#include <utility>

#include "src/sim/lp.h"

namespace bladerunner {

namespace {
// Salt separating the sampling hash from the id-generation hash so the
// sampled subset is not simply "the numerically small ids".
constexpr uint64_t kSampleSalt = 0x5ca1ab1e0ddba11ULL;
}  // namespace

TraceCollector::TraceCollector(TraceConfig config, uint32_t num_lps)
    : config_(std::move(config)) {
  // Seed 0 means the owner (cluster) did not override it; fall back to a
  // fixed constant so standalone collectors are still deterministic.
  if (config_.seed == 0) config_.seed = 0xb1adeb1adeULL;
  for (uint32_t lp = 0; lp < std::max<uint32_t>(1, num_lps); ++lp) {
    stores_.push_back(std::make_unique<LpStore>());
  }
}

TraceCollector::LpStore* TraceCollector::StoreForLp(uint32_t lp) const {
  return lp < stores_.size() ? stores_[lp].get() : nullptr;
}

TraceCollector::LpStore* TraceCollector::StoreOfId(TraceId id) const {
  uint64_t tag = id >> kTraceLpShift;
  if (tag == 0) {
    return nullptr;  // not an id this collector hands out
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
  const uint32_t lp = CurrentExecutionLp().value;
  LpStore* store = StoreForLp(lp);
  if (store == nullptr) return TraceContext{kSampledOutTraceId, 0};
  std::lock_guard<std::mutex> lock(store->mu);

  // The creating LP rides in the top bits; per-LP counters keep the id
  // sequence a function of that LP's program order alone.
  const uint64_t tag = static_cast<uint64_t>(lp) + 1;
  const uint64_t body =
      TraceMix64(config_.seed ^ TraceMix64((tag << kTraceLpShift) | ++store->id_counter));
  const TraceId id = (tag << kTraceLpShift) | (body >> (64 - kTraceLpShift));
  // Sampled-out journeys still get a decided (sentinel) context so no
  // downstream component roots a replacement trace for them.
  if (!Sampled(id)) return TraceContext{kSampledOutTraceId, 0};

  ++store->started;
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

  store->index[id] = store->evicted + store->traces.size();
  store->traces.push_back(std::move(record));
  if (config_.max_traces > 0 && store->traces.size() > config_.max_traces) {
    store->index.erase(store->traces.front().trace_id);
    store->traces.pop_front();
    ++store->evicted;
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
  LpStore* store = StoreOfId(parent.trace_id);
  if (store == nullptr) return TraceContext();
  std::lock_guard<std::mutex> lock(store->mu);
  TraceRecord* trace = MutableTrace(*store, parent.trace_id);
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
  LpStore* store = StoreOfId(ctx.trace_id);
  if (store == nullptr) return;
  std::lock_guard<std::mutex> lock(store->mu);
  TraceRecord* trace = MutableTrace(*store, ctx.trace_id);
  Span* span = trace == nullptr ? nullptr : trace->Find(ctx.span_id);
  if (span == nullptr || !span->open()) return;
  span->end = end;
}

void TraceCollector::Annotate(const TraceContext& ctx, const std::string& key,
                              Value v) {
  if (!ctx.valid()) return;
  LpStore* store = StoreOfId(ctx.trace_id);
  if (store == nullptr) return;
  std::lock_guard<std::mutex> lock(store->mu);
  TraceRecord* trace = MutableTrace(*store, ctx.trace_id);
  Span* span = trace == nullptr ? nullptr : trace->Find(ctx.span_id);
  if (span == nullptr) return;
  span->Annotate(key, std::move(v));
}

void TraceCollector::MarkError(const TraceContext& ctx, const std::string& message,
                               SimTime end) {
  if (!ctx.valid()) return;
  LpStore* store = StoreOfId(ctx.trace_id);
  if (store == nullptr) return;
  std::lock_guard<std::mutex> lock(store->mu);
  TraceRecord* trace = MutableTrace(*store, ctx.trace_id);
  Span* span = trace == nullptr ? nullptr : trace->Find(ctx.span_id);
  if (span == nullptr) return;
  span->error = true;
  span->Annotate("error", Value(message));
  if (span->open()) span->end = end;
}

const TraceRecord* TraceCollector::FindTrace(TraceId id) const {
  LpStore* store = StoreOfId(id);
  if (store == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(store->mu);
  return MutableTrace(*store, id);
}

TraceRecord* TraceCollector::MutableTrace(LpStore& store, TraceId id) {
  auto it = store.index.find(id);
  if (it == store.index.end()) return nullptr;
  return &store.traces[static_cast<size_t>(it->second - store.evicted)];
}

const Span* TraceCollector::FindSpan(const TraceContext& ctx) const {
  const TraceRecord* trace = FindTrace(ctx.trace_id);
  return trace == nullptr ? nullptr : trace->Find(ctx.span_id);
}

std::vector<const TraceRecord*> TraceCollector::AllTraces() const {
  std::vector<const TraceRecord*> all;
  all.reserve(TraceCount());
  for (const auto& store : stores_) {
    for (const TraceRecord& trace : store->traces) {
      all.push_back(&trace);
    }
  }
  return all;
}

size_t TraceCollector::TraceCount() const {
  size_t n = 0;
  for (const auto& store : stores_) {
    n += store->traces.size();
  }
  return n;
}

uint64_t TraceCollector::traces_started() const {
  uint64_t n = 0;
  for (const auto& store : stores_) {
    n += store->started;
  }
  return n;
}

uint64_t TraceCollector::traces_evicted() const {
  uint64_t n = 0;
  for (const auto& store : stores_) {
    n += store->evicted;
  }
  return n;
}

void TraceCollector::Clear() {
  for (const auto& store : stores_) {
    store->traces.clear();
    store->index.clear();
    store->evicted = 0;
    store->started = 0;
  }
  // id counters intentionally not reset: cleared collectors keep producing
  // fresh ids so a Clear mid-run cannot cause id collisions.
}

}  // namespace bladerunner
