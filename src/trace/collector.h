// TraceCollector: owns sampled traces for one simulation, registered on the
// cluster alongside MetricsRegistry.
//
// Determinism contract: trace and span ids are derived from a private
// counter hashed with the collector's seed (SplitMix64), never from the
// simulator Rng, so (a) identical seeds produce byte-identical exports and
// (b) toggling tracing or changing the sample rate cannot shift any other
// random sequence in the simulation. The sampling decision is a pure
// function of the trace id, so sampling at rate 0.1 keeps the same subset
// of trace ids run over run.
//
// The collector takes explicit SimTime arguments rather than holding a
// Simulator pointer so benches and tests can drive it standalone.

#ifndef BLADERUNNER_SRC_TRACE_COLLECTOR_H_
#define BLADERUNNER_SRC_TRACE_COLLECTOR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/graphql/value.h"
#include "src/sim/time.h"
#include "src/trace/context.h"
#include "src/trace/span.h"

namespace bladerunner {

struct TraceConfig {
  bool enabled = true;
  // Head-based sampling rate in [0, 1]; the decision is made once at
  // StartTrace and inherited by every child span.
  double sample_rate = 1.0;
  // Seed for id generation. 0 means "derive from the cluster seed".
  uint64_t seed = 0;
  // Retain at most this many traces; the oldest are evicted FIFO so long
  // (multi-hour) runs stay memory-bounded. 0 = unbounded.
  size_t max_traces = 20000;
};

// SplitMix64 finalizer; shared by id generation and the sampling hash.
inline uint64_t TraceMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// How the collector routes a trace to the LP store that owns it: the
// creating LP's id (+1, so no trace id is 0) is carried in the top bits of
// every trace id. Tag width matches the kernel's 12-bit LP tag
// (src/sim/event_heap.h); the remaining 52 bits of hash keep collisions
// negligible at any realistic trace volume.
inline constexpr int kTraceLpShift = 52;

// Each LP of the simulation roots traces in its own store with its own id
// counter; the creating LP rides in the id's top bits so any LP can route a
// carried context back to the owning store. Cross-LP touches (a device
// closing a backend-rooted delivery span, the backend growing a
// device-rooted subscribe trace) lock that store's mutex — and stay
// deterministic because only the rooting LP *creates* spans on its traces;
// other LPs merely close or annotate spans they were handed, and those
// in-place writes commute.
class TraceCollector {
 public:
  // `num_lps` is the LP count of the simulation whose events start traces
  // (BladerunnerCluster passes its simulator's). A trace started from an
  // LP beyond it is not retained.
  explicit TraceCollector(TraceConfig config = TraceConfig(), uint32_t num_lps = 1);

  // Starts a new trace whose root span begins at `start` (which may be in
  // the past, e.g. a mutation's created_at). Returns an invalid context
  // when the trace is not sampled; all other calls no-op on invalid
  // contexts, so call sites never branch on sampling themselves.
  TraceContext StartTrace(const std::string& name, const std::string& component,
                          int region, SimTime start);

  // Opens a child span under `parent`. Invalid parent => invalid child.
  TraceContext StartSpan(const TraceContext& parent, const std::string& name,
                         const std::string& component, int region, SimTime start);

  // Records an already-finished span (start and end both known). Handy for
  // instant hop markers (start == end) and retrospective intervals.
  TraceContext RecordSpan(const TraceContext& parent, const std::string& name,
                          const std::string& component, int region,
                          SimTime start, SimTime end);

  void EndSpan(const TraceContext& ctx, SimTime end);

  void Annotate(const TraceContext& ctx, const std::string& key, Value v);

  // Closes the span with error=true and an "error" annotation. Spans
  // already closed keep their end time but still gain the error mark.
  void MarkError(const TraceContext& ctx, const std::string& message, SimTime end);

  const TraceRecord* FindTrace(TraceId id) const;
  const Span* FindSpan(const TraceContext& ctx) const;

  // Every retained trace across all LP stores: LP 0's store first, then
  // each device-group store, each in insertion (trace-start) order — a
  // deterministic order for exports. Pointers stay valid until the next
  // Start*/Clear.
  std::vector<const TraceRecord*> AllTraces() const;
  size_t TraceCount() const;
  uint64_t traces_started() const;
  uint64_t traces_evicted() const;

  const TraceConfig& config() const { return config_; }
  void set_sample_rate(double rate) { config_.sample_rate = rate; }
  void set_enabled(bool enabled) { config_.enabled = enabled; }

  void Clear();

 private:
  // One LP's retained traces.
  struct LpStore {
    std::mutex mu;
    uint64_t id_counter = 0;
    uint64_t started = 0;  // sampled + retained starts
    uint64_t evicted = 0;
    std::deque<TraceRecord> traces;
    // trace id -> absolute insertion index; deque position = index - evicted.
    std::unordered_map<TraceId, uint64_t> index;
  };
  LpStore* StoreForLp(uint32_t lp) const;  // null for an LP without a store
  LpStore* StoreOfId(TraceId id) const;    // routes by the id's LP tag
  static TraceRecord* MutableTrace(LpStore& store, TraceId id);
  bool Sampled(TraceId id) const;

  TraceConfig config_;
  std::vector<std::unique_ptr<LpStore>> stores_;  // index = LP id
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_TRACE_COLLECTOR_H_
