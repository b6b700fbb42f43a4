// Logical processes (LPs) and the LP-affine scheduling surface.
//
// The kernel (docs/PERF.md "LP-partitioned execution") divides the
// simulated world into logical processes: per device group, and one global
// LP (id 0) that holds every component not explicitly partitioned. Events
// within one LP execute sequentially in (at, seq) order; events in
// different LPs may execute concurrently within one conservative-lookahead
// round, so state owned by different LPs must only interact through
// cross-LP sends (SimContext::SendTo / Simulator::ScheduleAt(lp, ...)),
// which the kernel delays by at least the configured lookahead — the
// link-latency floor of the links that cross LP boundaries.
//
// SimContext is the handle components hold instead of a raw Simulator*: it
// carries the component's declared LP, so the component's own timers land in
// its LP no matter which LP the scheduling call happens to run in. Wherever
// no LP is given — a SimContext built from a bare Simulator*, the
// Simulator::Schedule(delay, fn) shorthand, code running outside any event —
// the LP is LP 0, the global LP. No scheduling call infers its LP from the
// event that happens to be executing.

#ifndef BLADERUNNER_SRC_SIM_LP_H_
#define BLADERUNNER_SRC_SIM_LP_H_

#include <cstdint>
#include <functional>

#include "src/sim/time.h"

namespace bladerunner {

class Simulator;
class Rng;
using TimerId = uint64_t;

// Typed LP identifier. LPs are dense small integers assigned by whoever
// configures the simulation (BladerunnerCluster numbers POPs and device
// groups); id 0 is the global LP.
struct LpId {
  uint32_t value = 0;

  constexpr LpId() = default;
  constexpr explicit LpId(uint32_t v) : value(v) {}

  constexpr bool operator==(LpId other) const { return value == other.value; }
  constexpr bool operator!=(LpId other) const { return value != other.value; }
  constexpr bool operator<(LpId other) const { return value < other.value; }
};

// The global LP: everything that is not explicitly partitioned. In a
// one-LP simulation every event is in the global LP.
inline constexpr LpId kGlobalLp{0};

// The most LPs one simulation may have. A TimerId carries its LP in 12 bits
// (src/sim/event_heap.h) and a trace id carries `lp + 1` in 12
// bits (src/trace/collector.h), so LP ids 0..4094 are what both can address.
inline constexpr uint32_t kMaxLps = 4095;

// The LP whose event is currently executing on this thread, or kGlobalLp
// when called outside event execution (setup code, between Run calls).
// Usable from any component without a Simulator*; this is how the trace
// collector routes spans to per-LP buffers.
LpId CurrentExecutionLp();

// A Simulator handle bound to one LP. Copyable and cheap; components store
// one by value. All of a component's self-scheduling goes through this so
// its timers always land in its declared LP.
class SimContext {
 public:
  // Implicit on purpose: a bare Simulator* means the global LP.
  SimContext(Simulator* sim = nullptr, LpId lp = kGlobalLp) : sim_(sim), lp_(lp) {}

  Simulator* sim() const { return sim_; }
  LpId lp() const { return lp_; }

  // Current simulated time of the executing LP (equals Simulator::Now()).
  SimTime Now() const;

  // Schedules `fn` in this context's LP, `delay` from now / at time `at`.
  TimerId Schedule(SimTime delay, std::function<void()> fn) const;
  TimerId ScheduleAt(SimTime at, std::function<void()> fn) const;

  // Cross-LP channel send: schedules `fn` in `target` after `delay`. In
  // partitioned mode the delay is raised to the configured lookahead if
  // below it (counted in "sim.lookahead_clamps"); the returned id is
  // kInvalidTimerId for cross-LP sends, which are not cancellable.
  TimerId SendTo(LpId target, SimTime delay, std::function<void()> fn) const;

  bool Cancel(TimerId id) const;

  // The executing LP's deterministic random stream (the seed rng for the
  // global LP, a per-LP fork otherwise).
  Rng& rng() const;

 private:
  Simulator* sim_;
  LpId lp_;
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_SIM_LP_H_
