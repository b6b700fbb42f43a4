// The discrete-event simulation kernel.
//
// Every component in this repository (TAO shards, Pylon servers, BRASS
// hosts, proxies, devices, links) runs on top of one Simulator instance.
// The kernel is deterministic: events scheduled for the same instant
// execute in scheduling order, and all randomness flows through
// simulator-owned Rngs, so a fixed seed reproduces a run exactly.
//
// There is one kernel. The world is divided into logical processes
// (src/sim/lp.h), fixed at construction; LP 0 is the global LP and always
// exists. Each LP keeps its events in its own event store
// (src/sim/event_heap.h) and runs them in local (at, seq) order.
//
//  * One LP (the default): Run and RunUntil drain LP 0 straight to the
//    deadline in a single pass, with no round barrier, no outbox merge, no
//    metric sink and no executor. rounds_executed() stays 0.
//  * Several LPs: execution proceeds in conservative-lookahead rounds
//    [T, T + lookahead). Every LP with events below the horizon runs them,
//    possibly concurrently on the work-stealing executor
//    (src/sim/executor.h). Cross-LP sends are buffered in per-LP outboxes,
//    merged at the round barrier in LP-id order, and never land earlier
//    than the lookahead. The schedule is a pure function of the seed and
//    the LP layout: any thread count (including 1) produces the same run.

#ifndef BLADERUNNER_SRC_SIM_SIMULATOR_H_
#define BLADERUNNER_SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/sim/event_heap.h"
#include "src/sim/lp.h"
#include "src/sim/metrics_sink.h"
#include "src/sim/random.h"
#include "src/sim/time.h"

namespace bladerunner {

class WorkStealingExecutor;

// LP layout of a simulation (see docs/PERF.md "LP-partitioned execution"),
// fixed at construction. `lookahead` must be no larger than the latency
// floor of every link that crosses an LP boundary; BladerunnerCluster
// derives it from the last-mile / POP-uplink models.
struct SimParallelOptions {
  int threads = 1;          // worker threads for rounds; unused with one LP
  uint32_t num_lps = 1;     // LP ids are [0, num_lps); 0 is the global LP
  SimTime lookahead = Millis(5);
  // Determinism audit knob: process each round's ready LPs in reverse id
  // order on the inline (threads == 1) path. A correct simulation is
  // invariant to intra-round LP execution order — any component that reads
  // another LP's state mid-round (instead of going through a channel)
  // shows up as a schedule difference between a normal and a reversed run
  // long before it shows up as a race on a multi-core box.
  bool reverse_lp_order = false;
};

class Simulator {
 public:
  // Options are clamped to sane minimums (threads and num_lps at least 1,
  // lookahead at least 1 microsecond). More than kMaxLps LPs is a fatal
  // error: the ids that carry an LP cannot address them.
  explicit Simulator(uint64_t seed = 1, SimParallelOptions options = {});
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  int threads() const { return options_.threads; }
  uint32_t num_lps() const { return static_cast<uint32_t>(lps_.size()); }
  SimTime lookahead() const { return options_.lookahead; }

  // Current simulated time: the executing LP's local clock during event
  // execution, the global clock otherwise.
  SimTime Now() const;

  // Schedules `fn` in `lp`, `delay` from now (delay < 0 is clamped to 0).
  // Returns a handle that can be passed to Cancel(). From inside another
  // LP's event this is a cross-LP channel send: it is delayed to at least
  // the lookahead and the returned id is kInvalidTimerId (cross-LP sends
  // are not cancellable). Components schedule through their SimContext.
  TimerId Schedule(LpId lp, SimTime delay, std::function<void()> fn);
  // Schedules `fn` in `lp` at the absolute time `at` (clamped to Now()).
  TimerId ScheduleAt(LpId lp, SimTime at, std::function<void()> fn);

  // Setup-time shorthand for the global LP, the same rule as SimContext's
  // implicit conversion from Simulator*. Calling these from inside another
  // LP's event is a bug (asserted).
  TimerId Schedule(SimTime delay, std::function<void()> fn);
  TimerId ScheduleAt(SimTime at, std::function<void()> fn);

  // Cancels a pending event in O(1). Returns true if the event had not yet
  // fired; a second Cancel(), or Cancel() of an already-fired timer, is a
  // detectable no-op returning false. An event may only be cancelled from
  // its own LP (or from outside event execution).
  bool Cancel(TimerId id);

  // Runs until the event queue drains. Returns the number of events run.
  uint64_t Run();

  // Runs events with time <= `deadline`, then unconditionally sets Now() to
  // `deadline` — whether the queue drained or later events remain pending.
  // Returns the number of events run.
  uint64_t RunUntil(SimTime deadline);

  // Convenience: RunUntil(Now() + duration).
  uint64_t RunFor(SimTime duration) { return RunUntil(Now() + duration); }

  // Number of live (scheduled, not yet fired or cancelled) events.
  size_t PendingEvents() const;

  // The executing LP's deterministic random stream: the seed rng for the
  // global LP (and outside event execution), a per-LP fork (pure function
  // of seed and LP id) otherwise.
  Rng& rng();

  // Dedicated rng for a specific LP. Only valid from that LP's execution or
  // outside event execution.
  Rng& rng(LpId lp);

  // Allocates a simulation-unique id from the executing LP's id space —
  // deterministic under any thread count. Used for connection ids.
  uint64_t NextUniqueId();

  // Total events executed since construction; current between Run calls.
  uint64_t events_executed() const { return events_executed_; }

  // Rounds run by the multi-LP kernel (0 with one LP).
  uint64_t rounds_executed() const { return rounds_executed_; }
  // Cross-LP sends whose requested delivery time was below the lookahead
  // floor and had to be pushed out to it (a modeling bug if nonzero with a
  // correctly derived lookahead).
  uint64_t lookahead_clamps() const { return lookahead_clamps_; }
  // Cross-LP sends merged at round barriers.
  uint64_t cross_lp_sends() const { return cross_lp_sends_; }

 private:
  friend class WorkStealingExecutor;

  struct CrossLpEvent {
    LpId target;
    SimTime at;
    std::function<void()> fn;
  };

  // One logical process: its event heap, local clock, random stream,
  // outbox of cross-LP sends buffered during a round, and metric sink
  // (flushed in LP-id order at every barrier; null with one LP, where
  // mutations apply directly). Padded to a cache line so concurrently
  // executing LPs never share one.
  struct alignas(64) LpState {
    LpState(uint32_t id_tag, uint64_t rng_seed) : heap(id_tag), rng(rng_seed) {}

    sim_internal::EventHeap heap;
    SimTime now = 0;
    Rng rng;
    uint64_t next_unique_id = 0;
    uint64_t executed = 0;  // events run since the last merge
    uint64_t lookahead_clamps = 0;  // clamps observed in the current round
    std::vector<CrossLpEvent> outbox;
    std::unique_ptr<MetricsSink> sink;
  };

  // Whether the kernel runs rounds (several LPs) or one pass (one LP).
  // Only the kernel's own machinery depends on it; the model does not.
  bool partitioned() const { return num_lps() > 1; }
  // The LP whose event this thread is executing, or null outside event
  // execution of this simulator.
  LpState* ExecutingLp() const;
  // Runs every event with time <= `deadline`; returns how many ran.
  uint64_t RunEvents(SimTime deadline);
  // Executes one LP's events below `horizon`; called by executor workers.
  void RunLpRound(uint32_t lp, SimTime horizon);
  // Applies outboxes and metric sinks in LP-id order; returns events run.
  uint64_t MergeRound();

  SimTime now_ = 0;
  uint64_t events_executed_ = 0;
  uint64_t rounds_executed_ = 0;
  uint64_t lookahead_clamps_ = 0;
  uint64_t cross_lp_sends_ = 0;

  SimParallelOptions options_;
  std::vector<std::unique_ptr<LpState>> lps_;
  std::unique_ptr<WorkStealingExecutor> executor_;  // null with one LP
  std::vector<uint32_t> ready_;  // LPs with events below the round horizon
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_SIM_SIMULATOR_H_
