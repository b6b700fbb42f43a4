#include "src/sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/sim/executor.h"
#include "src/sim/metrics.h"

namespace bladerunner {

namespace {

// The LP execution context of this thread. Set for the duration of
// Simulator::RunLpRound; null outside event execution.
struct ExecContext {
  Simulator* sim = nullptr;
  LpId lp = kGlobalLp;
  void* lp_state = nullptr;  // Simulator::LpState*, typed inside Simulator
};

thread_local ExecContext t_exec;

// Pure function of (seed, lp): per-LP random streams must not depend on
// any other LP's draw history.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

LpId CurrentExecutionLp() { return t_exec.lp; }

// ---- SimContext ----

SimTime SimContext::Now() const { return sim_->Now(); }

TimerId SimContext::Schedule(SimTime delay, std::function<void()> fn) const {
  return sim_->Schedule(lp_, delay, std::move(fn));
}

TimerId SimContext::ScheduleAt(SimTime at, std::function<void()> fn) const {
  return sim_->ScheduleAt(lp_, at, std::move(fn));
}

TimerId SimContext::SendTo(LpId target, SimTime delay, std::function<void()> fn) const {
  return sim_->Schedule(target, delay, std::move(fn));
}

bool SimContext::Cancel(TimerId id) const { return sim_->Cancel(id); }

Rng& SimContext::rng() const { return sim_->rng(); }

// ---- Simulator ----

Simulator::Simulator(uint64_t seed, SimParallelOptions options) : options_(options) {
  options_.threads = std::max(1, options_.threads);
  options_.num_lps = std::max<uint32_t>(1, options_.num_lps);
  options_.lookahead = std::max<SimTime>(1, options_.lookahead);
  if (options_.num_lps > kMaxLps) {
    std::fprintf(stderr, "Simulator: %u LPs requested; at most %u are addressable\n",
                 options_.num_lps, kMaxLps);
    std::abort();
  }
  lps_.reserve(options_.num_lps);
  for (uint32_t i = 0; i < options_.num_lps; ++i) {
    auto lp = std::make_unique<LpState>(i, i == 0 ? seed : Mix64(seed ^ (0x4c700000ULL + i)));
    lp->next_unique_id = static_cast<uint64_t>(i) << 40;
    lps_.push_back(std::move(lp));
  }
  if (partitioned()) {
    for (auto& lp : lps_) {
      lp->sink = std::make_unique<MetricsSink>();
    }
    executor_ = std::make_unique<WorkStealingExecutor>(this, options_.threads,
                                                      options_.reverse_lp_order);
  }
}

Simulator::~Simulator() = default;

Simulator::LpState* Simulator::ExecutingLp() const {
  return t_exec.sim == this ? static_cast<LpState*>(t_exec.lp_state) : nullptr;
}

SimTime Simulator::Now() const {
  const LpState* lp = ExecutingLp();
  return lp != nullptr ? lp->now : now_;
}

Rng& Simulator::rng() {
  LpState* lp = ExecutingLp();
  return lp != nullptr ? lp->rng : lps_[0]->rng;
}

Rng& Simulator::rng(LpId lp) {
  assert(lp.value < lps_.size());
  return lps_[lp.value]->rng;
}

uint64_t Simulator::NextUniqueId() {
  // Setup code shares the global LP's id space so ids never collide with
  // ones handed out during global-LP execution.
  LpState* lp = ExecutingLp();
  return ++(lp != nullptr ? lp : lps_[0].get())->next_unique_id;
}

TimerId Simulator::Schedule(SimTime delay, std::function<void()> fn) {
  assert((ExecutingLp() == nullptr || ExecutingLp() == lps_[0].get()) &&
         "Schedule(delay, fn) means the global LP; schedule through a SimContext");
  return Schedule(kGlobalLp, delay, std::move(fn));
}

TimerId Simulator::ScheduleAt(SimTime at, std::function<void()> fn) {
  assert((ExecutingLp() == nullptr || ExecutingLp() == lps_[0].get()) &&
         "ScheduleAt(at, fn) means the global LP; schedule through a SimContext");
  return ScheduleAt(kGlobalLp, at, std::move(fn));
}

TimerId Simulator::Schedule(LpId lp, SimTime delay, std::function<void()> fn) {
  if (delay < 0) {
    delay = 0;
  }
  return ScheduleAt(lp, Now() + delay, std::move(fn));
}

TimerId Simulator::ScheduleAt(LpId lp, SimTime at, std::function<void()> fn) {
  assert(lp.value < lps_.size() && "LP out of range; grow SimParallelOptions::num_lps");
  LpState& target = *lps_[lp.value];
  LpState* current = ExecutingLp();
  if (current == nullptr) {
    // Outside event execution (setup code, between Run calls): push
    // directly; only this thread touches the kernel.
    return target.heap.Push(std::max(at, now_), std::move(fn));
  }
  if (&target == current) {
    // Self-scheduling: may land inside the current round.
    return current->heap.Push(std::max(at, current->now), std::move(fn));
  }
  // Cross-LP channel send from inside a round: buffered in the sender's
  // outbox and merged at the barrier. The lookahead floor keeps it out of
  // every LP's current round, which is what makes rounds conflict-free.
  SimTime floor = current->now + options_.lookahead;
  if (at < floor) {
    at = floor;
    ++current->lookahead_clamps;
  }
  current->outbox.push_back(CrossLpEvent{lp, at, std::move(fn)});
  return kInvalidTimerId;
}

bool Simulator::Cancel(TimerId id) {
  uint32_t lp = sim_internal::TimerLpTag(id);
  if (lp >= lps_.size()) {
    return false;
  }
  // An event may be cancelled only from its own LP's execution (or from
  // outside event execution) — cancelling another LP's timer mid-round
  // would race with its executor.
  assert((ExecutingLp() == nullptr || ExecutingLp() == lps_[lp].get()) &&
         "cross-LP Cancel is not allowed during execution");
  return lps_[lp]->heap.Cancel(id);
}

size_t Simulator::PendingEvents() const {
  size_t n = 0;
  for (const auto& lp : lps_) {
    n += lp->heap.live_events();
  }
  return n;
}

void Simulator::RunLpRound(uint32_t lp_index, SimTime horizon) {
  LpState& lp = *lps_[lp_index];
  ExecContext saved = t_exec;
  t_exec = ExecContext{this, LpId{lp_index}, &lp};
  MetricsSink* saved_sink = SetActiveMetricsSink(lp.sink.get());
  for (;;) {
    lp.heap.PurgeCancelledTop();
    const sim_internal::EventHeap::Event* top = lp.heap.Top();
    if (top == nullptr || top->at >= horizon) {
      break;
    }
    sim_internal::EventHeap::Event ev = lp.heap.PopEvent();
    lp.heap.NoteExecuted();
    lp.now = ev.at;
    ++lp.executed;
    ev.fn();
  }
  SetActiveMetricsSink(saved_sink);
  t_exec = saved;
}

uint64_t Simulator::MergeRound() {
  uint64_t executed = 0;
  for (auto& lp : lps_) {
    executed += lp->executed;
    lp->executed = 0;
    lookahead_clamps_ += lp->lookahead_clamps;
    lp->lookahead_clamps = 0;
    for (CrossLpEvent& ev : lp->outbox) {
      ++cross_lp_sends_;
      lps_[ev.target.value]->heap.Push(ev.at, std::move(ev.fn));
    }
    lp->outbox.clear();
    lp->sink->Flush();
  }
  return executed;
}

uint64_t Simulator::RunEvents(SimTime deadline) {
  assert(ExecutingLp() == nullptr && "nested Run from inside an event is not supported");
  if (!partitioned()) {
    // One LP: nothing to synchronise with, so drain it straight to the
    // deadline in a single pass.
    LpState& lp = *lps_[0];
    RunLpRound(0, deadline == kSimTimeNever ? kSimTimeNever : deadline + 1);
    uint64_t n = lp.executed;
    lp.executed = 0;
    events_executed_ += n;
    return n;
  }
  uint64_t n = 0;
  for (;;) {
    // Round start: T = earliest event anywhere.
    SimTime t = kSimTimeNever;
    for (auto& lp : lps_) {
      lp->heap.PurgeCancelledTop();
      const sim_internal::EventHeap::Event* top = lp->heap.Top();
      if (top != nullptr && top->at < t) {
        t = top->at;
      }
    }
    if (t == kSimTimeNever || t > deadline) {
      break;
    }
    SimTime horizon = t + options_.lookahead;
    if (horizon > deadline) {
      horizon = deadline + 1;  // events at the deadline itself still run
    }
    ready_.clear();
    for (uint32_t i = 0; i < lps_.size(); ++i) {
      const sim_internal::EventHeap::Event* top = lps_[i]->heap.Top();
      if (top != nullptr && top->at < horizon) {
        ready_.push_back(i);
      }
    }
    executor_->ExecuteRound(ready_, horizon);
    uint64_t executed = MergeRound();
    n += executed;
    events_executed_ += executed;
    ++rounds_executed_;
    // The global clock trails the completed horizon: everything strictly
    // before it has executed.
    now_ = std::max(now_, horizon - 1);
  }
  return n;
}

uint64_t Simulator::Run() {
  uint64_t n = RunEvents(kSimTimeNever);
  for (const auto& lp : lps_) {
    now_ = std::max(now_, lp->now);
  }
  return n;
}

uint64_t Simulator::RunUntil(SimTime deadline) {
  uint64_t n = RunEvents(deadline);
  now_ = std::max(now_, deadline);
  return n;
}

}  // namespace bladerunner
