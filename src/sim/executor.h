// Work-stealing executor for the kernel's rounds when it has several LPs.
//
// One round = one batch of logical processes whose next events fall below
// the conservative-lookahead horizon. LPs (not events) are the stealing
// granule: the coordinator deals the round's ready LPs across per-worker
// worklists, each worker drains its own list first, then steals from the
// other workers' lists (per-thread worklists in the style of Galois'
// foreach executor). Claims go through one atomic cursor per list, so an
// LP is executed by exactly one worker and a single pass over all lists
// drains the round.
//
// Determinism does not depend on which worker runs which LP: LPs are
// mutually independent within a round by the lookahead contract, and all
// cross-LP effects are merged at the barrier in LP-id order.

#ifndef BLADERUNNER_SRC_SIM_EXECUTOR_H_
#define BLADERUNNER_SRC_SIM_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/sim/time.h"

namespace bladerunner {

class Simulator;

class WorkStealingExecutor {
 public:
  // Spawns `threads - 1` workers; the thread calling ExecuteRound is the
  // remaining one (worker 0), so `threads == 1` spawns nothing and runs
  // rounds inline.
  // `reverse_lp_order` is the SimParallelOptions audit knob: reverse the
  // inline path's LP order to smoke out intra-round cross-LP reads.
  WorkStealingExecutor(Simulator* sim, int threads, bool reverse_lp_order);
  ~WorkStealingExecutor();

  WorkStealingExecutor(const WorkStealingExecutor&) = delete;
  WorkStealingExecutor& operator=(const WorkStealingExecutor&) = delete;

  // Executes Simulator::RunLpRound(lp, horizon) for every LP in `ready`,
  // blocking until the round is fully drained (the barrier).
  void ExecuteRound(const std::vector<uint32_t>& ready, SimTime horizon);

  int threads() const { return threads_; }

 private:
  // One worker's share of the current round. The owner and thieves claim
  // entries through the same atomic cursor; `lps` itself is written only
  // by the coordinator between rounds.
  struct alignas(64) Worklist {
    std::vector<uint32_t> lps;
    std::atomic<size_t> cursor{0};
  };

  void WorkerLoop(int index);
  // Drains worklist `index`, then steals from the others; one pass over
  // all lists is exhaustive because claims are single-consumer per entry.
  void DrainAndSteal(int index);

  Simulator* sim_;
  int threads_;
  bool reverse_lp_order_;
  std::vector<std::unique_ptr<Worklist>> worklists_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  uint64_t round_generation_ = 0;  // bumped to release workers into a round
  int workers_running_ = 0;
  SimTime horizon_ = 0;
  bool shutdown_ = false;
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_SIM_EXECUTOR_H_
