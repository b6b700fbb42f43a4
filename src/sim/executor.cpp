#include "src/sim/executor.h"

#include "src/sim/simulator.h"

namespace bladerunner {

WorkStealingExecutor::WorkStealingExecutor(Simulator* sim, int threads,
                                           bool reverse_lp_order)
    : sim_(sim),
      threads_(threads < 1 ? 1 : threads),
      reverse_lp_order_(reverse_lp_order) {
  worklists_.reserve(static_cast<size_t>(threads_));
  for (int i = 0; i < threads_; ++i) {
    worklists_.push_back(std::make_unique<Worklist>());
  }
  workers_.reserve(static_cast<size_t>(threads_ - 1));
  for (int i = 1; i < threads_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

WorkStealingExecutor::~WorkStealingExecutor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

void WorkStealingExecutor::ExecuteRound(const std::vector<uint32_t>& ready, SimTime horizon) {
  if (threads_ == 1 || ready.size() == 1) {
    // Inline: no barrier to pay. Rounds with one ready LP are common (the
    // backend LP alone between device bursts), and running them on the
    // calling thread keeps them cheap.
    if (reverse_lp_order_) {
      for (size_t i = ready.size(); i > 0; --i) {
        sim_->RunLpRound(ready[i - 1], horizon);
      }
      return;
    }
    for (uint32_t lp : ready) {
      sim_->RunLpRound(lp, horizon);
    }
    return;
  }

  // Deal LPs round-robin across worklists. Which worker an LP lands on (or
  // which thief ultimately claims it) never affects the simulation result.
  for (auto& wl : worklists_) {
    wl->lps.clear();
    wl->cursor.store(0, std::memory_order_relaxed);
  }
  for (size_t i = 0; i < ready.size(); ++i) {
    worklists_[i % static_cast<size_t>(threads_)]->lps.push_back(ready[i]);
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    horizon_ = horizon;
    workers_running_ = threads_ - 1;
    ++round_generation_;
  }
  start_cv_.notify_all();

  DrainAndSteal(0);  // the coordinator is worker 0

  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return workers_running_ == 0; });
}

void WorkStealingExecutor::WorkerLoop(int index) {
  uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock,
                     [&] { return shutdown_ || round_generation_ != seen_generation; });
      if (shutdown_) {
        return;
      }
      seen_generation = round_generation_;
    }
    DrainAndSteal(index);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--workers_running_ == 0) {
        done_cv_.notify_one();
      }
    }
  }
}

void WorkStealingExecutor::DrainAndSteal(int index) {
  SimTime horizon;
  {
    // Synchronizes with the coordinator's round setup; also (re)reads the
    // horizon for this round.
    std::lock_guard<std::mutex> lock(mu_);
    horizon = horizon_;
  }
  for (int v = 0; v < threads_; ++v) {
    Worklist& victim = *worklists_[(index + v) % threads_];
    for (;;) {
      size_t i = victim.cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= victim.lps.size()) {
        break;
      }
      sim_->RunLpRound(victim.lps[i], horizon);
    }
  }
}

}  // namespace bladerunner
