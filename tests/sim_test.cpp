// Unit tests for the simulation kernel: event ordering, cancellation, random
// programs against a reference interpreter, LP layout and the scheduling
// rule, deterministic RNG distributions, histograms, metrics, time helpers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/histogram.h"
#include "src/sim/lp.h"
#include "src/sim/metrics.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace bladerunner {
namespace {

TEST(TimeTest, UnitConstructors) {
  EXPECT_EQ(Micros(7), 7);
  EXPECT_EQ(Millis(3), 3000);
  EXPECT_EQ(Seconds(2), 2000000);
  EXPECT_EQ(Minutes(1), 60000000);
  EXPECT_EQ(Hours(1), Minutes(60));
  EXPECT_EQ(Days(1), Hours(24));
}

TEST(TimeTest, FractionalConstructors) {
  EXPECT_EQ(MillisF(1.5), 1500);
  EXPECT_EQ(SecondsF(0.25), 250000);
}

TEST(TimeTest, Conversions) {
  EXPECT_DOUBLE_EQ(ToMillis(Millis(5)), 5.0);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(9)), 9.0);
  EXPECT_DOUBLE_EQ(ToMinutes(Minutes(4)), 4.0);
  EXPECT_DOUBLE_EQ(ToHours(Hours(3)), 3.0);
}

TEST(TimeTest, FormatTimeOfDay) {
  EXPECT_EQ(FormatTimeOfDay(0), "00:00:00");
  EXPECT_EQ(FormatTimeOfDay(Hours(1) + Minutes(30) + Seconds(15)), "01:30:15");
  EXPECT_EQ(FormatTimeOfDay(Days(2) + Hours(23)), "23:00:00");
}

TEST(TimeTest, FormatDuration) {
  EXPECT_EQ(FormatDuration(Micros(500)), "500us");
  EXPECT_EQ(FormatDuration(Millis(2)), "2.00ms");
  EXPECT_EQ(FormatDuration(Seconds(3)), "3.00s");
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Millis(30), [&]() { order.push_back(3); });
  sim.Schedule(Millis(10), [&]() { order.push_back(1); });
  sim.Schedule(Millis(20), [&]() { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), Millis(30));
}

TEST(SimulatorTest, SameTimeEventsRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(Millis(5), [&order, i]() { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Millis(1), [&]() {
    sim.Schedule(Millis(1), [&]() {
      fired += 1;
      sim.Schedule(Millis(1), [&]() { fired += 1; });
    });
  });
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), Millis(3));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  TimerId id = sim.Schedule(Millis(10), [&]() { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelAfterFireReturnsFalse) {
  Simulator sim;
  TimerId id = sim.Schedule(Millis(1), []() {});
  sim.Run();
  EXPECT_FALSE(sim.Cancel(id));
}

TEST(SimulatorTest, DoubleCancelReturnsFalse) {
  Simulator sim;
  TimerId id = sim.Schedule(Millis(1), []() {});
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Millis(10), [&]() { fired += 1; });
  sim.Schedule(Millis(30), [&]() { fired += 1; });
  sim.RunUntil(Millis(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), Millis(20));
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, RunUntilAdvancesClockWhenQueueDrains) {
  Simulator sim;
  sim.RunUntil(Seconds(5));
  EXPECT_EQ(sim.Now(), Seconds(5));
}

TEST(SimulatorTest, RunForIsRelative) {
  Simulator sim;
  sim.RunFor(Seconds(1));
  sim.RunFor(Seconds(1));
  EXPECT_EQ(sim.Now(), Seconds(2));
}

TEST(SimulatorTest, RunUntilWithCancelledHead) {
  Simulator sim;
  bool late_fired = false;
  TimerId early = sim.Schedule(Millis(1), []() {});
  sim.Schedule(Millis(100), [&]() { late_fired = true; });
  sim.Cancel(early);
  sim.RunUntil(Millis(10));
  EXPECT_FALSE(late_fired);  // the cancelled head must not pull in later events
  EXPECT_EQ(sim.Now(), Millis(10));
}

TEST(SimulatorTest, PendingEventsTracksLiveEvents) {
  Simulator sim;
  TimerId a = sim.Schedule(Millis(1), []() {});
  sim.Schedule(Millis(2), []() {});
  EXPECT_EQ(sim.PendingEvents(), 2u);
  sim.Cancel(a);
  EXPECT_EQ(sim.PendingEvents(), 1u);
  sim.Run();
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.RunUntil(Seconds(1));
  SimTime fired_at = -1;
  sim.Schedule(-Millis(100), [&]() { fired_at = sim.Now(); });
  sim.Run();
  EXPECT_EQ(fired_at, Seconds(1));
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  auto run = [](uint64_t seed) {
    Simulator sim(seed);
    double total = 0.0;
    for (int i = 0; i < 100; ++i) {
      sim.Schedule(MillisF(sim.rng().Exponential(5.0)), [&total, &sim]() {
        total += static_cast<double>(sim.Now());
      });
    }
    sim.Run();
    return total;
  };
  EXPECT_DOUBLE_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

// ---- kernel contract pins (safety net for the heap rewrite) ----

// RunUntil always advances Now() to the deadline — both when later events
// remain pending and when the queue drained long before the deadline.
TEST(SimulatorTest, RunUntilAlwaysAdvancesToDeadline) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Millis(1), [&]() { fired += 1; });
  sim.Schedule(Seconds(10), [&]() { fired += 1; });
  sim.RunUntil(Seconds(1));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), Seconds(1));  // later event pending: still advances
  sim.RunUntil(Seconds(20));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), Seconds(20));  // queue drained at 10s: still advances
}

// A fired timer's id must stay dead even after the kernel recycles its
// internal bookkeeping for new events: cancelling it is a no-op that must
// not touch any newer timer.
TEST(SimulatorTest, CancelOfFiredTimerNeverHitsRecycledId) {
  Simulator sim;
  TimerId old_id = sim.Schedule(Millis(1), []() {});
  sim.Run();
  // These may reuse the fired timer's internal storage.
  bool fired = false;
  sim.Schedule(Millis(1), [&]() { fired = true; });
  EXPECT_FALSE(sim.Cancel(old_id));
  sim.Run();
  EXPECT_TRUE(fired);  // the stale cancel must not kill the new timer
}

TEST(SimulatorTest, CancelOwnTimerInsideCallbackReturnsFalse) {
  Simulator sim;
  TimerId id = kInvalidTimerId;
  bool cancel_result = true;
  id = sim.Schedule(Millis(1), [&]() { cancel_result = sim.Cancel(id); });
  sim.Run();
  EXPECT_FALSE(cancel_result);  // a firing timer is no longer pending
}

TEST(SimulatorTest, CancelFromEarlierEventPreventsLaterSameTimeEvent) {
  Simulator sim;
  bool late_fired = false;
  TimerId late = kInvalidTimerId;
  // FIFO within an instant: the canceller was scheduled first, so it runs
  // first and must be able to cancel the same-time event behind it.
  sim.Schedule(Millis(5), [&]() { EXPECT_TRUE(sim.Cancel(late)); });
  late = sim.Schedule(Millis(5), [&]() { late_fired = true; });
  sim.Run();
  EXPECT_FALSE(late_fired);
}

// Same-time FIFO survives interleaved cancellation: the surviving events
// still run in their original scheduling order.
TEST(SimulatorTest, SameTimeFifoSurvivesInterleavedCancels) {
  Simulator sim;
  std::vector<int> order;
  std::vector<TimerId> ids;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(sim.Schedule(Millis(7), [&order, i]() { order.push_back(i); }));
  }
  for (int i = 0; i < 20; i += 3) {
    EXPECT_TRUE(sim.Cancel(ids[static_cast<size_t>(i)]));
  }
  sim.Run();
  std::vector<int> expected;
  for (int i = 0; i < 20; ++i) {
    if (i % 3 != 0) {
      expected.push_back(i);
    }
  }
  EXPECT_EQ(order, expected);
}

// Randomized pop-order check: whatever the internal heap shape, events must
// fire in strict (time, scheduling-seq) order.
TEST(SimulatorTest, StressPopOrderIsTimeThenFifo) {
  Simulator sim;
  Rng rng(42);
  struct Fired {
    SimTime at;
    int seq;
  };
  std::vector<Fired> fired;
  std::vector<TimerId> ids;
  for (int i = 0; i < 2000; ++i) {
    SimTime at = Micros(rng.UniformInt(0, 50));  // heavy same-time collisions
    ids.push_back(sim.ScheduleAt(at, [&fired, &sim, i]() {
      fired.push_back({sim.Now(), i});
    }));
  }
  for (int i = 0; i < 2000; i += 7) {
    sim.Cancel(ids[static_cast<size_t>(i)]);
  }
  sim.Run();
  ASSERT_FALSE(fired.empty());
  for (size_t i = 1; i < fired.size(); ++i) {
    ASSERT_GE(fired[i].at, fired[i - 1].at);
    if (fired[i].at == fired[i - 1].at) {
      ASSERT_GT(fired[i].seq, fired[i - 1].seq);  // FIFO within an instant
    }
  }
}

// ---- the kernel against a reference interpreter ----

// The textbook discrete-event loop: a std::map keyed by (at, seq). The
// kernel must run any program exactly as this does.
class ReferenceKernel {
 public:
  uint64_t Schedule(SimTime delay, std::function<void()> fn) {
    SimTime at = now_ + std::max<SimTime>(delay, 0);
    uint64_t seq = next_seq_++;
    queue_.emplace(std::make_pair(at, seq), std::move(fn));
    pending_.emplace(seq, at);
    return seq;
  }
  bool Cancel(uint64_t seq) {
    auto it = pending_.find(seq);
    if (it == pending_.end()) {
      return false;
    }
    queue_.erase({it->second, seq});
    pending_.erase(it);
    return true;
  }
  SimTime Now() const { return now_; }
  uint64_t RunUntil(SimTime deadline) {
    uint64_t n = 0;
    while (!queue_.empty() && queue_.begin()->first.first <= deadline) {
      Step();
      ++n;
    }
    now_ = std::max(now_, deadline);
    return n;
  }
  uint64_t Run() {
    uint64_t n = 0;
    while (!queue_.empty()) {
      Step();
      ++n;
    }
    return n;
  }

 private:
  void Step() {
    auto node = queue_.extract(queue_.begin());
    now_ = node.key().first;
    pending_.erase(node.key().second);
    node.mapped()();
  }

  SimTime now_ = 0;
  uint64_t next_seq_ = 1;
  std::map<std::pair<SimTime, uint64_t>, std::function<void()>> queue_;
  std::map<uint64_t, SimTime> pending_;  // seq -> at, for Cancel
};

// The kernel under test behind the same interface, scheduling into LP 0.
struct KernelUnderTest {
  Simulator& sim;
  uint64_t Schedule(SimTime delay, std::function<void()> fn) {
    return sim.Schedule(kGlobalLp, delay, std::move(fn));
  }
  bool Cancel(uint64_t id) { return sim.Cancel(id); }
  SimTime Now() const { return sim.Now(); }
  uint64_t RunUntil(SimTime deadline) { return sim.RunUntil(deadline); }
  uint64_t Run() { return sim.Run(); }
};

// A seeded random program: root events with many same-instant ties, events
// that schedule children (delay 0 included) and cancel pending, fired and
// their own timers, RunUntil slices (repeated and backwards deadlines
// included) with setup-time scheduling between them, and a final Run.
// Returns everything the program observed.
template <typename Kernel>
std::vector<std::string> RunRandomProgram(Kernel& kernel, uint64_t seed) {
  constexpr size_t kMaxEvents = 600;
  constexpr SimTime kDelays[] = {0, 0, 1, 1, 2, 3, 5, 8, 13};
  Rng rng(seed);
  std::vector<uint64_t> handles;  // by event id
  std::vector<std::string> log;
  auto cancel = [&](int by, size_t target) {
    bool cancelled = kernel.Cancel(handles[target]);
    log.push_back("cancel " + std::to_string(target) + " by " + std::to_string(by) + " -> " +
                  std::to_string(cancelled));
  };
  std::function<void(SimTime)> schedule;
  auto fire = [&](int id) {
    log.push_back("event " + std::to_string(id) + " @" + std::to_string(kernel.Now()));
    int children = static_cast<int>(rng.UniformInt(0, 2));
    for (int c = 0; c < children && handles.size() < kMaxEvents; ++c) {
      schedule(kDelays[rng.Index(std::size(kDelays))]);
    }
    double u = rng.Uniform();
    if (u < 0.25) {
      cancel(id, rng.Index(handles.size()));  // pending, fired or cancelled
    } else if (u < 0.35) {
      cancel(id, static_cast<size_t>(id));  // its own timer: already firing
    }
  };
  schedule = [&](SimTime delay) {
    int id = static_cast<int>(handles.size());
    handles.push_back(kInvalidTimerId);
    handles[static_cast<size_t>(id)] = kernel.Schedule(delay, [&fire, id]() { fire(id); });
  };

  for (int i = 0; i < 60; ++i) {
    schedule(rng.UniformInt(0, 40));
  }
  SimTime deadline = 0;
  for (int slice = 0; slice < 25; ++slice) {
    deadline += rng.UniformInt(0, 6);
    SimTime until = rng.Bernoulli(0.1) ? deadline - 3 : deadline;
    uint64_t ran = kernel.RunUntil(until);
    log.push_back("until " + std::to_string(until) + " ran " + std::to_string(ran) + " now " +
                  std::to_string(kernel.Now()));
    schedule(rng.UniformInt(0, 10));
    if (rng.Bernoulli(0.5)) {
      cancel(-1, rng.Index(handles.size()));
    }
  }
  log.push_back("run ran " + std::to_string(kernel.Run()));
  return log;
}

TEST(SimulatorTest, RandomProgramsMatchReferenceInterpreter) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    ReferenceKernel reference;
    std::vector<std::string> expected = RunRandomProgram(reference, seed);
    // The program must exercise what it claims to: ties, cancels that hit
    // and cancels that miss.
    auto count = [&expected](const std::string& needle) {
      return std::count_if(expected.begin(), expected.end(), [&](const std::string& line) {
        return line.find(needle) != std::string::npos;
      });
    };
    EXPECT_GT(count("event "), 300);
    EXPECT_GT(count("-> 1"), 0);
    EXPECT_GT(count("-> 0"), 0);

    Simulator one_lp(seed);
    KernelUnderTest one{one_lp};
    EXPECT_EQ(RunRandomProgram(one, seed), expected) << "seed " << seed;
    EXPECT_EQ(one_lp.rounds_executed(), 0u);

    // Three LPs with only LP 0 used: the round kernel, rounds far shorter
    // than the program, must still run it exactly as the reference does.
    SimParallelOptions po;
    po.num_lps = 3;
    po.lookahead = Micros(3);
    Simulator three_lps(seed, po);
    KernelUnderTest three{three_lps};
    EXPECT_EQ(RunRandomProgram(three, seed), expected) << "seed " << seed;
    EXPECT_GT(three_lps.rounds_executed(), 0u);
  }
}

// ---- partitioned kernel: LP layout, the scheduling rule, lookahead
// channels, determinism ----

TEST(PartitionedSimTest, ShorthandScheduleFromSetupRunsInGlobalLp) {
  SimParallelOptions po;
  po.num_lps = 3;
  Simulator sim(1, po);
  std::vector<uint32_t> lps;
  sim.Schedule(Millis(1), [&lps]() { lps.push_back(CurrentExecutionLp().value); });
  sim.ScheduleAt(Millis(2), [&lps]() { lps.push_back(CurrentExecutionLp().value); });
  sim.Schedule(LpId(2), Millis(3), [&lps]() { lps.push_back(CurrentExecutionLp().value); });
  sim.Run();
  EXPECT_EQ(lps, (std::vector<uint32_t>{0, 0, 2}));
}

TEST(PartitionedSimDeathTest, ShorthandScheduleFromAnotherLpAsserts) {
  auto call_from_lp2 = [](bool absolute) {
    SimParallelOptions po;
    po.num_lps = 3;
    Simulator sim(1, po);
    sim.Schedule(LpId(2), Millis(1), [&sim, absolute]() {
      if (absolute) {
        sim.ScheduleAt(Millis(20), []() {});
      } else {
        sim.Schedule(Millis(20), []() {});
      }
    });
    sim.Run();
  };
  EXPECT_DEBUG_DEATH(call_from_lp2(false), "global LP");
  EXPECT_DEBUG_DEATH(call_from_lp2(true), "global LP");
}

TEST(PartitionedSimDeathTest, RejectsMoreLpsThanIdsCanAddress) {
  SimParallelOptions po;
  po.num_lps = kMaxLps + 1;
  EXPECT_DEATH(Simulator(1, po), "at most 4095 are addressable");
}

TEST(PartitionedSimTest, CancelReachesTheHighestAddressableLp) {
  // At the limit, a timer in the last LP must cancel that timer and no
  // other (an LP id that overflowed the TimerId tag would alias LP 0).
  SimParallelOptions po;
  po.num_lps = kMaxLps;
  Simulator sim(1, po);
  bool global_ran = false;
  bool last_ran = false;
  sim.Schedule(kGlobalLp, Millis(1), [&global_ran]() { global_ran = true; });
  TimerId last = sim.Schedule(LpId(kMaxLps - 1), Millis(1), [&last_ran]() { last_ran = true; });
  EXPECT_TRUE(sim.Cancel(last));
  sim.Run();
  EXPECT_TRUE(global_ran);
  EXPECT_FALSE(last_ran);
}

TEST(PartitionedSimTest, CrossLpSendRespectsLookaheadFloor) {
  SimParallelOptions po;
  po.threads = 1;
  po.num_lps = 3;
  po.lookahead = Millis(5);
  Simulator sim(1, po);
  SimTime delivered_at = 0;
  TimerId cross_id = kInvalidTimerId;
  bool cross_ran = false;
  sim.Schedule(LpId(1), Millis(1), [&]() {
    // A cross-LP send below the lookahead floor: must be clamped up to
    // sender-now + lookahead and must not hand back a cancelable id.
    cross_id = sim.Schedule(LpId(2), Millis(1), [&]() {
      cross_ran = true;
      delivered_at = sim.Now();
    });
  });
  sim.RunFor(Millis(20));
  EXPECT_TRUE(cross_ran);
  EXPECT_EQ(cross_id, kInvalidTimerId);
  EXPECT_EQ(delivered_at, Millis(1) + Millis(5));  // clamped to the floor
  EXPECT_EQ(sim.lookahead_clamps(), 1u);
  EXPECT_EQ(sim.cross_lp_sends(), 1u);
}

TEST(PartitionedSimTest, CrossLpSendBeyondLookaheadKeepsRequestedTime) {
  SimParallelOptions po;
  po.threads = 1;
  po.num_lps = 2;
  po.lookahead = Millis(5);
  Simulator sim(1, po);
  SimTime delivered_at = 0;
  sim.Schedule(LpId(1), Millis(2), [&]() {
    sim.Schedule(LpId(0), Millis(9), [&]() { delivered_at = sim.Now(); });
  });
  sim.RunFor(Millis(30));
  EXPECT_EQ(delivered_at, Millis(2) + Millis(9));  // above the floor: untouched
  EXPECT_EQ(sim.lookahead_clamps(), 0u);
}

TEST(PartitionedSimTest, PerLpRngStreamsAreStableAndIndependent) {
  // Drawing from one LP's rng must not perturb another's sequence, and the
  // per-LP sequences are a function of the seed alone.
  auto draw = [](bool interleave) {
    SimParallelOptions po;
    po.threads = 1;
    po.num_lps = 3;
    Simulator sim(21, po);
    std::vector<uint64_t> lp2_draws;
    for (int i = 0; i < 4; ++i) {
      sim.Schedule(LpId(2), Millis(1 + i), [&]() {
        lp2_draws.push_back(sim.rng().UniformInt(0, 1u << 30));
      });
      if (interleave) {
        sim.Schedule(LpId(1), Millis(1 + i), [&]() { sim.rng().Uniform(); });
      }
    }
    sim.RunFor(Millis(50));
    return lp2_draws;
  };
  EXPECT_EQ(draw(false), draw(true));
}

TEST(PartitionedSimTest, RunForIsRelativeInPartitionedMode) {
  SimParallelOptions po;
  po.threads = 1;
  po.num_lps = 2;
  Simulator sim(3, po);
  sim.RunFor(Seconds(1));
  sim.RunFor(Seconds(1));
  EXPECT_EQ(sim.Now(), Seconds(2));
}

// A multi-LP workload with self-scheduling timers, cross-LP sends, and
// per-LP rng draws; the digest is the concatenation of per-LP logs in
// LP-id order, which must be invariant across worker-thread counts.
TEST(PartitionedSimTest, DeterministicAcrossThreadCounts) {
  constexpr uint32_t kLps = 9;
  auto run = [](int threads) {
    SimParallelOptions po;
    po.threads = threads;
    po.num_lps = kLps;
    po.lookahead = Millis(5);
    Simulator sim(4242, po);
    std::vector<std::vector<uint64_t>> logs(kLps);
    for (uint32_t lp = 0; lp < kLps; ++lp) {
      for (int k = 0; k < 6; ++k) {
        sim.Schedule(LpId(lp), Millis(k), [&sim, &logs, lp]() {
          uint64_t draw = sim.rng().UniformInt(0, 1000000);
          logs[lp].push_back((static_cast<uint64_t>(sim.Now()) << 20) ^ draw);
          // Half the events ping a neighbour LP (cross-LP channel), half
          // reschedule locally below the lookahead.
          uint32_t target = (lp + draw % kLps) % kLps;
          if (draw % 2 == 0 && target != lp) {
            sim.Schedule(LpId(target), Millis(1 + draw % 7), [&logs, target, &sim]() {
              logs[target].push_back(static_cast<uint64_t>(sim.Now()));
            });
          } else if (sim.Now() < Millis(400)) {
            sim.Schedule(LpId(lp), Millis(1 + draw % 3), [&logs, lp, &sim]() {
              logs[lp].push_back(static_cast<uint64_t>(sim.Now()) * 3u);
            });
          }
        });
      }
    }
    sim.RunFor(Seconds(1));
    std::vector<uint64_t> digest;
    digest.push_back(sim.events_executed());
    digest.push_back(sim.cross_lp_sends());
    for (const auto& log : logs) {
      digest.insert(digest.end(), log.begin(), log.end());
    }
    return digest;
  };
  std::vector<uint64_t> base = run(1);
  EXPECT_FALSE(base.empty());
  EXPECT_EQ(base, run(2));
  EXPECT_EQ(base, run(8));
}

TEST(RngTest, UniformBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(2);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(3);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(10.0);
  }
  EXPECT_NEAR(sum / n, 10.0, 0.4);
}

TEST(RngTest, LogNormalMedian) {
  Rng rng(4);
  std::vector<double> samples;
  const int n = 20001;
  samples.reserve(n);
  for (int i = 0; i < n; ++i) {
    samples.push_back(rng.LogNormal(50.0, 0.5));
  }
  std::nth_element(samples.begin(), samples.begin() + n / 2, samples.end());
  EXPECT_NEAR(samples[n / 2], 50.0, 3.0);
}

TEST(RngTest, ParetoIsBoundedBelow) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.Pareto(7.0, 1.2), 7.0);
  }
}

TEST(RngTest, ZipfRanksAreSkewed) {
  Rng rng(6);
  const int64_t n = 100;
  std::vector<int> counts(static_cast<size_t>(n), 0);
  for (int i = 0; i < 50000; ++i) {
    int64_t r = rng.Zipf(n, 1.1);
    ASSERT_GE(r, 0);
    ASSERT_LT(r, n);
    counts[static_cast<size_t>(r)] += 1;
  }
  // Rank 0 must dominate rank 50 heavily.
  EXPECT_GT(counts[0], counts[50] * 10);
}

TEST(RngTest, PoissonMean) {
  Rng rng(7);
  int64_t total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    total += rng.Poisson(4.0);
  }
  EXPECT_NEAR(static_cast<double>(total) / n, 4.0, 0.15);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(8);
  std::vector<double> weights = {0.0, 9.0, 1.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) {
    size_t idx = rng.WeightedIndex(weights);
    ASSERT_LT(idx, 3u);
    counts[idx] += 1;
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[1], counts[2] * 5);
}

TEST(RngTest, WeightedIndexAllZeroReturnsSize) {
  Rng rng(9);
  std::vector<double> weights = {0.0, 0.0};
  EXPECT_EQ(rng.WeightedIndex(weights), weights.size());
}

TEST(RngTest, ForkProducesIndependentStreams) {
  Rng a(10);
  Rng b = a.Fork(1);
  Rng c = a.Fork(1);
  // Different fork points of the same parent differ.
  EXPECT_NE(b.NextU64(), c.NextU64());
}

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
}

TEST(HistogramTest, MeanMinMax) {
  Histogram h;
  h.Record(10.0);
  h.Record(20.0);
  h.Record(30.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.Mean(), 20.0);
  EXPECT_DOUBLE_EQ(h.min(), 10.0);
  EXPECT_DOUBLE_EQ(h.max(), 30.0);
}

TEST(HistogramTest, QuantileAccuracy) {
  Histogram h;
  for (int i = 1; i <= 10000; ++i) {
    h.Record(static_cast<double>(i));
  }
  // Log-bucketed: ~4% relative error is within spec (2 growth steps).
  EXPECT_NEAR(h.Quantile(0.5), 5000.0, 5000.0 * 0.05);
  EXPECT_NEAR(h.Quantile(0.95), 9500.0, 9500.0 * 0.05);
  EXPECT_NEAR(h.Quantile(0.99), 9900.0, 9900.0 * 0.05);
}

TEST(HistogramTest, CdfAt) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) {
    h.Record(static_cast<double>(i));
  }
  EXPECT_NEAR(h.CdfAt(500.0), 0.5, 0.05);
  EXPECT_DOUBLE_EQ(h.CdfAt(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.CdfAt(2000.0), 1.0);
}

TEST(HistogramTest, Merge) {
  Histogram a;
  Histogram b;
  for (int i = 0; i < 100; ++i) {
    a.Record(10.0);
    b.Record(1000.0);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_NEAR(a.Quantile(0.25), 10.0, 2.0);
  EXPECT_NEAR(a.Quantile(0.75), 1000.0, 100.0);
}

TEST(HistogramTest, RecordNAndReset) {
  Histogram h;
  h.RecordN(5.0, 10);
  EXPECT_EQ(h.count(), 10u);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
}

// ---- histogram invariants (guard the CdfAt fix and future changes) ----

// Values exactly on a bucket boundary (value == growth^k) belong to the
// bucket below; recording and querying boundary values must agree.
TEST(HistogramTest, BoundaryValuesStayConsistent) {
  Histogram h(2.0);  // buckets (1,2], (2,4], (4,8], ...
  h.Record(2.0);
  h.Record(4.0);
  h.Record(8.0);
  EXPECT_EQ(h.count(), 3u);
  // CDF at each recorded boundary covers exactly the values <= it.
  EXPECT_NEAR(h.CdfAt(2.0), 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(h.CdfAt(4.0), 2.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(h.CdfAt(8.0), 1.0);
  // Quantiles stay within the recorded range.
  EXPECT_GE(h.Quantile(0.0), 2.0);
  EXPECT_LE(h.Quantile(1.0), 8.0);
}

TEST(HistogramTest, UnderflowValuesGoToUnderflowBucket) {
  Histogram h;
  h.Record(0.25);
  h.Record(-3.0);
  h.Record(1.0);  // exactly 1.0 is underflow by contract
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), -3.0);
  EXPECT_DOUBLE_EQ(h.max(), 1.0);
  EXPECT_DOUBLE_EQ(h.CdfAt(1.0), 1.0);
  // Quantiles of underflow-only data report min (the best point estimate).
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), -3.0);
}

TEST(HistogramTest, QuantileIsMonotone) {
  Histogram h;
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    h.Record(rng.LogNormal(500.0, 1.2));
  }
  double prev = h.Quantile(0.0);
  for (int i = 1; i <= 100; ++i) {
    double q = h.Quantile(static_cast<double>(i) / 100.0);
    EXPECT_GE(q, prev);
    prev = q;
  }
}

// Merging two histograms must be equivalent to recording all values into
// one histogram (same counts, same quantiles, same CDF).
TEST(HistogramTest, MergeMatchesBulkRecordN) {
  Histogram merged;
  Histogram a;
  Histogram b;
  Histogram bulk;
  Rng rng(12);
  for (int i = 0; i < 400; ++i) {
    double v = rng.LogNormal(80.0, 0.9);
    uint64_t n = static_cast<uint64_t>(rng.UniformInt(1, 4));
    (i % 2 == 0 ? a : b).RecordN(v, n);
    bulk.RecordN(v, n);
  }
  merged.Merge(a);
  merged.Merge(b);
  EXPECT_EQ(merged.count(), bulk.count());
  EXPECT_DOUBLE_EQ(merged.min(), bulk.min());
  EXPECT_DOUBLE_EQ(merged.max(), bulk.max());
  EXPECT_NEAR(merged.sum(), bulk.sum(), 1e-6 * bulk.sum());
  for (double q : {0.01, 0.25, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(merged.Quantile(q), bulk.Quantile(q)) << "q=" << q;
  }
  for (double v : {10.0, 50.0, 80.0, 200.0, 1000.0}) {
    EXPECT_DOUBLE_EQ(merged.CdfAt(v), bulk.CdfAt(v)) << "v=" << v;
  }
}

// CdfAt and Quantile must agree as approximate inverses: CdfAt(Quantile(q))
// stays within one bucket's probability mass of q.
TEST(HistogramTest, CdfQuantileRoundTrip) {
  Histogram h;
  for (int i = 1; i <= 10000; ++i) {
    h.Record(static_cast<double>(i));
  }
  for (double q : {0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}) {
    double cdf = h.CdfAt(h.Quantile(q));
    EXPECT_NEAR(cdf, q, 0.03) << "q=" << q;
  }
}

// The pre-fix CdfAt counted the whole containing bucket: a value at the
// very bottom of a fat bucket reported the bucket's full mass. Pin the
// pro-rated behavior with a distribution concentrated in one bucket.
TEST(HistogramTest, CdfAtProRatesTheContainingBucket) {
  Histogram h(2.0);  // bucket (4,8] will hold everything
  h.RecordN(5.0, 100);
  h.Record(10.0);  // keeps max_ above the probe so the early-out is not hit
  // Probe just above the bucket's lower bound: only a small fraction of the
  // bucket may be counted (the old code reported ~0.99 here).
  double cdf_low = h.CdfAt(4.1);
  EXPECT_LT(cdf_low, 0.10);
  // Probe near the top of the bucket approaches the full bucket mass.
  double cdf_high = h.CdfAt(7.9);
  EXPECT_GT(cdf_high, 0.90);
  EXPECT_LT(cdf_high, 1.0);
}

// ---- timeseries far-future blowup (satellite bugfix) ----

// One stray far-future timestamp used to resize the dense bucket vector to
// `at / bucket_width` entries — gigabytes for an uninitialized SimTime.
// Sparse overflow storage keeps the footprint proportional to the number of
// buckets written.
TEST(MetricsTest, TimeSeriesFarFutureAddStaysBounded) {
  TimeSeries series(Minutes(15));
  series.Add(Minutes(1), 5.0);
  series.Add(Days(365 * 1000), 7.0);  // would have been ~35M dense buckets
  EXPECT_LE(series.AllocatedBuckets(), 2u);
  size_t far = static_cast<size_t>(Days(365 * 1000) / Minutes(15));
  EXPECT_EQ(series.BucketCount(), far + 1);
  EXPECT_DOUBLE_EQ(series.Sum(0), 5.0);
  EXPECT_DOUBLE_EQ(series.Sum(far), 7.0);
  EXPECT_DOUBLE_EQ(series.Sum(far - 1), 0.0);
}

TEST(MetricsTest, TimeSeriesSparseBucketsSupportSampling) {
  TimeSeries series(Minutes(15));
  SimTime far = Days(40000);
  series.Sample(far, 10.0);
  series.Sample(far + Minutes(1), 30.0);
  size_t i = static_cast<size_t>(far / Minutes(15));
  EXPECT_DOUBLE_EQ(series.Mean(i), 20.0);
  EXPECT_DOUBLE_EQ(series.RatePerMinute(i), 40.0 / 15.0);
  EXPECT_LE(series.AllocatedBuckets(), 1u);
}

TEST(MetricsTest, CounterBasics) {
  MetricsRegistry registry;
  registry.GetCounter("a").Increment();
  registry.GetCounter("a").Increment(4);
  EXPECT_EQ(registry.GetCounter("a").value(), 5);
  EXPECT_EQ(registry.FindCounter("missing"), nullptr);
  ASSERT_NE(registry.FindCounter("a"), nullptr);
}

TEST(MetricsTest, SharedByName) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("x");
  Counter& b = registry.GetCounter("x");
  EXPECT_EQ(&a, &b);
}

TEST(MetricsTest, TimeSeriesBucketsAndRates) {
  TimeSeries series(Minutes(15));
  series.Add(Minutes(1), 30.0);
  series.Add(Minutes(14), 30.0);
  series.Add(Minutes(16), 15.0);
  EXPECT_DOUBLE_EQ(series.Sum(0), 60.0);
  EXPECT_DOUBLE_EQ(series.Sum(1), 15.0);
  EXPECT_DOUBLE_EQ(series.RatePerMinute(0), 4.0);
  EXPECT_DOUBLE_EQ(series.RatePerMinute(1), 1.0);
  EXPECT_DOUBLE_EQ(series.Sum(5), 0.0);
}

TEST(MetricsTest, TimeSeriesSampledMean) {
  TimeSeries series(Minutes(15));
  series.Sample(Minutes(0), 10.0);
  series.Sample(Minutes(5), 20.0);
  EXPECT_DOUBLE_EQ(series.Mean(0), 15.0);
  EXPECT_DOUBLE_EQ(series.Mean(3), 0.0);
}

}  // namespace
}  // namespace bladerunner
