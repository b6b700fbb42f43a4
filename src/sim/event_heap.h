// The event store of each logical process (src/sim/simulator.h): an
// explicit 4-ary min-heap ordered by (time, seq) plus a generation-tagged
// slot table (docs/PERF.md).
//
// Every sift moves elements instead of copying them, Cancel() is an O(1)
// flag flip whose tombstone is dropped when it surfaces, and slots are
// recycled only when their heap node surfaces, so a live TimerId can never
// alias a recycled slot.
//
// TimerId layout: LP tag in the high 12 bits (hence kMaxLps, src/sim/lp.h),
// slot index in the next 26, generation in the low 26. Generations start at
// 1 and skip 0 on wrap, so no valid id ever equals kInvalidTimerId.

#ifndef BLADERUNNER_SRC_SIM_EVENT_HEAP_H_
#define BLADERUNNER_SRC_SIM_EVENT_HEAP_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/sim/time.h"

namespace bladerunner {

using TimerId = uint64_t;

constexpr TimerId kInvalidTimerId = 0;

namespace sim_internal {

constexpr int kTimerSlotBits = 26;
constexpr int kTimerGenerationBits = 26;
constexpr uint32_t kTimerSlotMask = (1u << kTimerSlotBits) - 1;
constexpr uint32_t kTimerGenerationMask = (1u << kTimerGenerationBits) - 1;

inline TimerId MakeTimerId(uint32_t lp_tag, uint32_t slot, uint32_t generation) {
  return (static_cast<TimerId>(lp_tag) << (kTimerSlotBits + kTimerGenerationBits)) |
         (static_cast<TimerId>(slot) << kTimerGenerationBits) |
         static_cast<TimerId>(generation);
}

inline uint32_t TimerLpTag(TimerId id) {
  return static_cast<uint32_t>(id >> (kTimerSlotBits + kTimerGenerationBits));
}

inline uint32_t TimerSlot(TimerId id) {
  return static_cast<uint32_t>(id >> kTimerGenerationBits) & kTimerSlotMask;
}

inline uint32_t TimerGeneration(TimerId id) {
  return static_cast<uint32_t>(id) & kTimerGenerationMask;
}

class EventHeap {
 public:
  struct Event {
    SimTime at;
    uint64_t seq;   // tie-break so same-time events run in scheduling order
    uint32_t slot;  // index into slots_
    std::function<void()> fn;
  };

  // `lp_tag` is baked into every TimerId this heap hands out, so Cancel()
  // of an id can be routed back to the owning LP's heap.
  explicit EventHeap(uint32_t lp_tag = 0) : lp_tag_(lp_tag) {}

  // Inserts an event; returns its cancellation handle.
  TimerId Push(SimTime at, std::function<void()> fn) {
    uint32_t slot = AllocSlot();
    Slot& s = slots_[slot];
    s.live = true;
    heap_.push_back(Event{at, next_seq_++, slot, std::move(fn)});
    SiftUp(heap_.size() - 1);
    ++live_events_;
    return MakeTimerId(lp_tag_, slot, s.generation);
  }

  // O(1) cancel: flips the live flag; the heap node becomes a tombstone
  // dropped (and its slot recycled) when it surfaces at the top. Returns
  // false for already-fired, already-cancelled, or foreign ids.
  bool Cancel(TimerId id) {
    uint32_t slot = TimerSlot(id);
    if (TimerLpTag(id) != lp_tag_ || slot >= slots_.size()) {
      return false;
    }
    Slot& s = slots_[slot];
    if (!s.live || s.generation != TimerGeneration(id)) {
      return false;
    }
    s.live = false;
    --live_events_;
    return true;
  }

  // Drops cancelled events sitting at the head so that Top() is always a
  // live event (or null).
  void PurgeCancelledTop() {
    while (!heap_.empty() && !slots_[heap_.front().slot].live) {
      Event dead = PopTop();
      FreeSlot(dead.slot);
    }
  }

  // The minimum live event after PurgeCancelledTop(), or nullptr if empty.
  const Event* Top() const { return heap_.empty() ? nullptr : &heap_.front(); }

  // Removes and returns the minimum event (live or tombstone) by move and
  // recycles its slot.
  Event PopEvent() {
    Event ev = PopTop();
    FreeSlot(ev.slot);
    return ev;
  }

  size_t live_events() const { return live_events_; }
  void NoteExecuted() { --live_events_; }

 private:
  // Side table entry for one scheduled event. A slot stays allocated until
  // its heap node surfaces (even after Cancel), so a live TimerId can never
  // alias a recycled slot; the generation makes stale ids detectably dead.
  struct Slot {
    uint32_t generation = 1;
    uint32_t next_free = 0;  // free-list link, valid when not live
    bool live = false;       // scheduled and not cancelled
  };

  static constexpr uint32_t kNoSlot = 0xffffffffu;
  static constexpr size_t kHeapArity = 4;

  // Strict (time, seq) priority order; `seq` is unique, so this is total.
  static bool Before(const Event& a, const Event& b) {
    if (a.at != b.at) {
      return a.at < b.at;
    }
    return a.seq < b.seq;
  }

  uint32_t AllocSlot() {
    if (free_head_ != kNoSlot) {
      uint32_t slot = free_head_;
      free_head_ = slots_[slot].next_free;
      return slot;
    }
    assert(slots_.size() < kTimerSlotMask);
    slots_.push_back(Slot{});
    return static_cast<uint32_t>(slots_.size() - 1);
  }

  void FreeSlot(uint32_t slot) {
    Slot& s = slots_[slot];
    s.live = false;
    s.generation = (s.generation + 1) & kTimerGenerationMask;
    if (s.generation == 0) {
      s.generation = 1;
    }
    s.next_free = free_head_;
    free_head_ = slot;
  }

  // Moves heap_[i] up to its position; all shifts are moves, no copies.
  void SiftUp(size_t i) {
    Event ev = std::move(heap_[i]);
    while (i > 0) {
      size_t parent = (i - 1) / kHeapArity;
      if (!Before(ev, heap_[parent])) {
        break;
      }
      heap_[i] = std::move(heap_[parent]);
      i = parent;
    }
    heap_[i] = std::move(ev);
  }

  // Removes and returns the minimum element by move.
  Event PopTop() {
    Event top = std::move(heap_.front());
    Event last = std::move(heap_.back());
    heap_.pop_back();
    size_t n = heap_.size();
    if (n > 0) {
      // Sift `last` down from the root; shifts are moves, never copies.
      size_t i = 0;
      for (;;) {
        size_t first_child = kHeapArity * i + 1;
        if (first_child >= n) {
          break;
        }
        size_t best = first_child;
        size_t end = first_child + kHeapArity;
        if (end > n) {
          end = n;
        }
        for (size_t c = first_child + 1; c < end; ++c) {
          if (Before(heap_[c], heap_[best])) {
            best = c;
          }
        }
        if (!Before(heap_[best], last)) {
          break;
        }
        heap_[i] = std::move(heap_[best]);
        i = best;
      }
      heap_[i] = std::move(last);
    }
    return top;
  }

  uint32_t lp_tag_;
  uint64_t next_seq_ = 1;
  size_t live_events_ = 0;
  std::vector<Event> heap_;
  std::vector<Slot> slots_;
  uint32_t free_head_ = kNoSlot;
};

}  // namespace sim_internal
}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_SIM_EVENT_HEAP_H_
