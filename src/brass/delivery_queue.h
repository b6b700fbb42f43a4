// Per-stream push pacing: the bounded, conflating delivery queue and the
// PushPacer that releases it.
//
// Deliveries that arrive faster than a stream's push budget wait in a
// ConflatingDeliveryQueue. Entries that carry the same conflation key
// coalesce newest-version-wins — a hot object occupies one pending slot no
// matter how often it updates — and when the queue is full the oldest
// pending delivery is shed. The queue is pure data structure (no simulator
// dependency) so tests can pin its semantics directly. A PushPacer owns a
// stream's push slot, its queue and the one timer that releases the queue;
// the BRASS host (BrassOverloadConfig::min_push_gap) and the POP
// (BrassAppDescriptor::pop_push_gap_us) both pace with it.

#ifndef BLADERUNNER_SRC_BRASS_DELIVERY_QUEUE_H_
#define BLADERUNNER_SRC_BRASS_DELIVERY_QUEUE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/graphql/value.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"
#include "src/trace/collector.h"

namespace bladerunner {

// The object an update event is about: its metadata's "id", or "user" for
// active-status events, which mutate the user object itself.
inline int64_t ObjectIdOf(const Value& metadata) {
  int64_t id = metadata.Get("id").AsInt(0);
  return id != 0 ? id : metadata.Get("user").AsInt(0);
}

// The TAO object version an update event carries (0 when it has none).
inline uint64_t ObjectVersionOf(const Value& metadata) {
  return static_cast<uint64_t>(metadata.Get("version").AsInt(0));
}

// One version of one object of one app: keys the POP's payload cache and its
// in-flight fetches.
struct ObjectVersionKey {
  std::string app;
  int64_t object = 0;
  uint64_t version = 0;
  bool operator<(const ObjectVersionKey& o) const {
    return std::tie(app, object, version) < std::tie(o.app, o.object, o.version);
  }
};

// Options for one BrassRuntime::DeliverData push (mirrors FetchOptions).
struct DeliverOptions {
  // Delta sequence number (reliable-delivery apps; 0 for fire-and-forget).
  uint64_t seq = 0;
  // Update-event creation time; feeds the Fig. 9 end-to-end latency sample.
  SimTime event_created_at = 0;
  // When valid, nests the "burst.deliver" span under this parent.
  TraceContext parent;
  // Conflation: queued deliveries on one stream with the same non-empty key
  // coalesce newest-version-wins while waiting for a push slot. Empty key
  // never conflates. Only honoured for apps whose descriptor is marked
  // conflatable.
  std::string conflation_key;
  // Orders deliveries within one conflation key: the TAO object version
  // when the key names one object, the event creation time otherwise.
  uint64_t version = 0;
};

// Writes the stamps a device reads off every pushed payload: the update's
// creation time (when known; Fig. 9's end-to-end leg), the push time, and
// the app. Every push toward a device stamps through here, whether the
// host or the POP sends it.
inline void StampForDevice(Value& payload, const std::string& app, SimTime created_at,
                           SimTime sent_at) {
  if (created_at > 0) {
    payload.Set("_createdAt", created_at);
  }
  payload.Set("_sentAt", sent_at);
  payload.Set("_app", app);
}

struct PendingDelivery {
  Value payload;
  DeliverOptions options;
};

class ConflatingDeliveryQueue {
 public:
  enum class Outcome {
    kQueued,     // appended to the queue
    kConflated,  // coalesced with a pending entry carrying the same key
    kShed,       // appended after shedding the oldest pending delivery
  };

  ConflatingDeliveryQueue() = default;
  // A moved-from queue is empty.
  ConflatingDeliveryQueue(ConflatingDeliveryQueue&& other) noexcept { *this = std::move(other); }
  ConflatingDeliveryQueue& operator=(ConflatingDeliveryQueue&& other) noexcept {
    if (this != &other) {
      slots_ = std::move(other.slots_);
      head_ = other.head_;
      size_ = other.size_;
      other.Clear();
    }
    return *this;
  }

  struct OfferResult {
    Outcome outcome = Outcome::kQueued;
    // The delivery displaced by a shed (meaningful only for kShed); the
    // host records the "brass.shed" span against its trace.
    PendingDelivery shed;
  };

  // Offers one delivery. `conflatable` gates key matching (the app's
  // descriptor); `bound` is the maximum queue length (>= 1).
  OfferResult Offer(Value payload, const DeliverOptions& options, bool conflatable,
                    size_t bound) {
    OfferResult result;
    if (conflatable && !options.conflation_key.empty()) {
      for (size_t i = 0; i < size_; ++i) {
        PendingDelivery& pending = At(i);
        if (pending.options.conflation_key != options.conflation_key) {
          continue;
        }
        // Newest version wins; the entry keeps its queue position so a
        // frequently updated object is not starved behind later arrivals.
        if (options.version >= pending.options.version) {
          pending.payload = std::move(payload);
          pending.options = options;
        }
        result.outcome = Outcome::kConflated;
        return result;
      }
    }
    if (size_ >= bound && size_ > 0) {
      result.outcome = Outcome::kShed;
      result.shed = PopFront();
    }
    if (size_ == slots_.size()) {
      Grow();
    }
    At(size_++) = PendingDelivery{std::move(payload), options};
    return result;
  }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  // Whether a pending delivery carries this (non-empty) conflation key at
  // exactly this version.
  bool Holds(const std::string& conflation_key, uint64_t version) const {
    if (conflation_key.empty()) {
      return false;
    }
    for (size_t i = 0; i < size_; ++i) {
      const PendingDelivery& pending = At(i);
      if (pending.options.version == version && pending.options.conflation_key == conflation_key) {
        return true;
      }
    }
    return false;
  }

  PendingDelivery PopFront() {
    PendingDelivery front = std::move(slots_[head_]);
    head_ = (head_ + 1) & (slots_.size() - 1);
    if (--size_ == 0) {
      Clear();
    }
    return front;
  }

  // Empties the queue and frees its storage.
  void Clear() {
    std::vector<PendingDelivery>().swap(slots_);
    head_ = 0;
    size_ = 0;
  }

 private:
  // The i-th pending delivery, oldest first.
  PendingDelivery& At(size_t i) { return slots_[(head_ + i) & (slots_.size() - 1)]; }
  const PendingDelivery& At(size_t i) const { return slots_[(head_ + i) & (slots_.size() - 1)]; }

  // Doubles the ring (from nothing to one slot), keeping the order.
  void Grow() {
    std::vector<PendingDelivery> grown(std::max<size_t>(1, 2 * slots_.size()));
    for (size_t i = 0; i < size_; ++i) {
      grown[i] = std::move(At(i));
    }
    slots_ = std::move(grown);
    head_ = 0;
  }

  // A ring of power-of-two size holding the pending deliveries from
  // slots_[head_]. It is allocated when a delivery first waits and freed
  // when the last one leaves: most streams never queue, and a stream that
  // did holds no storage once it drains.
  std::vector<PendingDelivery> slots_;
  size_t head_ = 0;
  size_t size_ = 0;
};

// One stream's push pacing: at most one push per `gap`. A delivery that
// finds the slot taken (or others already waiting) goes into the queue,
// and one timer releases the queue's front each time the slot frees. With
// a gap of 0 the slot is always free and nothing ever waits.
//
// The timer is cancelled when the pacer is destroyed or assigned over, so
// a release never outlives the stream it paces. A pacer with its timer
// armed must not be moved from.
class PushPacer {
 public:
  // Pushes one released delivery. It must not destroy the pacer.
  using Release = std::function<void(PendingDelivery)>;

  PushPacer() = default;
  PushPacer(SimContext ctx, SimTime gap, Release release)
      : ctx_(ctx), gap_(gap), release_(std::move(release)) {}
  PushPacer(PushPacer&& other) noexcept { *this = std::move(other); }
  PushPacer& operator=(PushPacer&& other) noexcept {
    assert(other.timer_ == kInvalidTimerId && "an armed release is bound to its pacer");
    CancelRelease();
    ctx_ = other.ctx_;
    gap_ = other.gap_;
    release_ = std::move(other.release_);
    queue_ = std::move(other.queue_);
    next_push_at_ = other.next_push_at_;
    return *this;
  }
  ~PushPacer() { CancelRelease(); }

  // Takes the push slot if it is free and no delivery waits for it; the
  // caller then pushes at once.
  bool TakeSlot() {
    const SimTime now = ctx_.Now();
    if (!queue_.empty() || now < next_push_at_) {
      return false;
    }
    next_push_at_ = now + gap_;
    return true;
  }

  // The deliveries waiting for the slot. After offering one, call
  // ScheduleRelease; a cleared queue leaves an armed release nothing to do.
  ConflatingDeliveryQueue& queue() { return queue_; }
  const ConflatingDeliveryQueue& queue() const { return queue_; }

  // Arms the release for when the slot frees, unless it is armed already
  // or nothing waits.
  void ScheduleRelease() {
    if (timer_ != kInvalidTimerId || queue_.empty()) {
      return;
    }
    timer_ = ctx_.Schedule(std::max<SimTime>(next_push_at_ - ctx_.Now(), 1), [this]() {
      timer_ = kInvalidTimerId;
      if (queue_.empty()) {
        return;
      }
      PendingDelivery next = queue_.PopFront();
      next_push_at_ = ctx_.Now() + gap_;
      release_(std::move(next));
      ScheduleRelease();
    });
  }

 private:
  void CancelRelease() {
    if (timer_ != kInvalidTimerId) {
      ctx_.Cancel(timer_);
      timer_ = kInvalidTimerId;
    }
  }

  SimContext ctx_;
  SimTime gap_ = 0;
  Release release_;
  ConflatingDeliveryQueue queue_;
  SimTime next_push_at_ = 0;  // the slot frees at this time
  TimerId timer_ = kInvalidTimerId;
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_BRASS_DELIVERY_QUEUE_H_
