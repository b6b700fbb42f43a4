// Bounded, conflating per-stream delivery queue.
//
// When push pacing is on (BrassOverloadConfig::min_push_gap > 0), deliveries
// that arrive faster than the stream's push budget wait here. Entries that
// carry the same conflation key coalesce newest-version-wins — a hot object
// occupies one pending slot no matter how often it updates — and when the
// queue is full the oldest pending delivery is shed. The queue is pure data
// structure (no simulator dependency) so tests can pin its semantics
// directly.

#ifndef BLADERUNNER_SRC_BRASS_DELIVERY_QUEUE_H_
#define BLADERUNNER_SRC_BRASS_DELIVERY_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <tuple>
#include <utility>

#include "src/graphql/value.h"
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
      for (PendingDelivery& pending : entries_) {
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
    if (entries_.size() >= bound && !entries_.empty()) {
      result.outcome = Outcome::kShed;
      result.shed = std::move(entries_.front());
      entries_.pop_front();
    }
    entries_.push_back(PendingDelivery{std::move(payload), options});
    return result;
  }

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }

  // Whether a pending delivery carries this (non-empty) conflation key at
  // exactly this version.
  bool Holds(const std::string& conflation_key, uint64_t version) const {
    return !conflation_key.empty() &&
           std::any_of(entries_.begin(), entries_.end(), [&](const PendingDelivery& pending) {
             return pending.options.version == version &&
                    pending.options.conflation_key == conflation_key;
           });
  }

  PendingDelivery PopFront() {
    PendingDelivery front = std::move(entries_.front());
    entries_.pop_front();
    return front;
  }

  void Clear() { entries_.clear(); }

 private:
  std::deque<PendingDelivery> entries_;
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_BRASS_DELIVERY_QUEUE_H_
