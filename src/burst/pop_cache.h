// Bounded POP-local payload cache keyed by the versioned-object scheme the
// fetch pipeline uses regionally (src/brass/fetch_pipeline.h): an entry is
// (app, object id, object version) -> payload + per-viewer privacy
// decisions. A celebrity-post flash crowd then fans one payload out of the
// region once per POP instead of once per stream.
//
// The cache mirrors the fetch pipeline's stale-read rule: the POP observes
// object versions on every forwarded event envelope (ObserveVersion), and a
// fill that arrives for an older version than the newest observed is handed
// to its waiters — a stale follower read is still a valid read — but never
// cached, so no later stream can be served the superseded payload.
//
// Pure data structure (no simulator dependency) so tests can pin the
// invalidation semantics directly, like ConflatingDeliveryQueue.

#ifndef BLADERUNNER_SRC_BURST_POP_CACHE_H_
#define BLADERUNNER_SRC_BURST_POP_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/brass/delivery_queue.h"
#include "src/graphql/value.h"

namespace bladerunner {

class PopPayloadCache {
 public:
  struct Entry {
    Value payload;
    std::map<int64_t, bool> decisions;  // viewer -> allowed (privacy, regional)
  };

  explicit PopPayloadCache(size_t capacity) : capacity_(capacity) {}

  // Records that `version` of (app, object) exists — called for every
  // forwarded event envelope, mirroring FetchPipeline::ObserveEvent — and
  // drops any cached entry for an older version. Returns entries dropped.
  size_t ObserveVersion(const std::string& app, int64_t object, uint64_t version);

  // Inserts a fill. Returns false — and caches nothing — when the fill is
  // already superseded (version < newest observed for the object) or the
  // cache is disabled (capacity 0). A successful insert also advances the
  // observed-version watermark and may LRU-evict the oldest entry.
  bool Put(const std::string& app, int64_t object, uint64_t version, Value payload,
           const std::vector<std::pair<int64_t, bool>>& decisions);

  // nullptr on miss; a hit refreshes the entry's LRU position. The pointer
  // is invalidated by any subsequent non-const call.
  const Entry* Get(const std::string& app, int64_t object, uint64_t version);
  // Get without the LRU refresh, for inspection.
  const Entry* Peek(const std::string& app, int64_t object, uint64_t version) const;

  size_t size() const { return index_.size(); }
  uint64_t lru_evictions() const { return lru_evictions_; }
  uint64_t version_invalidations() const { return version_invalidations_; }
  uint64_t stale_rejects() const { return stale_rejects_; }

 private:
  struct Slot {
    ObjectVersionKey key;
    Entry entry;
  };
  using LruList = std::list<Slot>;

  LruList lru_;  // front = most recently used
  std::map<ObjectVersionKey, LruList::iterator> index_;
  // Newest version seen per (app, object) — via envelope or fill.
  std::map<std::pair<std::string, int64_t>, uint64_t> observed_;
  size_t capacity_;
  uint64_t lru_evictions_ = 0;
  uint64_t version_invalidations_ = 0;
  uint64_t stale_rejects_ = 0;
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_BURST_POP_CACHE_H_
