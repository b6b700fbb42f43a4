#include "src/burst/pop_cache.h"

namespace bladerunner {

size_t PopPayloadCache::ObserveVersion(const std::string& app, int64_t object,
                                       uint64_t version) {
  uint64_t& watermark = observed_[{app, object}];
  if (version <= watermark) {
    return 0;
  }
  watermark = version;
  // Drop every cached entry for an older version of this object. Entries
  // for the object are contiguous in the index (version is the last key
  // component), so one range scan finds them all.
  size_t dropped = 0;
  auto it = index_.lower_bound(ObjectVersionKey{app, object, 0});
  while (it != index_.end() && it->first.app == app && it->first.object == object) {
    if (it->first.version < version) {
      lru_.erase(it->second);
      it = index_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  version_invalidations_ += dropped;
  return dropped;
}

bool PopPayloadCache::Put(const std::string& app, int64_t object, uint64_t version,
                          Value payload,
                          const std::vector<std::pair<int64_t, bool>>& decisions) {
  if (capacity_ == 0) {
    return false;
  }
  uint64_t& watermark = observed_[{app, object}];
  if (version < watermark) {
    // Stale fill: a newer version was observed while this one crossed the
    // backbone. Its waiters are served, but it must never be cached.
    ++stale_rejects_;
    return false;
  }
  watermark = version;
  ObjectVersionKey key{app, object, version};
  auto existing = index_.find(key);
  if (existing != index_.end()) {
    // Already cached (e.g. two coalescing windows raced); merge decisions.
    for (const auto& [viewer, allowed] : decisions) {
      existing->second->entry.decisions[viewer] = allowed;
    }
    lru_.splice(lru_.begin(), lru_, existing->second);
    return true;
  }
  Slot slot;
  slot.key = key;
  slot.entry.payload = std::move(payload);
  for (const auto& [viewer, allowed] : decisions) {
    slot.entry.decisions[viewer] = allowed;
  }
  lru_.push_front(std::move(slot));
  index_[key] = lru_.begin();
  if (index_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++lru_evictions_;
  }
  return true;
}

const PopPayloadCache::Entry* PopPayloadCache::Get(const std::string& app, int64_t object,
                                                   uint64_t version) {
  auto it = index_.find(ObjectVersionKey{app, object, version});
  if (it == index_.end()) {
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  return &it->second->entry;
}

const PopPayloadCache::Entry* PopPayloadCache::Peek(const std::string& app, int64_t object,
                                                    uint64_t version) const {
  auto it = index_.find(ObjectVersionKey{app, object, version});
  return it == index_.end() ? nullptr : &it->second->entry;
}

}  // namespace bladerunner
