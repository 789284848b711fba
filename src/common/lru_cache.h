#ifndef STMAKER_COMMON_LRU_CACHE_H_
#define STMAKER_COMMON_LRU_CACHE_H_

/// \file
/// Bounded LRU cache template and its CacheStats effectiveness counters.

#include <cstddef>
#include <cstdio>
#include <functional>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/check.h"

namespace stmaker {

/// \brief Effectiveness counters for one cache: lookups that hit, lookups
/// that missed, and entries evicted to make room. Monotonic over the
/// cache's lifetime.
struct CacheStats {
  size_t hits = 0;
  size_t misses = 0;
  size_t evictions = 0;

  size_t lookups() const { return hits + misses; }
  double HitRate() const {
    return lookups() == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(lookups());
  }

  /// "1234 hits / 56 misses (95.7% hit rate), 7 evictions" — the line
  /// serve mode prints per cache on shutdown.
  std::string ToString() const {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "%zu hits / %zu misses (%.1f%% hit rate), %zu evictions",
                  hits, misses, HitRate() * 100.0, evictions);
    return buf;
  }
};

/// \brief A bounded least-recently-used cache.
///
/// Capacity is fixed at construction; inserting past capacity evicts the
/// least recently touched entry. Both Get() and Put() count as a touch.
/// Keys need operator== and a Hash functor (std::hash by default).
///
/// Not internally synchronized: callers that share a cache across threads
/// must hold their own mutex around every call (see the PopularRouteMiner
/// query cache and the Calibrator's cache for the locking idiom). Since
/// caches only memoize deterministic computations, their presence never
/// changes results — only latency.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache {
 public:
  explicit LruCache(size_t capacity) : capacity_(capacity) {
    STMAKER_CHECK(capacity > 0);
  }

  size_t size() const { return index_.size(); }
  size_t capacity() const { return capacity_; }
  size_t hits() const { return hits_; }
  size_t misses() const { return misses_; }
  size_t evictions() const { return evictions_; }

  /// Snapshot of the hit/miss/eviction counters.
  CacheStats stats() const { return CacheStats{hits_, misses_, evictions_}; }

  /// Pointer to the cached value (valid until the next non-const call), or
  /// nullptr on miss. A hit refreshes the entry's recency.
  const Value* Get(const Key& key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  /// Inserts or overwrites; refreshes recency; evicts the LRU entry when
  /// over capacity.
  void Put(const Key& key, Value value) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    order_.emplace_front(key, std::move(value));
    index_[key] = order_.begin();
    if (index_.size() > capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
      ++evictions_;
    }
  }

 private:
  size_t capacity_;
  size_t hits_ = 0;
  size_t misses_ = 0;
  size_t evictions_ = 0;
  std::list<std::pair<Key, Value>> order_;  // front = most recent
  std::unordered_map<Key, typename std::list<std::pair<Key, Value>>::iterator,
                     Hash>
      index_;
};

}  // namespace stmaker

#endif  // STMAKER_COMMON_LRU_CACHE_H_
