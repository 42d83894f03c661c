// LRU maps: LruMap, the one unsynchronized least-recently-used map, and
// ShardedLruCache, the service's result cache built from it.
//
// ShardedLruCache caches Predictions keyed by the sample's digest text.
//
// The service's repeat-binary fast path: a Slurm prolog classifies the
// same few executables over and over, so a small cache keyed by the exact
// fuzzy-hash text skips scoring entirely for repeats. Sharding by key hash
// keeps submit()-side lookups from serializing behind one mutex under
// concurrent clients; each shard is an independent LRU with its own lock.
//
// A capacity of 0 disables the cache (get always misses, put is a no-op),
// which the benches use to isolate the batching/sharding win from the
// caching win.
#pragma once

#include <cstddef>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/classifier.hpp"

namespace fhc::service {

/// At most `capacity` entries; inserting into a full map evicts the
/// least-recently-used one. Not synchronized: callers hold their own
/// lock. A capacity of 0 stores nothing.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruMap {
 public:
  explicit LruMap(std::size_t capacity = 0) : capacity_(capacity) {}

  /// The value for `key`, refreshed to most recently used, or nullptr.
  /// The pointer is valid until the next put() or clear().
  const Value* get(const Key& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  /// Inserts or refreshes `key`, evicting the least-recently-used entry
  /// when the map is full.
  void put(const Key& key, Value value) {
    if (capacity_ == 0) return;
    const auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    if (order_.size() >= capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
    }
    order_.emplace_front(key, std::move(value));
    index_.emplace(order_.front().first, order_.begin());
  }

  void clear() {
    index_.clear();
    order_.clear();
  }

  std::size_t size() const noexcept { return order_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }

 private:
  using Entry = std::pair<Key, Value>;
  // Front = most recently used. List nodes are stable across splice, so
  // each index key refers to its own node's key (a ~300-byte digest key
  // is stored once); a key leaves the index before its node dies.
  std::list<Entry> order_;
  std::unordered_map<std::reference_wrapper<const Key>, typename std::list<Entry>::iterator,
                     Hash, std::equal_to<Key>>
      index_;
  std::size_t capacity_ = 0;
};

class ShardedLruCache {
 public:
  /// `capacity` entries total, spread over `shards` independent LRUs
  /// (each gets at least one slot; shard count is clamped to capacity).
  explicit ShardedLruCache(std::size_t capacity, std::size_t shards = 8);

  ShardedLruCache(const ShardedLruCache&) = delete;
  ShardedLruCache& operator=(const ShardedLruCache&) = delete;

  /// Returns the cached prediction and refreshes its recency, or nullopt.
  std::optional<core::Prediction> get(const std::string& key);

  /// Inserts or refreshes `key`, evicting the shard's least-recently-used
  /// entry when the shard is full.
  void put(const std::string& key, const core::Prediction& value);

  /// Drops every entry (model reload: cached results are stale).
  void clear();

  std::size_t size() const;
  std::size_t capacity() const noexcept { return capacity_; }
  bool enabled() const noexcept { return capacity_ > 0; }

 private:
  struct Shard {
    mutable std::mutex mutex;
    LruMap<std::string, core::Prediction> lru;
  };

  Shard& shard_of(const std::string& key);

  std::size_t capacity_ = 0;
  std::vector<Shard> shards_;
};

}  // namespace fhc::service
