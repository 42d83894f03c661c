// Sharded LRU cache of Predictions keyed by the sample's digest text.
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
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/classifier.hpp"

namespace fhc::service {

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
    using Entry = std::pair<std::string, core::Prediction>;
    mutable std::mutex mutex;
    // Front = most recently used. The map owns iterator handles into the
    // list; list nodes are stable across splice so refresh never rehashes.
    // Each map key views its own node's string, so a ~300-byte digest key
    // is stored once; a key is erased from the map before its node dies.
    std::list<Entry> order;
    std::unordered_map<std::string_view, std::list<Entry>::iterator> index;
    std::size_t capacity = 0;
  };

  Shard& shard_of(const std::string& key);

  std::size_t capacity_ = 0;
  std::vector<Shard> shards_;
};

}  // namespace fhc::service
