#include "service/lru_cache.hpp"

#include <algorithm>
#include <functional>

namespace fhc::service {

ShardedLruCache::ShardedLruCache(std::size_t capacity, std::size_t shards)
    : capacity_(capacity) {
  if (capacity_ == 0) return;
  shards = std::clamp<std::size_t>(shards, 1, capacity_);
  shards_ = std::vector<Shard>(shards);
  // Distribute slots round-robin so the shard capacities sum to capacity_.
  for (std::size_t s = 0; s < shards; ++s) {
    shards_[s].lru = LruMap<std::string, core::Prediction>(
        capacity_ / shards + (s < capacity_ % shards ? 1 : 0));
  }
}

ShardedLruCache::Shard& ShardedLruCache::shard_of(const std::string& key) {
  return shards_[std::hash<std::string>{}(key) % shards_.size()];
}

std::optional<core::Prediction> ShardedLruCache::get(const std::string& key) {
  if (!enabled()) return std::nullopt;
  Shard& shard = shard_of(key);
  std::lock_guard lock(shard.mutex);
  const core::Prediction* hit = shard.lru.get(key);
  if (hit == nullptr) return std::nullopt;
  return *hit;
}

void ShardedLruCache::put(const std::string& key, const core::Prediction& value) {
  if (!enabled()) return;
  Shard& shard = shard_of(key);
  std::lock_guard lock(shard.mutex);
  shard.lru.put(key, value);
}

void ShardedLruCache::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    shard.lru.clear();
  }
}

std::size_t ShardedLruCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    total += shard.lru.size();
  }
  return total;
}

}  // namespace fhc::service
