// LruMap: an unsynchronized least-recently-used map.
//
// It backs two exact-match caches. The service's result cache maps a
// sample's digest text to its Prediction: a Slurm prolog classifies the
// same few executables over and over, so repeats skip scoring entirely.
// The command handler's extraction cache maps a file identity to its
// extracted features. Each owner guards its map with its own lock.
//
// A capacity of 0 stores nothing (get always misses, put is a no-op).
#pragma once

#include <cstddef>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>

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

}  // namespace fhc::service
