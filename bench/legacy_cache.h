// legacy_cache.h — the pre-flat-index cache::LruStore, kept VERBATIM as an
// in-process twin. NOT production code.
//
// When the production store's std::unordered_map<string_view, ItemHeader*>
// index was replaced by the flat open-addressing table (src/cache/
// flat_index.h, DESIGN.md §4j), this header preserved the old
// implementation so the rewrite could be *proven*, not eyeballed:
//
//   * tests/cache/test_flat_index_twin.cpp drives both stores through
//     identical randomized set/set_sized/get/remove/TTL-expiry/flush
//     sequences and requires every return value and the full StoreStats
//     (including resident_bytes) to match sample-for-sample.
//
// The only edits relative to the pre-rewrite src/cache/lru_store.{h,cpp}
// are (a) the namespace, (b) the same resident_bytes accounting and
// remove(key, hash) overload the production store gained in the same PR —
// both are index-agnostic bookkeeping, added here so the twin exposes the
// identical API surface the equivalence test compares. The index itself —
// the thing under test — is untouched std::unordered_map.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cache/lru_store.h"  // cache::StoreStats — shared so stats compare
#include "cache/slab_allocator.h"
#include "hashing/hashes.h"

namespace mclat::bench::legacy_cache {

class LruStore {
 public:
  explicit LruStore(const cache::SlabAllocator::Config& cfg = {})
      : slabs_(cfg), lru_(slabs_.num_classes()) {}

  LruStore(const LruStore&) = delete;
  LruStore& operator=(const LruStore&) = delete;
  ~LruStore() { flush(); }

  bool set(std::string_view key, std::string_view value, double now = 0.0,
           double ttl = 0.0) {
    ItemHeader* item =
        emplace_item(key, hashing::fnv1a64(key), value.size(), now, ttl);
    if (item == nullptr) return false;
    std::memcpy(item->value_data(), value.data(), value.size());
    return true;
  }

  bool set_sized(std::string_view key, std::size_t value_bytes,
                 double now = 0.0, double ttl = 0.0) {
    return set_sized_hashed(key, hashing::fnv1a64(key), value_bytes, now, ttl);
  }

  bool set_sized_hashed(std::string_view key, std::uint64_t key_hash,
                        std::size_t value_bytes, double now = 0.0,
                        double ttl = 0.0) {
    ItemHeader* item = emplace_item(key, key_hash, value_bytes, now, ttl);
    if (item == nullptr) return false;
    std::memset(item->value_data(), 'v', value_bytes);
    return true;
  }

  [[nodiscard]] std::optional<std::string_view> get(std::string_view key,
                                                    double now = 0.0) {
    return get(key, hashing::fnv1a64(key), now);
  }

  [[nodiscard]] std::optional<std::string_view> get(std::string_view key,
                                                    std::uint64_t key_hash,
                                                    double now) {
    ++stats_.gets;
    const auto it = index_.find(Prehashed{key, key_hash});
    if (it == index_.end()) {
      ++stats_.misses;
      return std::nullopt;
    }
    ItemHeader* item = it->second;
    if (item->expired(now)) {
      destroy(item);
      ++stats_.expirations;
      ++stats_.misses;
      return std::nullopt;
    }
    const std::size_t cls = cache::SlabAllocator::class_of(item);
    lru_unlink(item, cls);
    lru_push_front(item, cls);
    ++stats_.hits;
    return item->value();
  }

  [[nodiscard]] bool contains(std::string_view key, double now = 0.0) const {
    return contains(key, hashing::fnv1a64(key), now);
  }

  [[nodiscard]] bool contains(std::string_view key, std::uint64_t key_hash,
                              double now) const {
    const auto it = index_.find(Prehashed{key, key_hash});
    return it != index_.end() && !it->second->expired(now);
  }

  bool remove(std::string_view key) {
    return remove(key, hashing::fnv1a64(key));
  }

  bool remove(std::string_view key, std::uint64_t key_hash) {
    const auto it = index_.find(Prehashed{key, key_hash});
    if (it == index_.end()) return false;
    destroy(it->second);
    ++stats_.deletes;
    return true;
  }

  void flush() {
    for (std::size_t cls = 0; cls < lru_.size(); ++cls) {
      while (lru_[cls].tail != nullptr) destroy(lru_[cls].tail);
    }
    index_.clear();
  }

  [[nodiscard]] std::size_t size() const noexcept { return index_.size(); }
  [[nodiscard]] const cache::StoreStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] const cache::SlabAllocator& allocator() const noexcept {
    return slabs_;
  }
  void reset_stats() noexcept {
    const std::uint64_t resident = stats_.resident_bytes;
    stats_ = cache::StoreStats{};
    stats_.resident_bytes = resident;
  }

 private:
  struct ItemHeader {
    ItemHeader* lru_prev;
    ItemHeader* lru_next;
    double expiry;  // absolute time; 0 = never
    std::uint32_t key_len;
    std::uint32_t value_len;

    [[nodiscard]] char* key_data() noexcept {
      return reinterpret_cast<char*>(this + 1);
    }
    [[nodiscard]] const char* key_data() const noexcept {
      return reinterpret_cast<const char*>(this + 1);
    }
    [[nodiscard]] char* value_data() noexcept { return key_data() + key_len; }
    [[nodiscard]] std::string_view key() const noexcept {
      return {key_data(), key_len};
    }
    [[nodiscard]] std::string_view value() const noexcept {
      return {key_data() + key_len, value_len};
    }
    [[nodiscard]] bool expired(double now) const noexcept {
      return expiry > 0.0 && now >= expiry;
    }
  };

  struct LruList {
    ItemHeader* head = nullptr;  // MRU
    ItemHeader* tail = nullptr;  // LRU
  };

  struct Prehashed {
    std::string_view key;
    std::uint64_t hash;
  };
  struct KeyHasher {
    using is_transparent = void;
    [[nodiscard]] std::size_t operator()(std::string_view k) const noexcept {
      return static_cast<std::size_t>(hashing::fnv1a64(k));
    }
    [[nodiscard]] std::size_t operator()(const Prehashed& k) const noexcept {
      return static_cast<std::size_t>(k.hash);
    }
  };
  struct KeyEqual {
    using is_transparent = void;
    [[nodiscard]] bool operator()(std::string_view a,
                                  std::string_view b) const noexcept {
      return a == b;
    }
    [[nodiscard]] bool operator()(const Prehashed& a,
                                  std::string_view b) const noexcept {
      return a.key == b;
    }
    [[nodiscard]] bool operator()(std::string_view a,
                                  const Prehashed& b) const noexcept {
      return a == b.key;
    }
  };

  void lru_unlink(ItemHeader* it, std::size_t cls) noexcept {
    LruList& l = lru_[cls];
    if (it->lru_prev) it->lru_prev->lru_next = it->lru_next;
    if (it->lru_next) it->lru_next->lru_prev = it->lru_prev;
    if (l.head == it) l.head = it->lru_next;
    if (l.tail == it) l.tail = it->lru_prev;
    it->lru_prev = nullptr;
    it->lru_next = nullptr;
  }

  void lru_push_front(ItemHeader* it, std::size_t cls) noexcept {
    LruList& l = lru_[cls];
    it->lru_prev = nullptr;
    it->lru_next = l.head;
    if (l.head) l.head->lru_prev = it;
    l.head = it;
    if (!l.tail) l.tail = it;
  }

  void destroy(ItemHeader* it) {
    const std::size_t cls = cache::SlabAllocator::class_of(it);
    lru_unlink(it, cls);
    index_.erase(it->key());
    stats_.resident_bytes -=
        sizeof(ItemHeader) + it->key_len + it->value_len;
    slabs_.deallocate(it);
  }

  bool evict_one(std::size_t cls) {
    ItemHeader* victim = lru_[cls].tail;
    if (victim == nullptr) return false;
    destroy(victim);
    ++stats_.evictions;
    return true;
  }

  ItemHeader* emplace_item(std::string_view key, std::uint64_t key_hash,
                           std::size_t value_bytes, double now, double ttl) {
    ++stats_.sets;
    const std::size_t need = sizeof(ItemHeader) + key.size() + value_bytes;
    if (need > slabs_.max_item_size()) {
      ++stats_.set_failures;
      return nullptr;
    }
    // Replace semantics: drop any existing item first (memcached allocates
    // the new item before unlinking, but the visible behaviour is the same
    // and this frees the chunk for immediate reuse when sizes match).
    if (auto it = index_.find(Prehashed{key, key_hash}); it != index_.end()) {
      destroy(it->second);
    }

    const std::size_t cls = slabs_.class_for(need);
    void* mem = slabs_.allocate(need);
    while (mem == nullptr) {
      if (!evict_one(cls)) {
        ++stats_.set_failures;
        return nullptr;
      }
      mem = slabs_.allocate(need);
    }
    auto* item = static_cast<ItemHeader*>(mem);
    item->lru_prev = nullptr;
    item->lru_next = nullptr;
    item->expiry = ttl > 0.0 ? now + ttl : 0.0;
    item->key_len = static_cast<std::uint32_t>(key.size());
    item->value_len = static_cast<std::uint32_t>(value_bytes);
    std::memcpy(item->key_data(), key.data(), key.size());
    index_.emplace(item->key(), item);
    lru_push_front(item, cls);
    stats_.resident_bytes += need;
    return item;
  }

  cache::SlabAllocator slabs_;
  // Keys in the index view into chunk memory, which is stable for the
  // item's lifetime; entries are erased before their chunk is recycled.
  std::unordered_map<std::string_view, ItemHeader*, KeyHasher, KeyEqual>
      index_;
  std::vector<LruList> lru_;  // one list per slab class
  cache::StoreStats stats_;
};

}  // namespace mclat::bench::legacy_cache
