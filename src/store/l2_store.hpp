// L2 capacity tier: a sharded, byte-budgeted in-memory store of MemoEntry.
//
// The hot tier (THT) is sized for lookup speed (2^N buckets x M entries,
// paper §IV-B); this tier is sized in *bytes* and catches what the THT
// evicts. Entries promote back into the THT on hit (the engine calls
// take()) and demote here on THT eviction (the eviction-sink seam calls
// put()). Keys never expire by count — the budget is the only limit, per
// Selective Memoization's "programmer controls memo space" argument.
//
// Sharding: the key hash picks one of 2^S independent shards, each its own
// mutex + FIFO list + index, so demotions from different THT buckets and
// concurrent promotions do not serialize on one lock. The byte budget is
// split evenly across shards (no global atomic on the put path). The store
// keeps no counters: put() reports what it evicted, and the engine counts
// it in its own stats (AtmCounter::L2Evictions).
#pragma once

#include <functional>
#include <list>
#include <unordered_map>

#include "common/mutex.hpp"
#include "store/memo_store.hpp"

namespace atm::store {

struct L2Config {
  std::size_t budget_bytes = std::size_t{64} << 20;
  unsigned log2_shards = 4;
  /// Compress demoted snapshots with the packbits codec (raw fallback when
  /// a region does not shrink).
  bool compress = false;
};

/// Thread-safe: the THT eviction seam calls put() under a bucket lock while
/// lookup threads call take() concurrently.
class L2CapacityStore {
 public:
  explicit L2CapacityStore(L2Config config);

  /// Insert (or refresh) an entry. The store owns the moved-in payload and
  /// may encode it; stays within its byte budget by evicting. Returns the
  /// entries evicted, counting an entry too large for any shard as one.
  std::size_t put(MemoEntry&& entry);
  /// Copy the entry out with Raw-decoded regions; false on miss.
  bool get(const MemoKey& key, MemoEntry* out);
  /// Remove and return the entry (promotion into the hot tier; avoids
  /// double residency). Regions are Raw-decoded. False on miss.
  bool take(const MemoKey& key, MemoEntry* out);
  void clear();

  [[nodiscard]] std::size_t entry_count() const;
  /// Payload bytes resident as stored (post-compression).
  [[nodiscard]] std::size_t payload_bytes() const;
  /// Payload + index/bookkeeping overhead (the Table-III-style number).
  [[nodiscard]] std::size_t memory_bytes() const;
  /// Visit every resident entry as stored (no decode) — serialization.
  void for_each(const std::function<void(const MemoEntry&)>& fn) const;

  [[nodiscard]] const L2Config& config() const noexcept { return config_; }

 private:
  struct Shard {
    mutable Mutex mutex;
    /// FIFO order: front is the demotion-time oldest, evicted first.
    std::list<MemoEntry> entries ATM_GUARDED_BY(mutex);
    std::unordered_map<MemoKey, std::list<MemoEntry>::iterator, MemoKeyHash> index
        ATM_GUARDED_BY(mutex);
    std::size_t cost ATM_GUARDED_BY(mutex) = 0;  ///< sum of entry_cost() for residents
  };

  [[nodiscard]] Shard& shard_for(const MemoKey& key) noexcept {
    return shards_[MemoKeyHash{}(key) & shard_mask_];
  }
  [[nodiscard]] const Shard& shard_for(const MemoKey& key) const noexcept {
    return shards_[MemoKeyHash{}(key) & shard_mask_];
  }
  /// Entry accounting cost: stored payload + fixed index/list overhead.
  [[nodiscard]] static std::size_t entry_cost(const MemoEntry& e) noexcept;
  bool extract(const MemoKey& key, MemoEntry* out, bool erase);

  L2Config config_;
  std::vector<Shard> shards_;
  std::size_t shard_mask_;
  std::size_t shard_budget_;
};

}  // namespace atm::store
