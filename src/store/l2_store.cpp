#include "store/l2_store.hpp"

#include "store/rle_codec.hpp"

namespace atm::store {

L2CapacityStore::L2CapacityStore(L2Config config)
    : config_(config),
      shards_(std::size_t{1} << config.log2_shards),
      shard_mask_((std::size_t{1} << config.log2_shards) - 1) {
  shard_budget_ = config_.budget_bytes / shards_.size();
  if (shard_budget_ == 0) shard_budget_ = 1;
}

std::size_t L2CapacityStore::entry_cost(const MemoEntry& e) noexcept {
  // Payload as stored + index node + list node + region headers. The fixed
  // costs matter: a budget full of tiny entries must not look free.
  return e.payload_bytes() + sizeof(MemoEntry) + e.regions.size() * sizeof(MemoRegion) +
         64 /* index + list node estimate */;
}

std::size_t L2CapacityStore::put(MemoEntry&& entry) {
  if (config_.compress) {
    for (auto& r : entry.regions) encode_region(&r);
  }
  const std::size_t cost = entry_cost(entry);

  Shard& shard = shard_for(entry.key);
  MutexLock lock(shard.mutex);
  auto it = shard.index.find(entry.key);
  if (it != shard.index.end()) {
    // Refresh: drop the stale entry, then insert like any new one — the
    // budget check below applies to the replacement payload too, and a
    // re-demotion is the newest arrival, so it moves to the FIFO back.
    shard.cost -= entry_cost(*it->second);
    shard.entries.erase(it->second);
    shard.index.erase(it);
  }
  // An entry larger than the whole shard budget can never fit; storing it
  // would immediately evict everything including itself. It counts as one
  // eviction.
  if (cost > shard_budget_) return 1;
  std::size_t evicted = 0;
  while (!shard.entries.empty() && shard.cost + cost > shard_budget_) {
    MemoEntry& victim = shard.entries.front();
    shard.cost -= entry_cost(victim);
    shard.index.erase(victim.key);
    shard.entries.pop_front();
    ++evicted;
  }
  shard.cost += cost;
  shard.entries.push_back(std::move(entry));
  shard.index.emplace(shard.entries.back().key, std::prev(shard.entries.end()));
  return evicted;
}

bool L2CapacityStore::extract(const MemoKey& key, MemoEntry* out, bool erase) {
  Shard& shard = shard_for(key);
  {
    MutexLock lock(shard.mutex);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) return false;
    if (erase) {
      shard.cost -= entry_cost(*it->second);
      *out = std::move(*it->second);
      shard.entries.erase(it->second);
      shard.index.erase(it);
    } else {
      *out = *it->second;
    }
  }
  for (auto& r : out->regions) {
    if (!decode_region(&r)) return false;  // corrupt payload: treat as miss
  }
  return true;
}

bool L2CapacityStore::get(const MemoKey& key, MemoEntry* out) {
  return extract(key, out, /*erase=*/false);
}

bool L2CapacityStore::take(const MemoKey& key, MemoEntry* out) {
  return extract(key, out, /*erase=*/true);
}

void L2CapacityStore::clear() {
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    shard.entries.clear();
    shard.index.clear();
    shard.cost = 0;
  }
}

std::size_t L2CapacityStore::entry_count() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    n += shard.entries.size();
  }
  return n;
}

std::size_t L2CapacityStore::payload_bytes() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    for (const MemoEntry& e : shard.entries) n += e.payload_bytes();
  }
  return n;
}

std::size_t L2CapacityStore::memory_bytes() const {
  std::size_t n = sizeof(*this) + shards_.size() * sizeof(Shard);
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    n += shard.cost;
  }
  return n;
}

void L2CapacityStore::for_each(const std::function<void(const MemoEntry&)>& fn) const {
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    for (const MemoEntry& e : shard.entries) fn(e);
  }
}

}  // namespace atm::store
