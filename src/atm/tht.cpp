#include "atm/tht.hpp"

#include <cstring>

#include "common/timing.hpp"

namespace atm {

namespace {

/// Owned Raw copies of `task`'s output (or, with `outputs` false, input)
/// regions in declaration order.
std::vector<store::MemoRegion> capture_regions(const rt::Task& task, bool outputs) {
  std::vector<store::MemoRegion> regions;
  for (const auto& a : task.accesses) {
    if (outputs ? !a.is_output() : !a.is_input()) continue;
    store::MemoRegion r;
    // Range-construct: a single copy pass (resize would zero-fill first).
    const auto* bytes = static_cast<const std::uint8_t*>(a.ptr);
    r.data.assign(bytes, bytes + a.bytes);
    r.raw_bytes = a.bytes;
    r.elem = static_cast<std::uint8_t>(a.elem);
    regions.push_back(std::move(r));
  }
  return regions;
}

}  // namespace

store::MemoEntry capture_outputs(const store::MemoKey& key, const rt::Task& task) {
  return {key, task.id, capture_regions(task, /*outputs=*/true)};
}

bool output_shape_matches(const store::MemoEntry& entry, const rt::Task& task) noexcept {
  // Compares the stored (not decoded) sizes: an Rle region never matches,
  // so copy_out() only ever reads Raw bytes.
  std::size_t i = 0;
  for (const auto& a : task.accesses) {
    if (!a.is_output()) continue;
    if (i >= entry.regions.size() || entry.regions[i].data.size() != a.bytes) return false;
    ++i;
  }
  return i == entry.regions.size();
}

void copy_out(const store::MemoEntry& entry, rt::Task& task) noexcept {
  std::size_t i = 0;
  for (const auto& a : task.accesses) {
    if (!a.is_output()) continue;
    std::memcpy(a.ptr, entry.regions[i].data.data(), a.bytes);
    ++i;
  }
}

bool output_shapes_match(const rt::Task& a, const rt::Task& b) noexcept {
  std::size_t ia = 0, ib = 0;
  const auto next_out = [](const rt::Task& t, std::size_t& i) -> const rt::DataAccess* {
    while (i < t.accesses.size()) {
      const auto& acc = t.accesses[i++];
      if (acc.is_output()) return &acc;
    }
    return nullptr;
  };
  for (;;) {
    const auto* oa = next_out(a, ia);
    const auto* ob = next_out(b, ib);
    if (oa == nullptr || ob == nullptr) return oa == ob;
    if (oa->bytes != ob->bytes) return false;
  }
}

std::size_t TaskHistoryTable::Entry::bytes() const noexcept {
  std::size_t n = memo.payload_bytes() + sizeof(Entry);
  for (const auto& r : inputs) n += r.data.size();
  return n;
}

bool TaskHistoryTable::Entry::inputs_equal(const rt::Task& task) const noexcept {
  if (inputs.empty()) return true;  // nothing stored: verification disabled
  std::size_t i = 0;
  for (const auto& a : task.accesses) {
    if (!a.is_input()) continue;
    if (i >= inputs.size() || inputs[i].data.size() != a.bytes) return false;
    if (std::memcmp(inputs[i].data.data(), a.ptr, a.bytes) != 0) return false;
    ++i;
  }
  return i == inputs.size();
}

TaskHistoryTable::TaskHistoryTable(unsigned log2_buckets, unsigned bucket_capacity,
                                   bool verify_full_inputs, EvictionPolicy eviction)
    : buckets_(std::size_t{1} << log2_buckets),
      mask_((HashKey{1} << log2_buckets) - 1),
      capacity_(bucket_capacity != 0 ? bucket_capacity : 1),
      verify_full_inputs_(verify_full_inputs),
      eviction_(eviction) {
  memory_.store(buckets_.size() * sizeof(Bucket));
}

std::size_t TaskHistoryTable::find_and_copy_locked(Bucket& b, std::uint32_t type_id,
                                                   HashKey key, double p,
                                                   rt::Task& consumer,
                                                   rt::TaskId* creator,
                                                   std::uint64_t* copy_t0,
                                                   std::uint64_t* copy_t1) {
  for (std::size_t idx = 0; idx < b.entries.size(); ++idx) {
    const Entry& e = b.entries[idx];
    if (!entry_matches(e, type_id, key, p)) continue;
    if (!output_shape_matches(e.memo, consumer)) return kNoEntry;
    if (verify_full_inputs_ && !e.inputs_equal(consumer)) {
      // Hash false positive caught by the SIII-E full-input check.
      // mo: relaxed — standalone statistic; readers need no ordering.
      verification_rejects_.fetch_add(1, std::memory_order_relaxed);
      return kNoEntry;
    }
    const std::uint64_t t0 = now_ns();
    copy_out(e.memo, consumer);
    const std::uint64_t t1 = now_ns();
    if (creator != nullptr) *creator = e.memo.creator;
    if (copy_t0 != nullptr) *copy_t0 = t0;
    if (copy_t1 != nullptr) *copy_t1 = t1;
    return idx;
  }
  return kNoEntry;
}

bool TaskHistoryTable::lookup_and_copy(std::uint32_t type_id, HashKey key, double p,
                                       rt::Task& consumer, rt::TaskId* creator,
                                       std::uint64_t* copy_t0, std::uint64_t* copy_t1) {
  Bucket& b = bucket_for(key);
  if (eviction_ == EvictionPolicy::Lru) {
    // LRU: the recency update mutates the bucket, forcing an exclusive lock
    // — one reason the paper's FIFO + parallel-read design is the right
    // default.
    SharedSpinWriteLock lock(b.mutex);
    const std::size_t idx =
        find_and_copy_locked(b, type_id, key, p, consumer, creator, copy_t0, copy_t1);
    if (idx == kNoEntry) return false;
    if (idx + 1 != b.entries.size()) {
      // Move-to-back: the eviction end (front) holds the least recent.
      Entry moved = std::move(b.entries[idx]);
      b.entries.erase(b.entries.begin() + static_cast<std::ptrdiff_t>(idx));
      b.entries.push_back(std::move(moved));
    }
    return true;
  }
  // FIFO (paper): shared lock, parallel reads.
  SharedSpinReadLock lock(b.mutex);
  return find_and_copy_locked(b, type_id, key, p, consumer, creator, copy_t0,
                              copy_t1) != kNoEntry;
}

bool TaskHistoryTable::lookup_multi_and_copy(std::uint32_t type_id, const HashKey* keys,
                                             std::size_t nkeys, double p,
                                             rt::Task& consumer, rt::TaskId* creator,
                                             std::uint64_t* copy_t0,
                                             std::uint64_t* copy_t1,
                                             std::size_t* which) {
  for (std::size_t i = 0; i < nkeys; ++i) {
    if (lookup_and_copy(type_id, keys[i], p, consumer, creator, copy_t0, copy_t1)) {
      if (which != nullptr) *which = i;
      return true;
    }
  }
  return false;
}

bool TaskHistoryTable::lookup_entry(std::uint32_t type_id, HashKey key, double p,
                                    store::MemoEntry* out) const {
  const Bucket& b = bucket_for(key);
  SharedSpinReadLock lock(b.mutex);
  for (const Entry& e : b.entries) {
    if (!entry_matches(e, type_id, key, p)) continue;
    if (out != nullptr) *out = e.memo;
    return true;
  }
  return false;
}

bool TaskHistoryTable::contains(std::uint32_t type_id, HashKey key, double p) const {
  const Bucket& b = bucket_for(key);
  SharedSpinReadLock lock(b.mutex);
  for (const Entry& e : b.entries) {
    if (entry_matches(e, type_id, key, p)) return true;
  }
  return false;
}

void TaskHistoryTable::insert_entry(Entry&& e) {
  Bucket& b = bucket_for(e.memo.key.hash);
  // A victim the sink did not take frees its buffers after the unlock.
  Entry victim;
  SharedSpinWriteLock lock(b.mutex);
  for (const Entry& existing : b.entries) {
    // Raced duplicate: `e` stays with the caller, freed outside the lock.
    if (existing.memo.key == e.memo.key) return;
  }
  if (b.entries.size() >= capacity_) {
    victim = std::move(b.entries.front());
    b.entries.pop_front();
    memory_.fetch_sub(victim.bytes());
    // mo: relaxed — standalone statistic; readers need no ordering.
    evictions_.fetch_add(1, std::memory_order_relaxed);
    // Demotion: hand the L2 tier the outputs themselves. Stored inputs
    // (§III-E ablation) are not demoted — the capacity tier serves
    // approximate steady-state traffic.
    if (eviction_sink_) eviction_sink_(std::move(victim.memo));
  }
  memory_.fetch_add(e.bytes());
  b.entries.push_back(std::move(e));
}

void TaskHistoryTable::insert(std::uint32_t type_id, HashKey key, double p,
                              const rt::Task& producer) {
  // Deterministic tasks with the same (key, p) produce the same outputs, so
  // a duplicate insert adds nothing: keep the oldest entry (paper FIFO) and
  // skip the copy. Cheap shared-lock probe first.
  if (contains(type_id, key, p)) return;

  // Copy outside the bucket lock: the copy is the expensive part and must
  // not block readers of the bucket.
  Entry e{capture_outputs({type_id, key, p}, producer), {}};
  if (verify_full_inputs_ && p >= 1.0) {
    // Exact entries only: for sampled keys, differing inputs are the point.
    e.inputs = capture_regions(producer, /*outputs=*/false);
  }
  insert_entry(std::move(e));
}

void TaskHistoryTable::insert(store::MemoEntry&& entry) {
  if (contains(entry.key.type_id, entry.key.hash, entry.key.p)) return;
  insert_entry(Entry{std::move(entry), {}});
}

void TaskHistoryTable::for_each_entry(
    const std::function<void(const store::MemoEntry&)>& fn) const {
  for (const Bucket& b : buckets_) {
    SharedSpinReadLock lock(b.mutex);
    for (const Entry& e : b.entries) fn(e.memo);
  }
}

void TaskHistoryTable::clear() {
  for (Bucket& b : buckets_) {
    SharedSpinWriteLock lock(b.mutex);
    b.entries.clear();
  }
  memory_.store(buckets_.size() * sizeof(Bucket));
}

std::size_t TaskHistoryTable::entry_count() const {
  std::size_t n = 0;
  for (const Bucket& b : buckets_) {
    SharedSpinReadLock lock(b.mutex);
    n += b.entries.size();
  }
  return n;
}

std::size_t TaskHistoryTable::memory_bytes() const { return memory_.load(); }

}  // namespace atm
