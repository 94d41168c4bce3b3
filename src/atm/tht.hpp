// Task History Table (paper §III-A, Figure 1).
//
// 2^N buckets indexed by the low N bits of the hash key; each bucket holds
// up to M store::MemoEntry results ({type, key, p}, creator, owned output
// regions) with FIFO eviction. Each bucket carries its own 4-byte
// reader-writer spinlock (SharedSpinMutex) and is padded to its own
// cacheline, so parallel lookups on different buckets never touch a
// shared line and a lookup's lock traffic stays inside the bucket it reads
// — the sharded-locking fix for the "THT bucket locks are the remaining
// serialization point" item. Reads run in parallel under the shared mode
// (lookups copy outputs out); insert/evict take the exclusive mode. Entries
// record the p used to compute their key (§III-D: Dynamic ATM must not
// match keys across p values) and the creator task id (Figure 9's reuse
// attribution).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "atm/config.hpp"
#include "common/hash.hpp"
#include "common/shared_spin_mutex.hpp"
#include "runtime/task.hpp"
#include "store/memo_store.hpp"

namespace atm {

/// Capture `task`'s output regions as a Raw entry under `key` ("data
/// outputs have to be fully stored in the THT", §III-A).
[[nodiscard]] store::MemoEntry capture_outputs(const store::MemoKey& key,
                                               const rt::Task& task);

/// True when `entry`'s Raw regions line up with `task`'s outputs, so
/// copy_out() may write them there. The one shape check of every serve path
/// (THT hit, L2 promotion, training check).
[[nodiscard]] bool output_shape_matches(const store::MemoEntry& entry,
                                        const rt::Task& task) noexcept;

/// Write `entry`'s regions into `task`'s output regions (copyOuts()).
/// Requires output_shape_matches(entry, task).
void copy_out(const store::MemoEntry& entry, rt::Task& task) noexcept;

/// True when two tasks declare byte-identical output region shapes, so one
/// may provide the other's outputs.
[[nodiscard]] bool output_shapes_match(const rt::Task& a, const rt::Task& b) noexcept;

/// Demotion callback: receives (by move) every entry evicted to make room
/// (not entries dropped by clear(), which is a reset, not capacity
/// pressure). Called with the bucket lock held, so a lookup that misses the
/// table already finds the entry in the sink's tier; the sink must not call
/// back into the table. Install before concurrent use; the engine wires
/// this to the L2 capacity tier (src/store/).
using EvictionSink = std::function<void(store::MemoEntry&&)>;

class TaskHistoryTable {
 public:
  /// `log2_buckets` is the paper's N (0 => a single bucket); `bucket_capacity`
  /// is the paper's M. `verify_full_inputs` stores the complete inputs of
  /// exact (p = 100%) entries and byte-compares them on hit (the §III-E
  /// ablation); `eviction` selects FIFO (paper) or LRU replacement.
  TaskHistoryTable(unsigned log2_buckets, unsigned bucket_capacity,
                   bool verify_full_inputs = false,
                   EvictionPolicy eviction = EvictionPolicy::Fifo);

  /// Steady-state hit path: find (type, key, p) and copy the stored outputs
  /// straight into `consumer`'s output regions under the bucket's shared
  /// lock. On success fills `creator` and the copy interval [t0,t1] in ns.
  bool lookup_and_copy(std::uint32_t type_id, HashKey key, double p, rt::Task& consumer,
                       rt::TaskId* creator, std::uint64_t* copy_t0,
                       std::uint64_t* copy_t1);

  /// Multi-probe hit path (tolerance-quantized keys): try `keys[0..nkeys)`
  /// in order, copying outputs from the first match. Each probe is an
  /// independent lookup_and_copy — no cross-bucket lock is ever held, and
  /// the copy happens exactly once, under the matching bucket's shared
  /// lock. On success fills `*which` with the index of the matching key.
  bool lookup_multi_and_copy(std::uint32_t type_id, const HashKey* keys,
                             std::size_t nkeys, double p, rt::Task& consumer,
                             rt::TaskId* creator, std::uint64_t* copy_t0,
                             std::uint64_t* copy_t1, std::size_t* which);

  /// Training path: copy the stored entry out (the task will execute and
  /// the engine compares the two afterwards).
  bool lookup_entry(std::uint32_t type_id, HashKey key, double p,
                    store::MemoEntry* out) const;

  /// Pure membership probe (tests, stats).
  [[nodiscard]] bool contains(std::uint32_t type_id, HashKey key, double p) const;

  /// Store `producer`'s outputs under (type, key, p); evicts per the
  /// configured policy when the bucket is full. Duplicate (type, key, p)
  /// inserts are skipped (the oldest entry wins, as with FIFO order).
  void insert(std::uint32_t type_id, HashKey key, double p, const rt::Task& producer);

  /// Take over an already-captured Raw entry — the promotion path from the
  /// L2 tier and the --load-store warm start. Same dedup/eviction semantics
  /// as the task insert(). Entries inserted this way carry no stored
  /// inputs, so the §III-E full-input check (when enabled) accepts them
  /// unverified.
  void insert(store::MemoEntry&& entry);

  /// Install (or clear, with nullptr) the demotion sink fed by capacity
  /// evictions. Not synchronized against in-flight inserts: install during
  /// setup, before the table sees concurrent traffic.
  void set_eviction_sink(EvictionSink sink) { eviction_sink_ = std::move(sink); }

  /// Visit every live entry under its bucket's shared lock (serialization /
  /// --save-store).
  void for_each_entry(const std::function<void(const store::MemoEntry&)>& fn) const;

  /// Hits whose full-input verification failed (hash false positives
  /// caught by the §III-E check; paper §III-E observed none in practice).
  [[nodiscard]] std::uint64_t verification_rejects() const noexcept {
    return verification_rejects_.load();
  }

  void clear();

  [[nodiscard]] std::size_t entry_count() const;
  /// Bytes pinned by live entries: stored payloads + entry/bucket overheads
  /// (Table III accounting).
  [[nodiscard]] std::size_t memory_bytes() const;
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_.load(); }
  [[nodiscard]] unsigned bucket_count() const noexcept {
    return static_cast<unsigned>(buckets_.size());
  }
  [[nodiscard]] unsigned bucket_capacity() const noexcept { return capacity_; }

 private:
  struct Entry {
    store::MemoEntry memo;
    std::vector<store::MemoRegion> inputs;  ///< only with verify_full_inputs

    /// Stored payload (outputs + inputs) plus the entry itself.
    [[nodiscard]] std::size_t bytes() const noexcept;
    [[nodiscard]] bool inputs_equal(const rt::Task& task) const noexcept;
  };
  /// Cacheline-isolated: the lock word and the entry deque of one bucket
  /// never share a line with a neighboring bucket, so reader traffic on hot
  /// buckets cannot false-share with inserts elsewhere.
  struct alignas(64) Bucket {
    mutable SharedSpinMutex mutex;
    std::deque<Entry> entries ATM_GUARDED_BY(mutex);
  };

  /// Sentinel returned by find_and_copy_locked() when no entry served the hit.
  static constexpr std::size_t kNoEntry = static_cast<std::size_t>(-1);

  /// Shared tail of both insert()s: dedup-check, evict (feeding the
  /// demotion sink when installed), append.
  void insert_entry(Entry&& entry);
  /// Scan `bucket` for (type, key, p); on a serving hit copy the stored
  /// outputs into `consumer` and return the entry index (kNoEntry
  /// otherwise). Read-only on the bucket — legal under the shared mode; the
  /// LRU caller holds the exclusive mode and reorders afterwards.
  std::size_t find_and_copy_locked(Bucket& bucket, std::uint32_t type_id, HashKey key,
                                   double p, rt::Task& consumer, rt::TaskId* creator,
                                   std::uint64_t* copy_t0, std::uint64_t* copy_t1)
      ATM_REQUIRES_SHARED(bucket.mutex);

  [[nodiscard]] Bucket& bucket_for(HashKey key) noexcept {
    return buckets_[key & mask_];
  }
  [[nodiscard]] const Bucket& bucket_for(HashKey key) const noexcept {
    return buckets_[key & mask_];
  }

  static bool entry_matches(const Entry& e, std::uint32_t type_id, HashKey key,
                            double p) noexcept {
    return e.memo.key.hash == key && e.memo.key.type_id == type_id && e.memo.key.p == p;
  }

  std::vector<Bucket> buckets_;
  HashKey mask_;
  unsigned capacity_;
  bool verify_full_inputs_;
  EvictionPolicy eviction_;
  EvictionSink eviction_sink_;
  std::atomic<std::size_t> memory_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> verification_rejects_{0};
};

}  // namespace atm
