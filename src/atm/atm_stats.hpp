// Engine statistics: hit/miss counters, hash/copy timing, and the per-
// creator reuse log behind Figure 9's cumulative-reuse curves and the
// paper's "Reuse" metric (§IV-C: percentage of memoized tasks).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/mutex.hpp"
#include "runtime/task.hpp"

namespace atm {

/// Point-in-time copy of the counters (safe to read after a run).
struct AtmStatsSnapshot {
  std::uint64_t tht_hits = 0;          ///< steady-state THT hits (tasks bypassed)
  std::uint64_t tht_misses = 0;
  std::uint64_t ikt_hits = 0;          ///< tasks deferred onto an in-flight twin
  std::uint64_t training_hits = 0;     ///< THT hits during training (still executed)
  std::uint64_t training_failures = 0; ///< tau >= tau_max events (p doubled)
  std::uint64_t blacklist_skips = 0;   ///< tasks skipped due to unstable outputs
  std::uint64_t keys_computed = 0;
  std::uint64_t hash_ns = 0;           ///< total time computing hash keys
  std::uint64_t hash_bytes = 0;        ///< total bytes fed to the hash
  /// Gather positions outside the task's inputs, clamped-and-counted by
  /// compute_key (all build types). Nonzero = sampler/layout bug upstream.
  std::uint64_t key_gather_oob = 0;
  std::uint64_t copy_out_ns = 0;       ///< THT->task and twin->task output copies
  std::uint64_t update_ns = 0;         ///< task->THT snapshot insertion time

  // --- tolerance-quantized keys (zero unless an epsilon is configured) ---
  std::uint64_t tolerance_hits = 0;  ///< steady THT hits under quantized keys
  std::uint64_t probe_hits = 0;      ///< subset served by a neighbor probe key

  // --- L2 capacity tier (zero unless AtmConfig::l2_enabled) ---
  std::uint64_t l2_hits = 0;        ///< L1 misses served from the L2 store
  std::uint64_t l2_promotions = 0;  ///< L2 entries reinstated into the THT
  std::uint64_t l2_demotions = 0;   ///< THT evictions captured by the L2 store
  std::uint64_t l2_evictions = 0;   ///< entries the L2 dropped to hold its budget
  // Gauges sampled when the snapshot is taken (not monotonic counters).
  std::uint64_t l2_entries = 0;         ///< resident L2 entries
  std::uint64_t l2_payload_bytes = 0;   ///< resident L2 payload (post-compression)
  std::uint64_t l2_memory_bytes = 0;    ///< payload + L2 index overhead

  /// Reuse events in completion order: the creator task id whose stored
  /// outputs satisfied a consumer (THT hit, IKT hit, or training hit).
  /// Bounded: at most the configured cap entries; the overflow is counted.
  std::vector<rt::TaskId> reuse_creators;
  /// Reuse events dropped once the log hit its cap (Figure 9 needs the
  /// curve's head, not an unbounded per-hit record of a long stream).
  std::uint64_t reuse_log_dropped = 0;

  [[nodiscard]] std::uint64_t total_hits() const noexcept {
    return tht_hits + ikt_hits + l2_hits;
  }
};

/// Thread-safe counters used by the engine.
class AtmStats {
 public:
  std::atomic<std::uint64_t> tht_hits{0};
  std::atomic<std::uint64_t> tht_misses{0};
  std::atomic<std::uint64_t> ikt_hits{0};
  std::atomic<std::uint64_t> training_hits{0};
  std::atomic<std::uint64_t> training_failures{0};
  std::atomic<std::uint64_t> blacklist_skips{0};
  std::atomic<std::uint64_t> keys_computed{0};
  std::atomic<std::uint64_t> hash_ns{0};
  std::atomic<std::uint64_t> hash_bytes{0};
  std::atomic<std::uint64_t> key_gather_oob{0};
  std::atomic<std::uint64_t> copy_out_ns{0};
  std::atomic<std::uint64_t> update_ns{0};
  std::atomic<std::uint64_t> tolerance_hits{0};
  std::atomic<std::uint64_t> probe_hits{0};
  std::atomic<std::uint64_t> l2_hits{0};
  std::atomic<std::uint64_t> l2_promotions{0};
  std::atomic<std::uint64_t> l2_demotions{0};

  /// Cap on the reuse-creator log. Default keeps every Figure-9-scale run
  /// intact; long streams stop growing (and stop taking the mutex) here.
  static constexpr std::size_t kDefaultReuseLogCap = 1u << 20;

  /// Must be called before the run (not thread-safe against log_reuse).
  void set_reuse_log_cap(std::size_t cap) { reuse_log_cap_ = cap; }
  [[nodiscard]] std::size_t reuse_log_cap() const noexcept { return reuse_log_cap_; }

  void log_reuse(rt::TaskId creator) {
    // Fast path once capped: a relaxed size check keeps a long stream of
    // hits off the mutex entirely (the log can no longer change).
    // mo: relaxed — monotonic gate; the locked re-check below is exact.
    if (reuse_size_.load(std::memory_order_relaxed) >= reuse_log_cap_) {
      // mo: relaxed — monotonic statistic; snapshot() tolerates races.
      reuse_log_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    MutexLock lock(reuse_mutex_);
    if (reuse_creators_.size() >= reuse_log_cap_) {
      // mo: relaxed — monotonic statistic; snapshot() tolerates races.
      reuse_log_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    reuse_creators_.push_back(creator);
    // mo: relaxed — advisory mirror of the locked size for the fast path.
    reuse_size_.store(reuse_creators_.size(), std::memory_order_relaxed);
  }

  [[nodiscard]] AtmStatsSnapshot snapshot() const {
    AtmStatsSnapshot s;
    s.tht_hits = tht_hits.load();
    s.tht_misses = tht_misses.load();
    s.ikt_hits = ikt_hits.load();
    s.training_hits = training_hits.load();
    s.training_failures = training_failures.load();
    s.blacklist_skips = blacklist_skips.load();
    s.keys_computed = keys_computed.load();
    s.hash_ns = hash_ns.load();
    s.hash_bytes = hash_bytes.load();
    s.key_gather_oob = key_gather_oob.load();
    s.copy_out_ns = copy_out_ns.load();
    s.update_ns = update_ns.load();
    s.tolerance_hits = tolerance_hits.load();
    s.probe_hits = probe_hits.load();
    s.l2_hits = l2_hits.load();
    s.l2_promotions = l2_promotions.load();
    s.l2_demotions = l2_demotions.load();
    s.reuse_log_dropped = reuse_log_dropped_.load();
    {
      MutexLock lock(reuse_mutex_);
      s.reuse_creators = reuse_creators_;
    }
    return s;
  }

  void reset() {
    tht_hits = 0;
    tht_misses = 0;
    ikt_hits = 0;
    training_hits = 0;
    training_failures = 0;
    blacklist_skips = 0;
    keys_computed = 0;
    hash_ns = 0;
    hash_bytes = 0;
    key_gather_oob = 0;
    copy_out_ns = 0;
    update_ns = 0;
    tolerance_hits = 0;
    probe_hits = 0;
    l2_hits = 0;
    l2_promotions = 0;
    l2_demotions = 0;
    // mo: relaxed — reset() runs between measured phases, not concurrently
    // with writers; no ordering to preserve.
    reuse_log_dropped_.store(0, std::memory_order_relaxed);
    MutexLock lock(reuse_mutex_);
    reuse_creators_.clear();
    // mo: relaxed — advisory mirror of the locked size for the fast path.
    reuse_size_.store(0, std::memory_order_relaxed);
  }

 private:
  std::size_t reuse_log_cap_ = kDefaultReuseLogCap;
  std::atomic<std::size_t> reuse_size_{0};
  std::atomic<std::uint64_t> reuse_log_dropped_{0};
  mutable Mutex reuse_mutex_;
  std::vector<rt::TaskId> reuse_creators_ ATM_GUARDED_BY(reuse_mutex_);
};

}  // namespace atm
