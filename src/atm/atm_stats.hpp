// Engine statistics: hit/miss counters, hash/copy timing, and the per-
// creator reuse log behind Figure 9's cumulative-reuse curves and the
// paper's "Reuse" metric (§IV-C: percentage of memoized tasks).
//
// AtmStats is the engine's one stats store. Each counter is declared once,
// as a row of kAtmCounterRows: snapshot() and the engine's registry
// collector both walk the rows. The engine owns the counters instead of
// registry instruments because they must count in every build (an
// -DATM_OBS=OFF build compiles obs::Counter::inc out, yet atm_bench fails a
// run on a nonzero key_gather_oob), survive the runtime they were exported
// through, and count before the engine attaches (load_store demotes).
#pragma once

#include <atomic>
#include <cstddef>
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
  std::uint64_t l2_hits = 0;        ///< L1 misses served (and promoted) from the L2 store
  std::uint64_t l2_demotions = 0;   ///< THT evictions captured by the L2 store
  std::uint64_t l2_evictions = 0;   ///< entries the L2 dropped to hold its budget
  // Gauges sampled when the snapshot is taken (not monotonic counters).
  std::uint64_t l2_entries = 0;         ///< resident L2 entries
  std::uint64_t l2_payload_bytes = 0;   ///< resident L2 payload (post-compression)
  std::uint64_t l2_memory_bytes = 0;    ///< payload + L2 index overhead

  /// Reuse events in completion order: the creator task id whose stored
  /// outputs satisfied a consumer (THT hit, IKT hit, or training hit).
  /// Bounded: at most kReuseLogCap entries; the overflow is counted.
  std::vector<rt::TaskId> reuse_creators;
  /// Reuse events dropped once the log hit its cap (Figure 9 needs the
  /// curve's head, not an unbounded per-hit record of a long stream).
  std::uint64_t reuse_log_dropped = 0;

  [[nodiscard]] std::uint64_t total_hits() const noexcept {
    return tht_hits + ikt_hits + l2_hits;
  }
};

/// Every engine counter; indexes AtmStats' atomics and kAtmCounterRows.
enum class AtmCounter : std::uint8_t {
  ThtHits,
  ThtMisses,
  IktHits,
  TrainingHits,
  TrainingFailures,
  BlacklistSkips,
  KeysComputed,
  HashNs,
  HashBytes,
  KeyGatherOob,
  CopyOutNs,
  UpdateNs,
  ToleranceHits,
  ProbeHits,
  ReuseLogDropped,
  L2Hits,
  L2Demotions,
  L2Evictions,
};
inline constexpr std::size_t kAtmCounterCount = 18;

/// A counter's registry export and its AtmStatsSnapshot field.
struct AtmCounterRow {
  AtmCounter counter;
  const char* name;
  const char* unit;
  const char* owner;
  std::uint64_t AtmStatsSnapshot::*field;
};

inline constexpr AtmCounterRow kAtmCounterRows[kAtmCounterCount] = {
    {AtmCounter::ThtHits, "atm.tht_hits", "tasks", "engine", &AtmStatsSnapshot::tht_hits},
    {AtmCounter::ThtMisses, "atm.tht_misses", "tasks", "engine",
     &AtmStatsSnapshot::tht_misses},
    {AtmCounter::IktHits, "atm.ikt_hits", "tasks", "engine", &AtmStatsSnapshot::ikt_hits},
    {AtmCounter::TrainingHits, "atm.training_hits", "tasks", "engine",
     &AtmStatsSnapshot::training_hits},
    {AtmCounter::TrainingFailures, "atm.training_failures", "tasks", "engine",
     &AtmStatsSnapshot::training_failures},
    {AtmCounter::BlacklistSkips, "atm.blacklist_skips", "tasks", "engine",
     &AtmStatsSnapshot::blacklist_skips},
    {AtmCounter::KeysComputed, "atm.keys_computed", "keys", "engine",
     &AtmStatsSnapshot::keys_computed},
    {AtmCounter::HashNs, "atm.hash_ns", "ns", "engine", &AtmStatsSnapshot::hash_ns},
    {AtmCounter::HashBytes, "atm.hash_bytes", "bytes", "engine",
     &AtmStatsSnapshot::hash_bytes},
    {AtmCounter::KeyGatherOob, "atm.key_gather_oob", "events", "engine",
     &AtmStatsSnapshot::key_gather_oob},
    {AtmCounter::CopyOutNs, "atm.copy_out_ns", "ns", "engine",
     &AtmStatsSnapshot::copy_out_ns},
    {AtmCounter::UpdateNs, "atm.update_ns", "ns", "engine", &AtmStatsSnapshot::update_ns},
    {AtmCounter::ToleranceHits, "atm.tolerance_hits", "tasks", "engine",
     &AtmStatsSnapshot::tolerance_hits},
    {AtmCounter::ProbeHits, "atm.probe_hits", "tasks", "engine",
     &AtmStatsSnapshot::probe_hits},
    {AtmCounter::ReuseLogDropped, "atm.reuse_log_dropped", "events", "engine",
     &AtmStatsSnapshot::reuse_log_dropped},
    {AtmCounter::L2Hits, "atm.l2_hits", "tasks", "l2_store", &AtmStatsSnapshot::l2_hits},
    {AtmCounter::L2Demotions, "atm.l2_demotions", "entries", "l2_store",
     &AtmStatsSnapshot::l2_demotions},
    {AtmCounter::L2Evictions, "atm.l2_evictions", "entries", "l2_store",
     &AtmStatsSnapshot::l2_evictions},
};

/// Row i describes counter i: the enum and the table cannot drift apart.
[[nodiscard]] consteval bool atm_counter_rows_in_enum_order() {
  for (std::size_t i = 0; i < kAtmCounterCount; ++i) {
    if (static_cast<std::size_t>(kAtmCounterRows[i].counter) != i) return false;
  }
  return true;
}
static_assert(atm_counter_rows_in_enum_order());

/// Thread-safe counters used by the engine.
class AtmStats {
 public:
  /// Cap on the reuse-creator log: every Figure-9-scale run stays intact;
  /// long streams stop growing (and stop taking the mutex) here.
  static constexpr std::size_t kReuseLogCap = std::size_t{1} << 20;

  void add(AtmCounter counter, std::uint64_t n = 1) noexcept {
    // mo: relaxed — monotonic statistic; snapshot() tolerates races.
    counters_[static_cast<std::size_t>(counter)].fetch_add(n, std::memory_order_relaxed);
  }

  void log_reuse(rt::TaskId creator) {
    // Fast path once capped: a relaxed size check keeps a long stream of
    // hits off the mutex entirely (the log can no longer change).
    // mo: relaxed — monotonic gate; the locked re-check below is exact.
    if (reuse_size_.load(std::memory_order_relaxed) >= kReuseLogCap) {
      add(AtmCounter::ReuseLogDropped);
      return;
    }
    MutexLock lock(reuse_mutex_);
    if (reuse_creators_.size() >= kReuseLogCap) {
      add(AtmCounter::ReuseLogDropped);
      return;
    }
    reuse_creators_.push_back(creator);
    // mo: relaxed — advisory mirror of the locked size for the fast path.
    reuse_size_.store(reuse_creators_.size(), std::memory_order_relaxed);
  }

  [[nodiscard]] AtmStatsSnapshot snapshot() const {
    AtmStatsSnapshot s;
    for (const AtmCounterRow& row : kAtmCounterRows) {
      s.*row.field = counters_[static_cast<std::size_t>(row.counter)].load();
    }
    MutexLock lock(reuse_mutex_);
    s.reuse_creators = reuse_creators_;
    return s;
  }

 private:
  std::atomic<std::uint64_t> counters_[kAtmCounterCount]{};
  std::atomic<std::size_t> reuse_size_{0};
  mutable Mutex reuse_mutex_;
  std::vector<rt::TaskId> reuse_creators_ ATM_GUARDED_BY(reuse_mutex_);
};

}  // namespace atm
