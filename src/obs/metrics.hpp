// Unified observability: one MetricsRegistry behind which every runtime/
// engine telemetry surface registers typed instruments by name.
//
// Design goals (the paper's whole evaluation is an observability exercise —
// Figs. 7/8 are state timelines, Fig. 9 a reuse curve, §IV-C a hit-rate/
// overhead budget — and the adaptive-epsilon/`atm_serve` directions consume
// these numbers at runtime):
//
//  * Hot-path cost is one relaxed increment on a cache-line-isolated
//    per-worker slot. Counters and histograms shard their cells kShards
//    ways; a thread picks its slot once (thread_local) and never contends
//    with another worker on steady state. Aggregation happens only at
//    snapshot time.
//  * Compiles to nothing when disabled: -DATM_OBS_DISABLED (CMake
//    -DATM_OBS=OFF) turns inc()/record() into empty inline functions.
//  * Existing snapshot structs (AtmStatsSnapshot, SchedulerStats,
//    DepIndexStats, TaskArenaStats) stay as views: their owners export
//    through collector callbacks, so no call site or test churns.
//
// Instruments:
//  * Counter   — monotonic, sharded, relaxed inc.
//  * Gauge     — point-in-time signed value, single atomic (set/add are off
//                the hot path: queue depths, resident bytes, slot counts).
//  * LatencyHistogram — log2-bucketed (1ns..2^63ns), sharded; snapshot
//                derives count/sum/mean/max and p50/p95/p99 from the CDF.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.hpp"

namespace atm::obs {

#if defined(ATM_OBS_DISABLED)
inline constexpr bool kObsEnabled = false;
#else
inline constexpr bool kObsEnabled = true;
#endif

/// Shard slots per instrument (power of two). 16 covers the container-sized
/// worker pools this repo targets; larger pools alias shards, which only
/// costs occasional cache-line sharing, never correctness.
inline constexpr std::size_t kObsShards = 16;

/// Distinct task-type ids that carry per-type profiles (the runtime's
/// task.<name>.exec_ns, the engine's atm.type.<name>.*). Types with a higher
/// id run unprofiled; memoization and the aggregate metrics are unaffected.
inline constexpr std::size_t kMaxProfiledTypes = 256;

/// The calling thread's shard slot: assigned once per thread, round-robin.
[[nodiscard]] inline std::size_t this_thread_shard() noexcept {
  static std::atomic<std::size_t> next{0};
  // mo: relaxed — round-robin ticket; only uniqueness-ish matters, and even
  // duplicate slots merely share a cache line.
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) & (kObsShards - 1);
  return shard;
}

enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram };

[[nodiscard]] constexpr const char* metric_kind_name(MetricKind k) noexcept {
  switch (k) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Histogram: return "histogram";
  }
  return "?";
}

/// Monotonic counter, sharded per worker. inc() is one relaxed fetch_add on
/// a cache line the calling thread effectively owns.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    if constexpr (!kObsEnabled) {
      (void)n;
      return;
    }
    // mo: relaxed — monotonic statistic; value() is racy by contract.
    cells_[this_thread_shard()].v.fetch_add(n, std::memory_order_relaxed);
  }

  /// Sum across shards (racy; monitoring only).
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t sum = 0;
    // mo: relaxed — racy monitoring sum by contract.
    for (const Cell& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  Cell cells_[kObsShards];
};

/// Point-in-time signed value. set/add sit off the hot path (sampled queue
/// depths, resident bytes), so a single atomic cell suffices.
class Gauge {
 public:
  // mo: relaxed throughout — a gauge is a standalone sampled value; readers
  // never infer other memory state from it.
  void set(std::int64_t v) noexcept {
    if constexpr (kObsEnabled) v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    // mo: relaxed — standalone sampled value (see class comment).
    if constexpr (kObsEnabled) v_.fetch_add(d, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    // mo: relaxed — racy monitoring read by contract.
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Log2-bucketed histogram for latencies/sizes: bucket i holds samples in
/// [2^(i-1), 2^i) (bucket 0 holds 0). record() is one relaxed increment on
/// the calling thread's shard; quantiles are estimated from the bucket CDF
/// at snapshot time (geometric bucket midpoint, exact max tracked aside).
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void record(std::uint64_t x) noexcept {
    if constexpr (!kObsEnabled) {
      (void)x;
      return;
    }
    Shard& s = shards_[this_thread_shard()];
    // mo: relaxed — sharded statistics; snapshot() sums racily by contract.
    s.count[bucket_of(x)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(x, std::memory_order_relaxed);
    std::uint64_t cur = s.max.load(std::memory_order_relaxed);
    // mo: relaxed — max is a monotonic watermark; no payload published.
    while (x > cur &&
           !s.max.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] static constexpr std::size_t bucket_of(std::uint64_t x) noexcept {
    const unsigned w = static_cast<unsigned>(std::bit_width(x));
    return w < kBuckets ? w : kBuckets - 1;
  }
  /// Lower bound of bucket i (0, 1, 2, 4, 8, ...).
  [[nodiscard]] static constexpr std::uint64_t bucket_lo(std::size_t i) noexcept {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }

  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    /// Raw per-bucket counts (shards summed), so exporters can emit the
    /// full distribution instead of point quantiles (PR 10: the sampler
    /// series carries these as a CDF; empty tail buckets compress to
    /// nothing in the JSON since only occupied buckets are written).
    std::uint64_t buckets[kBuckets] = {};
  };

  [[nodiscard]] Snapshot snapshot() const;

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> count[kBuckets]{};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> max{0};
  };
  Shard shards_[kObsShards];
};

/// One metric's value at snapshot time.
struct MetricSample {
  std::string name;
  std::string unit;
  std::string owner;
  MetricKind kind = MetricKind::Counter;
  double value = 0.0;                   ///< counter/gauge value
  LatencyHistogram::Snapshot hist{};    ///< histogram payload (kind == Histogram)
};

/// Point-in-time copy of the whole registry.
struct RegistrySnapshot {
  std::uint64_t t_ns = 0;  ///< steady clock at snapshot time
  std::vector<MetricSample> metrics;

  [[nodiscard]] const MetricSample* find(std::string_view name) const noexcept;
  /// Full machine-readable dump: {"t_ns":..,"metrics":[{...},...]}.
  [[nodiscard]] std::string to_json() const;
};

/// Collector sink: owners of existing snapshot structs export their fields
/// through this at snapshot time (the "views, no churn" port path).
class SampleSink {
 public:
  void counter(std::string name, std::uint64_t v, std::string unit = "events",
               std::string owner = "");
  void gauge(std::string name, std::int64_t v, std::string unit = "",
             std::string owner = "");

 private:
  friend class MetricsRegistry;
  explicit SampleSink(std::vector<MetricSample>* out) : out_(out) {}
  std::vector<MetricSample>* out_;
};

/// The unified registry: typed instruments registered by name (get-or-create,
/// pointer-stable for the registry's lifetime) plus removable collector
/// callbacks for externally-owned counters.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create by name. Kind mismatches on an existing name return
  /// nullptr (a registration bug worth surfacing, not crashing on).
  Counter* counter(std::string name, std::string unit = "events",
                   std::string owner = "");
  Gauge* gauge(std::string name, std::string unit = "", std::string owner = "");
  LatencyHistogram* histogram(std::string name, std::string unit = "ns",
                              std::string owner = "");

  /// Register a snapshot-time callback; returns an id for remove_collector.
  /// Collectors run OUTSIDE the registry mutex, so a collector may create
  /// or bump instruments on this registry; it must not call snapshot() or
  /// remove_collector() (those wait on the collector pass itself).
  std::size_t add_collector(std::function<void(SampleSink&)> fn);
  /// Detach a collector (an engine outliving or predeceasing the runtime
  /// must unhook before its captured state dies). Blocks until any
  /// in-flight snapshot's collector pass has drained, so the captured
  /// state is safe to destroy on return.
  void remove_collector(std::size_t id);

  [[nodiscard]] RegistrySnapshot snapshot() const;
  [[nodiscard]] std::size_t metric_count() const;

 private:
  struct Entry {
    std::string name;
    std::string unit;
    std::string owner;
    MetricKind kind = MetricKind::Counter;
    std::unique_ptr<Counter> c;
    std::unique_ptr<Gauge> g;
    std::unique_ptr<LatencyHistogram> h;
  };

  Entry* find_locked(std::string_view name) ATM_REQUIRES(mutex_);

  /// Serializes snapshot collector passes. snapshot() holds it across the
  /// collector invocations but releases mutex_ first, so collectors can
  /// register instruments without self-deadlocking; remove_collector takes
  /// it (never while holding mutex_ — no ordering cycle) as the drain
  /// barrier that makes detach safe.
  mutable Mutex collect_mutex_;
  mutable Mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_ ATM_GUARDED_BY(mutex_);
  std::vector<std::function<void(SampleSink&)>> collectors_ ATM_GUARDED_BY(mutex_);
};

/// Append a JSON-escaped string literal (quotes included) to `out`.
void json_append_string(std::string& out, std::string_view s);

}  // namespace atm::obs
