// The ATM engine: the MemoizationHook implementation that realizes the
// paper's Figure 1 pipeline on top of the runtime.
//
//   ready task ──► blacklist check ──► hash key (sampled inputs, current p)
//        │
//        ├─ steady state: THT lookup ── hit ──► copyOuts()          => Hit
//        │                 miss │
//        │                      ├─ L2 store lookup ─ hit ──► promote
//        │                      │     into THT + copyOuts()         => Hit
//        │                      └─ IKT lookup ─ twin in flight ──►
//        │                            postponeCopyOuts()            => Deferred
//        │                            miss ──► register in IKT      => Execute
//        │
//        └─ training (Dynamic): THT hit => remember the entry, still Execute;
//           after execution compare tau against tau_max, double p on
//           failure, blacklist chaotic outputs, count successes.
//
//   executed task ──► verify training check ──► updateTHT&IKT() ──►
//        fulfill postponed copies ──► complete deferred consumers.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "atm/atm_stats.hpp"
#include "common/mutex.hpp"
#include "obs/metrics.hpp"
#include "atm/config.hpp"
#include "atm/ikt.hpp"
#include "atm/input_sampler.hpp"
#include "atm/tht.hpp"
#include "atm/tolerance.hpp"
#include "atm/training.hpp"
#include "runtime/runtime.hpp"
#include "store/l2_store.hpp"
#include "store/snapshot_io.hpp"

namespace atm {

class AtmEngine final : public rt::MemoizationHook {
 public:
  explicit AtmEngine(AtmConfig config);
  /// Detaches from the runtime (if still attached), deregistering the
  /// engine's metrics collector: apps routinely destroy the engine and
  /// runtime in either order, and a collector capturing `this` must not
  /// outlive it — nor may the engine touch a registry that died with its
  /// runtime (the runtime calls on_detach() from its destructor).
  ~AtmEngine() override;

  AtmEngine(const AtmEngine&) = delete;
  AtmEngine& operator=(const AtmEngine&) = delete;

  // --- rt::MemoizationHook ---
  Decision on_task_ready(rt::Task& task, std::size_t lane) override;
  void on_task_executed(rt::Task& task, std::size_t lane) override;
  void on_attach(rt::Runtime& runtime) override;
  void on_detach(rt::Runtime& runtime) override;

  // --- observability ---
  [[nodiscard]] const AtmConfig& config() const noexcept { return config_; }
  /// Counter snapshot; when the L2 tier is on, also samples its gauges
  /// (resident entries and bytes) into the L2 fields.
  [[nodiscard]] AtmStatsSnapshot stats() const;

  [[nodiscard]] TaskHistoryTable& tht() noexcept { return tht_; }
  [[nodiscard]] InFlightKeyTable& ikt() noexcept { return ikt_; }
  [[nodiscard]] InputSampler& sampler() noexcept { return sampler_; }
  /// The L2 capacity tier; nullptr unless AtmConfig::l2_enabled.
  [[nodiscard]] store::L2CapacityStore* l2() noexcept { return l2_.get(); }

  // --- persistent warm start (src/store/snapshot_io) ---
  /// Serialize THT + L2 + per-type p-controller state to `path`.
  bool save_store(const std::string& path, std::string* error = nullptr) const;
  /// Restore a saved image: THT entries re-insert (overflow demotes to the
  /// L2 tier when enabled), L2 entries reload as stored, and Dynamic-mode
  /// controllers resume at their trained p/phase — zero training on the
  /// warm run. Call before submitting tasks; type ids must come from the
  /// same registration order as the saving program.
  bool load_store(const std::string& path, std::string* error = nullptr);

  /// Current selected-input percentage of a type (the star of Figure 5).
  [[nodiscard]] double current_p(const rt::TaskType& type);
  [[nodiscard]] TrainingPhase phase(const rt::TaskType& type);
  [[nodiscard]] std::vector<double> p_history(const rt::TaskType& type);
  [[nodiscard]] std::size_t blacklist_size(const rt::TaskType& type);

  /// Resident ATM memory: THT + IKT + sampler caches + controllers
  /// (Table III's overhead numerator).
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  /// Per-task-type profile on the unified registry: hit rate, bytes the
  /// hits saved, and the latency distributions of the three engine phases
  /// (all recorded from timestamps the engine already takes — no extra
  /// clock reads). Named atm.type.<name>.{hits,misses,bytes_saved,
  /// hash_ns,copy_ns,update_ns}.
  struct TypeProfile {
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* bytes_saved = nullptr;
    obs::LatencyHistogram* hash_ns = nullptr;
    obs::LatencyHistogram* copy_ns = nullptr;
    obs::LatencyHistogram* update_ns = nullptr;
  };

  /// Lazily created profile for `type`; nullptr before on_attach (no
  /// registry yet) or past the obs::kMaxProfiledTypes cap.
  TypeProfile* profile_for(const rt::TaskType& type);

  /// The bookkeeping every hit path shares once `task`'s outputs were
  /// copied in during [c0, c1): the Memoize trace span, copy-out time, the
  /// reuse log and the type's profile. Each path counts its own hit counter.
  Decision serve_hit(rt::Task& task, std::size_t lane, TypeProfile* prof,
                     rt::TaskId creator, std::uint64_t c0, std::uint64_t c1);

  /// Drop everything registered on the current runtime's registry: the
  /// collector and the cached per-type profile instruments.
  void release_registry();

  TrainingController& controller(const rt::TaskType& type);
  [[nodiscard]] std::uint64_t key_seed(std::uint32_t type_id,
                                       const InputLayout& layout) const noexcept;
  /// Effective tolerance for a type: engine-wide AtmConfig epsilons unless
  /// the type's AtmParams override them (>= 0); probes are engine-wide.
  [[nodiscard]] ToleranceSpec resolve_tolerance(const rt::TaskType& type) const noexcept;
  static void copy_outputs(const rt::Task& producer, rt::Task& consumer) noexcept;

  AtmConfig config_;
  rt::Runtime* runtime_ = nullptr;
  /// The runtime's registry, adopted at on_attach.
  obs::MetricsRegistry* metrics_ = nullptr;
  std::size_t collector_id_ = 0;
  bool collector_registered_ = false;

  /// Per-type profile slots, indexed by the dense type id. The hot path
  /// reads its slot lock-free; the mutex only serializes lazy creation and
  /// teardown of the backing storage.
  std::atomic<TypeProfile*> profiles_[obs::kMaxProfiledTypes]{};
  Mutex profiles_mutex_;
  std::vector<std::unique_ptr<TypeProfile>> profile_storage_
      ATM_GUARDED_BY(profiles_mutex_);
  TaskHistoryTable tht_;
  InFlightKeyTable ikt_;
  InputSampler sampler_;
  AtmStats stats_;
  std::unique_ptr<store::L2CapacityStore> l2_;

  mutable Mutex controllers_mutex_;
  std::unordered_map<std::uint32_t, std::unique_ptr<TrainingController>> controllers_
      ATM_GUARDED_BY(controllers_mutex_);
  /// Controller states restored by load_store(), consumed lazily when a
  /// Dynamic-mode controller is first created for the type.
  std::unordered_map<std::uint32_t, store::ControllerState> warm_controllers_
      ATM_GUARDED_BY(controllers_mutex_);

  mutable Mutex checks_mutex_;
  /// Training checks in flight: the stored entry each task's fresh outputs
  /// are compared against once it has executed.
  std::unordered_map<const rt::Task*, store::MemoEntry> pending_checks_
      ATM_GUARDED_BY(checks_mutex_);
};

}  // namespace atm
