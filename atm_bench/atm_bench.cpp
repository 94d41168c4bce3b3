// atm_bench: the repository's end-to-end benchmark. One invocation runs one
// workload in its own process (so setup time and peak RSS belong to that
// workload) and prints one JSON result object as the last line of stdout.
//
//   atm_bench --workload <apps-static|apps-dynamic|noisy-tiered|runtime-storm>
//             (--seconds S | --rounds N) [--seed N] [--setup-reps N]
//             [--traced] [--preset bench|test] [--trace-dir DIR]
//             [--git-sha SHA] [--allow-nonrelease]
//
// Untraced runs report the end-to-end metrics; --traced reports the
// per-layer split instead (see README.md for both lists). Every round checks
// each memoized run against its paired Off run; a broken contract is
// printed and counted, never fatal. python3 atm_bench/run.py builds and
// runs it.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "apps/app_registry.hpp"
#include "apps/blackscholes.hpp"
#include "apps/gauss_seidel.hpp"
#include "apps/jacobi.hpp"
#include "apps/kmeans.hpp"
#include "apps/sparse_lu.hpp"
#include "apps/swaptions.hpp"
#include "atm/error_metric.hpp"
#include "common/hash.hpp"
#include "common/timing.hpp"
#include "obs/trace_export.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ATM_BENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ATM_BENCH_SANITIZED 1
#endif
#endif

#ifndef ATM_BENCH_BUILD_TYPE
#define ATM_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace atm;
using apps::App;
using apps::RunConfig;
using apps::RunResult;

constexpr int kSchemaVersion = 1;
/// A time-bounded run still takes this many timed rounds.
constexpr int kMinRounds = 3;
/// Registry order (Table I); an app's index salts its seed.
constexpr const char* kAppKeys[] = {"blackscholes", "gauss-seidel", "jacobi",
                                    "kmeans",       "lu",           "swaptions"};
constexpr std::size_t kAppCount = std::size(kAppKeys);
/// The apps of apps-dynamic: kmeans and swaptions. Dynamic training on the
/// four apps with tau_max = 1% sometimes settles on a p whose program error
/// is past tau_max (gauss-seidel and lu about 1 run in 8, blackscholes and
/// jacobi about 1 in 500), and the runtime never re-checks p once it is
/// frozen. Only the two apps that hold their budget on every run are here.
constexpr std::size_t kDynamicApps[] = {3, 5};

// Storm shape: the task of sched_storm_tasks_per_sec in bench/bench_common.hpp.
constexpr std::size_t kStormTasks = 20'000;
constexpr int kStormWaves = 50;
/// Span of a run written to the workload's Chrome trace.
constexpr std::uint64_t kChromeTraceNs = 50'000'000;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;  ///< BENCHMARK.json's run_seconds, passed by the wrapper
  int rounds = 0;        ///< fixed timed-round count; 0 = run for `seconds`
  int setup_reps = 5;
  bool traced = false;
  apps::Preset preset = apps::Preset::Bench;
  std::string trace_dir;
  std::string git_sha = "unknown";
  bool allow_nonrelease = false;
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "atm_bench: %s\n"
               "usage: atm_bench --workload <apps-static|apps-dynamic|noisy-tiered|"
               "runtime-storm> (--seconds S | --rounds N) [--seed N] [--setup-reps N]"
               " [--traced] [--preset bench|test] [--trace-dir DIR] [--git-sha SHA]"
               " [--allow-nonrelease]\n",
               error.c_str());
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") opt.workload = value();
    else if (arg == "--seed") opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (arg == "--seconds") opt.seconds = std::strtod(value().c_str(), nullptr);
    else if (arg == "--rounds") opt.rounds = std::atoi(value().c_str());
    else if (arg == "--setup-reps") opt.setup_reps = std::max(1, std::atoi(value().c_str()));
    else if (arg == "--traced") opt.traced = true;
    else if (arg == "--trace-dir") opt.trace_dir = value();
    else if (arg == "--git-sha") opt.git_sha = value();
    else if (arg == "--allow-nonrelease") opt.allow_nonrelease = true;
    else if (arg == "--preset") {
      const std::string p = value();
      if (p == "bench") opt.preset = apps::Preset::Bench;
      else if (p == "test") opt.preset = apps::Preset::Test;
      else usage("unknown preset " + p);
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (opt.rounds <= 0 && opt.seconds <= 0.0) usage("give --seconds or --rounds");
  return opt;
}

// --- statistics --------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// --- results -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Failure {
  std::string app;
  int round = 0;
  std::string reason;
};

/// Mode runs attempted and the ones that broke their contract.
struct Tally {
  std::uint64_t attempted = 0;
  std::vector<Failure> failures;

  void fail(const std::string& app, int round, const std::string& reason) {
    std::fprintf(stderr, "atm_bench: FAIL app=%s round=%d: %s\n", app.c_str(), round,
                 reason.c_str());
    failures.push_back({app, round, reason});
  }
};

/// One timed round, summed over the round's mode runs.
struct RoundSample {
  double wall_s = 0.0;
  double submitted = 0.0;
  double executed = 0.0;
  double correctness_pct = 100.0;  ///< lowest among the round's runs
};

/// Per-layer totals of a traced invocation.
struct LayerAccum {
  // Lane split, every lane clipped to its run's timed window.
  std::uint64_t state_ns[rt::kTraceStateCount] = {};
  std::uint64_t exec_events = 0;
  std::uint64_t lanes_wall_ns = 0;  ///< lanes x wall, summed over traced runs
  std::uint64_t master_creation_ns = 0;
  std::uint64_t master_helping_ns = 0;
  double max_lane_overfill = 0.0;   ///< worst lane: recorded / window - 1
  std::uint64_t submitted = 0;
  std::vector<double> traced_wall_s;    ///< per traced round
  std::vector<double> untraced_wall_s;  ///< per round
  // Storm only: the bench's own timers around submit and taskwait.
  std::vector<double> submit_ns_per_task;
  std::vector<double> taskwait_ms;
  // Registry snapshot totals.
  double dep_exact_hits = 0, dep_tree_fallbacks = 0;
  double steal_attempts = 0, steal_fails = 0;
  double steal_batch_sum = 0, steal_batch_count = 0;
  double arena_peak_slots = 0;
  // Engine totals.
  AtmStatsSnapshot atm;
  std::uint64_t atm_memory_bytes = 0, app_memory_bytes = 0;
  std::map<std::string, double> final_p;
  std::map<std::string, std::vector<double>> off_wall_s, mode_wall_s;
  // The longest traced run, for the Chrome trace.
  std::vector<std::vector<rt::TraceEvent>> chrome_lanes;
  std::size_t chrome_master = 0;
  std::vector<rt::DepthSample> chrome_depth;
  double chrome_wall_s = -1.0;

  void add_atm(const AtmStatsSnapshot& s) {
    atm.tht_hits += s.tht_hits;
    atm.tht_misses += s.tht_misses;
    atm.ikt_hits += s.ikt_hits;
    atm.training_hits += s.training_hits;
    atm.training_failures += s.training_failures;
    atm.keys_computed += s.keys_computed;
    atm.hash_ns += s.hash_ns;
    atm.hash_bytes += s.hash_bytes;
    atm.copy_out_ns += s.copy_out_ns;
    atm.update_ns += s.update_ns;
    atm.tolerance_hits += s.tolerance_hits;
    atm.probe_hits += s.probe_hits;
    atm.l2_hits += s.l2_hits;
    atm.l2_demotions += s.l2_demotions;
    atm.l2_evictions += s.l2_evictions;
    atm.l2_payload_bytes += s.l2_payload_bytes;
  }

  void add_registry(const obs::RegistrySnapshot& snap) {
    auto value = [&snap](std::string_view name) {
      const obs::MetricSample* m = snap.find(name);
      return m != nullptr ? m->value : 0.0;
    };
    dep_exact_hits += value("dep.exact_hits");
    dep_tree_fallbacks += value("dep.tree_fallbacks");
    steal_attempts += value("sched.steal_attempts");
    steal_fails += value("sched.steal_fails");
    arena_peak_slots = std::max(arena_peak_slots, value("arena.slots"));
    if (const obs::MetricSample* m = snap.find("sched.steal_batch_size")) {
      steal_batch_sum += static_cast<double>(m->hist.sum);
      steal_batch_count += static_cast<double>(m->hist.count);
    }
  }

  /// Split each lane's recorded states over the window [w0, w1]. The
  /// recorded states are disjoint (Helping wraps only helper_pop, TaskExec
  /// only fn(), Creation only tracker registration), so whatever a lane did
  /// not record is the unattributed remainder and the split adds up to
  /// lanes x wall by construction.
  void add_lanes(const std::vector<std::vector<rt::TraceEvent>>& lanes,
                 std::size_t master, std::uint64_t w0, std::uint64_t w1) {
    if (w1 <= w0) return;
    for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
      std::uint64_t recorded = 0;
      std::uint64_t last_end = w0;
      for (const rt::TraceEvent& e : lanes[lane]) {
        const std::uint64_t lo = std::max(e.t0, w0);
        const std::uint64_t hi = std::min(e.t1, w1);
        if (hi <= lo) continue;
        const auto s = static_cast<std::size_t>(e.state);
        state_ns[s] += hi - lo;
        recorded += hi - lo;
        last_end = std::max(last_end, hi);
        if (e.state == rt::TraceState::TaskExec) ++exec_events;
        if (lane == master && e.state == rt::TraceState::Creation) {
          master_creation_ns += hi - lo;
        }
        if (lane == master && e.state == rt::TraceState::Helping) {
          master_helping_ns += hi - lo;
        }
      }
      // A worker's last Idle span is still open when the lanes are read (it
      // is recorded when pop_blocking returns at shutdown), and every task
      // has completed by the window's end: a worker's unrecorded tail is idle.
      if (lane != master && last_end < w1) {
        state_ns[static_cast<std::size_t>(rt::TraceState::Idle)] += w1 - last_end;
        recorded += w1 - last_end;
      }
      lanes_wall_ns += w1 - w0;
      max_lane_overfill = std::max(
          max_lane_overfill,
          static_cast<double>(recorded) / static_cast<double>(w1 - w0) - 1.0);
    }
  }

  /// Keep the first kChromeTraceNs of the longest traced run (a whole storm
  /// run is millions of events).
  void keep_chrome_trace(const std::vector<std::vector<rt::TraceEvent>>& lanes,
                         std::size_t master, const std::vector<rt::DepthSample>& depth,
                         std::uint64_t w0, double wall_s) {
    if (wall_s <= chrome_wall_s) return;
    const std::uint64_t w1 = w0 + kChromeTraceNs;
    chrome_lanes.assign(lanes.size(), {});
    for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
      for (const rt::TraceEvent& e : lanes[lane]) {
        if (e.t1 > w0 && e.t0 < w1) chrome_lanes[lane].push_back(e);
      }
    }
    chrome_depth.clear();
    for (const rt::DepthSample& d : depth) {
      if (d.t >= w0 && d.t < w1) chrome_depth.push_back(d);
    }
    chrome_master = master;
    chrome_wall_s = wall_s;
  }
};

// --- workloads ---------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build fresh inputs and run one untimed warm-up round (round -1 - rep).
  virtual void setup(Tally& tally, int rep) = 0;
  /// One round of mode runs. With `layers`, also run the traced pass and
  /// record per-layer data into it.
  virtual RoundSample round(int r, Tally& tally, LayerAccum* layers) = 0;
  /// App keys whose per-app metrics this workload reports.
  [[nodiscard]] virtual std::vector<std::string> app_keys() const = 0;
};

template <typename A>
std::unique_ptr<App> reseeded(const App& app, std::uint64_t seed) {
  auto params = dynamic_cast<const A&>(app).params();
  params.seed = seed;
  return std::make_unique<A>(params);
}

/// Round r (negative = warm-up) of a run draws its inputs from this seed: one run
/// averages over as many input sets as it has rounds, so its medians do not
/// hinge on one draw, and the same --seed replays the same sequence.
std::uint64_t round_seed(std::uint64_t seed, int r) {
  return splitmix64(seed ^ splitmix64(static_cast<std::uint64_t>(r + 1)));
}

/// The registry app at `index`, built from its preset params with the seed
/// replaced by splitmix64(seed ^ index).
std::unique_ptr<App> make_seeded_app(std::size_t index, apps::Preset preset,
                                     std::uint64_t seed) {
  const std::unique_ptr<App> app = apps::make_app(kAppKeys[index], preset);
  const std::uint64_t s = splitmix64(seed ^ index);
  switch (index) {
    case 0: return reseeded<apps::BlackscholesApp>(*app, s);
    case 1: return reseeded<apps::GaussSeidelApp>(*app, s);
    case 2: return reseeded<apps::JacobiApp>(*app, s);
    case 3: return reseeded<apps::KmeansApp>(*app, s);
    case 4: return reseeded<apps::SparseLuApp>(*app, s);
    default: return reseeded<apps::SwaptionsApp>(*app, s);
  }
}

/// The three app workloads: each round runs every app once in Off and once
/// in the workload's mode, in an order that alternates by round, and checks
/// the mode run against the Off run of the same inputs.
class AppsWorkload final : public Workload {
 public:
  enum class Kind { Static, Dynamic, Noisy };

  AppsWorkload(Kind kind, const Options& opt, unsigned workers)
      : kind_(kind), opt_(opt), workers_(workers) {}

  void setup(Tally& tally, int rep) override {
    cases_.clear();
    if (kind_ == Kind::Noisy) {
      // The tolerance-matching demos' noise amplitudes: every exact key
      // changes between sweeps while quantized keys still match.
      add_case(0, 2e-7);
      add_case(2, 5e-7);
    } else if (kind_ == Kind::Dynamic) {
      for (const std::size_t i : kDynamicApps) add_case(i, 0.0);
    } else {
      for (std::size_t i = 0; i < kAppCount; ++i) add_case(i, 0.0);
    }
    (void)round(-1 - rep, tally, nullptr);
  }

  RoundSample round(int r, Tally& tally, LayerAccum* layers) override {
    RoundSample sample;
    if (layers != nullptr) layers->traced_wall_s.push_back(0.0);
    for (const Case& c : cases_) {
      const std::unique_ptr<App> app =
          make_seeded_app(c.index, opt_.preset, round_seed(opt_.seed, r));
      RunResult off, got;
      if (r % 2 == 0) {
        off = app->run(c.off);
        got = app->run(c.mode);
      } else {
        got = app->run(c.mode);
        off = app->run(c.off);
      }
      check(*app, c.key, off, got, r, tally);
      sample.wall_s += got.wall_seconds;
      sample.submitted += static_cast<double>(got.counters.submitted);
      sample.executed += static_cast<double>(got.counters.executed);
      sample.correctness_pct = std::min(
          sample.correctness_pct, correctness_percent(app->program_error(off, got)));
      if (layers == nullptr) continue;

      layers->off_wall_s[c.key].push_back(off.wall_seconds);
      layers->mode_wall_s[c.key].push_back(got.wall_seconds);
      RunConfig traced = c.mode;
      traced.tracing = true;
      const RunResult t = app->run(traced);
      check(*app, c.key, off, t, r, tally);
      add_traced_run(*layers, c.key, t);
    }
    return sample;
  }

  [[nodiscard]] std::vector<std::string> app_keys() const override {
    std::vector<std::string> keys;
    for (const Case& c : cases_) keys.push_back(c.key);
    return keys;
  }

 private:
  struct Case {
    std::size_t index = 0;
    std::string key;
    RunConfig off;
    RunConfig mode;
  };

  void add_case(std::size_t index, double noise) {
    Case c;
    c.index = index;
    c.key = kAppKeys[index];
    c.off.threads = workers_;
    c.off.shuffle_seed = opt_.seed;
    c.off.input_noise = noise;
    c.mode = c.off;
    switch (kind_) {
      case Kind::Static: c.mode.mode = AtmMode::Static; break;
      case Kind::Dynamic: c.mode.mode = AtmMode::Dynamic; break;
      case Kind::Noisy:
        // A THT far smaller than the working set, so evictions demote into
        // the RLE-compressed L2 and later lookups promote back out of it.
        // The L2 budget is below the 11-14 MiB the two apps demote, so the
        // L2 runs full and evicts, and its footprint does not follow the
        // inputs.
        c.mode.mode = AtmMode::Static;
        c.mode.tolerance_rel = apps::make_app(c.key, opt_.preset)->tolerance_preset();
        c.mode.tolerance_probes = 4;
        c.mode.log2_buckets = 2;
        c.mode.bucket_capacity = 8;
        c.mode.l2_enabled = true;
        c.mode.l2_compress = true;
        c.mode.l2_budget_bytes = std::size_t{4} << 20;
        break;
    }
    cases_.push_back(std::move(c));
  }

  /// The memoization contract of the workload's mode, against Off.
  void check(const App& app, const std::string& key, const RunResult& off,
             const RunResult& got, int r, Tally& tally) const {
    ++tally.attempted;
    char reason[160] = {};
    if (got.atm.key_gather_oob != 0) {
      std::snprintf(reason, sizeof reason, "atm.key_gather_oob = %llu",
                    static_cast<unsigned long long>(got.atm.key_gather_oob));
    } else if (kind_ == Kind::Static) {
      if (off.output.size() != got.output.size() ||
          std::memcmp(off.output.data(), got.output.data(),
                      off.output.size() * sizeof(double)) != 0) {
        std::snprintf(reason, sizeof reason, "Static output is not bit-identical to Off");
      }
    } else if (kind_ == Kind::Dynamic) {
      const double err = app.program_error(off, got);
      const double tau_max = app.atm_params().tau_max;
      if (!(err <= tau_max)) {
        std::snprintf(reason, sizeof reason, "program error %.6g > tau_max %.6g", err,
                      tau_max);
      }
    } else {
      const double err = chebyshev_relative_error(std::span<const double>(off.output),
                                                  std::span<const double>(got.output));
      const double bound = app.tolerance_error_bound();
      if (!(err <= bound)) {
        std::snprintf(reason, sizeof reason, "max relative error %.6g > bound %.6g", err,
                      bound);
      }
    }
    if (reason[0] != '\0') tally.fail(key, r, reason);
  }

  static void add_traced_run(LayerAccum& layers, const std::string& key,
                             const RunResult& t) {
    // The app's timer stops right after its final taskwait, the master
    // lane's last event; the timed window is the wall time before that.
    const auto& master = t.trace_lanes[t.trace_master_lane];
    const std::uint64_t w1 = master.empty() ? 0 : master.back().t1;
    const auto wall_ns = static_cast<std::uint64_t>(t.wall_seconds * 1e9);
    const std::uint64_t w0 = w1 > wall_ns ? w1 - wall_ns : 0;
    layers.add_lanes(t.trace_lanes, t.trace_master_lane, w0, w1);
    layers.submitted += t.counters.submitted;
    layers.add_registry(t.metrics);
    layers.add_atm(t.atm);
    layers.atm_memory_bytes += t.atm_memory_bytes;
    layers.app_memory_bytes += t.app_memory_bytes;
    layers.final_p[key] = t.final_p;
    layers.traced_wall_s.back() += t.wall_seconds;
    layers.keep_chrome_trace(t.trace_lanes, t.trace_master_lane, t.depth_samples, w0,
                             t.wall_seconds);
  }

  Kind kind_;
  const Options& opt_;
  unsigned workers_;
  std::vector<Case> cases_;
};

float storm_kernel(float x) {
  for (int k = 0; k < 16; ++k) x = x * 1.0001f + 0.0001f;
  return x;
}

/// Fine-grained storm on the bench's own Runtime with no engine: per-task
/// runtime overhead is the whole workload. Every cell is checked against a
/// serial recomputation after every round.
class StormWorkload final : public Workload {
 public:
  explicit StormWorkload(unsigned workers) : workers_(workers) {}

  void setup(Tally& tally, int rep) override {
    runtime_ = std::make_unique<rt::Runtime>(config(false));
    type_ = register_type(*runtime_);
    init_.resize(kStormTasks);
    expected_.resize(kStormTasks);
    for (std::size_t i = 0; i < kStormTasks; ++i) {
      init_[i] = 1.0f + static_cast<float>(i % 1024) * 1e-3f;
      float x = init_[i];
      for (int w = 0; w < kStormWaves; ++w) x = storm_kernel(x);
      expected_[i] = x;
    }
    (void)round(-1 - rep, tally, nullptr);
  }

  RoundSample round(int r, Tally& tally, LayerAccum* layers) override {
    const Timing t = run(*runtime_, type_, r, tally);
    RoundSample sample;
    sample.wall_s = t.wall_s;
    sample.submitted = static_cast<double>(t.submitted);
    sample.executed = static_cast<double>(t.executed);
    sample.correctness_pct = t.correct_pct;
    if (layers == nullptr) return sample;

    layers->submit_ns_per_task.push_back(t.submit_ns / static_cast<double>(t.submitted));
    layers->taskwait_ms.push_back(t.taskwait_ns * 1e-6);
    rt::Runtime traced(config(true));
    const Timing tt = run(traced, register_type(traced), r, tally);
    const rt::TraceRecorder& tracer = traced.tracer();
    std::vector<std::vector<rt::TraceEvent>> lanes;
    for (std::size_t lane = 0; lane < tracer.lane_count(); ++lane) {
      lanes.push_back(tracer.lane(lane));
    }
    layers->add_lanes(lanes, tracer.master_lane(), tt.t0, tt.t1);
    layers->submitted += tt.submitted;
    layers->add_registry(traced.metrics().snapshot());
    layers->traced_wall_s.push_back(tt.wall_s);
    layers->keep_chrome_trace(lanes, tracer.master_lane(), tracer.depth_samples(), tt.t0,
                              tt.wall_s);
    return sample;
  }

  [[nodiscard]] std::vector<std::string> app_keys() const override { return {}; }

 private:
  struct Timing {
    std::uint64_t t0 = 0, t1 = 0;
    double wall_s = 0.0;
    double submit_ns = 0.0;
    double taskwait_ns = 0.0;
    std::uint64_t submitted = 0;
    std::uint64_t executed = 0;
    double correct_pct = 0.0;
  };

  [[nodiscard]] rt::RuntimeConfig config(bool tracing) const {
    return {.num_threads = workers_, .enable_tracing = tracing};
  }

  static const rt::TaskType* register_type(rt::Runtime& runtime) {
    return runtime.register_type({.name = "storm", .memoizable = false, .atm = {}});
  }

  Timing run(rt::Runtime& runtime, const rt::TaskType* type, int r, Tally& tally) {
    cells_ = init_;
    Timing t;
    const std::uint64_t executed0 = runtime.counters().executed;
    t.t0 = now_ns();
    for (int w = 0; w < kStormWaves; ++w) {
      const std::uint64_t s0 = now_ns();
      for (float& cell : cells_) {
        float* c = &cell;
        runtime.submit(type, [c] { *c = storm_kernel(*c); }, {rt::inout(c, 1)});
      }
      const std::uint64_t s1 = now_ns();
      runtime.taskwait();
      const std::uint64_t s2 = now_ns();
      t.submit_ns += static_cast<double>(s1 - s0);
      t.taskwait_ns += static_cast<double>(s2 - s1);
    }
    t.t1 = now_ns();
    t.wall_s = static_cast<double>(t.t1 - t.t0) * 1e-9;
    t.submitted = kStormTasks * kStormWaves;
    t.executed = runtime.counters().executed - executed0;

    ++tally.attempted;
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < kStormTasks; ++i) wrong += cells_[i] != expected_[i];
    t.correct_pct = 100.0 * static_cast<double>(kStormTasks - wrong) /
                    static_cast<double>(kStormTasks);
    if (wrong != 0) {
      tally.fail("storm", r,
                 std::to_string(wrong) + " cells differ from the serial recomputation");
    }
    return t;
  }

  unsigned workers_;
  std::unique_ptr<rt::Runtime> runtime_;
  const rt::TaskType* type_ = nullptr;
  std::vector<float> init_, expected_, cells_;
};

// --- metrics -----------------------------------------------------------------

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<Metric> end_to_end(const std::vector<RoundSample>& samples,
                               const std::vector<double>& setup_s) {
  std::vector<double> wall_ms, ns_per_task, correctness;
  double executed = 0.0, submitted = 0.0;
  for (const RoundSample& s : samples) {
    wall_ms.push_back(s.wall_s * 1e3);
    ns_per_task.push_back(ratio(s.wall_s * 1e9, s.submitted));
    correctness.push_back(s.correctness_pct);
    executed += s.executed;
    submitted += s.submitted;
  }
  return {
      {"setup_s", median(setup_s), "s"},
      {"wall_ms", median(wall_ms), "ms"},
      {"wall_ms_p80", quantile(wall_ms, 0.8), "ms"},
      {"ns_per_task", median(ns_per_task), "ns"},
      // Summed over the run: a per-round share of a few hundred tasks takes
      // only a handful of values, and its median jumps between them.
      {"executed_pct", 100.0 * ratio(executed, submitted), "%"},
      {"correctness_pct", median(correctness), "%"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
}

std::vector<Metric> per_layer(const LayerAccum& a, const std::vector<std::string>& keys) {
  const double lanes_wall = static_cast<double>(a.lanes_wall_ns);
  const double rounds = std::max<std::size_t>(1, a.traced_wall_s.size());
  auto share = [&](rt::TraceState s) {
    return 100.0 * ratio(static_cast<double>(a.state_ns[static_cast<std::size_t>(s)]),
                         lanes_wall);
  };
  double recorded_pct = 0.0;
  for (std::size_t s = 0; s < rt::kTraceStateCount; ++s) {
    if (s != static_cast<std::size_t>(rt::TraceState::RuntimeOther)) {
      recorded_pct += share(static_cast<rt::TraceState>(s));
    }
  }
  const bool storm = keys.empty();
  const AtmStatsSnapshot& atm = a.atm;
  const double hits = static_cast<double>(atm.total_hits());
  const double inserts = static_cast<double>(atm.keys_computed) - hits;

  std::vector<Metric> m = {
      {"runtime.submit_ns_per_task",
       storm ? median(a.submit_ns_per_task)
             : ratio(static_cast<double>(a.master_creation_ns),
                     static_cast<double>(a.submitted)),
       "ns"},
      {"runtime.taskwait_ms",
       storm ? median(a.taskwait_ms)
             : static_cast<double>(a.master_helping_ns) * 1e-6 / rounds,
       "ms"},
      {"runtime.creation_pct", share(rt::TraceState::Creation), "%"},
      {"runtime.helping_pct", share(rt::TraceState::Helping), "%"},
      {"runtime.idle_pct", share(rt::TraceState::Idle), "%"},
      {"runtime.other_pct", 100.0 - recorded_pct, "%"},
      {"runtime.dep_exact_hits", a.dep_exact_hits / rounds, "count"},
      {"runtime.dep_tree_fallbacks", a.dep_tree_fallbacks / rounds, "count"},
      {"runtime.steal_success_pct",
       100.0 * ratio(a.steal_attempts - a.steal_fails, a.steal_attempts), "%"},
      {"runtime.steal_batch_mean", ratio(a.steal_batch_sum, a.steal_batch_count), "tasks"},
      {"runtime.arena_peak_slots", a.arena_peak_slots, "slots"},
      {"atm.key_ns", ratio(static_cast<double>(atm.hash_ns),
                           static_cast<double>(atm.keys_computed)), "ns"},
      {"atm.key_bytes", ratio(static_cast<double>(atm.hash_bytes),
                              static_cast<double>(atm.keys_computed)), "B"},
      {"atm.hash_pct", share(rt::TraceState::HashKey), "%"},
      {"atm.memoize_pct", share(rt::TraceState::Memoize), "%"},
      {"atm.copy_ns_per_hit", ratio(static_cast<double>(atm.copy_out_ns), hits), "ns"},
      {"atm.update_ns_per_insert", ratio(static_cast<double>(atm.update_ns), inserts),
       "ns"},
      {"atm.tht_hit_pct",
       100.0 * ratio(static_cast<double>(atm.tht_hits),
                     static_cast<double>(atm.tht_hits + atm.tht_misses)),
       "%"},
      {"atm.ikt_deferred", static_cast<double>(atm.ikt_hits) / rounds, "count"},
      {"atm.training_hits", static_cast<double>(atm.training_hits) / rounds, "count"},
      {"atm.training_failures", static_cast<double>(atm.training_failures) / rounds,
       "count"},
      {"atm.tolerance_hits", static_cast<double>(atm.tolerance_hits) / rounds, "count"},
      {"atm.probe_hits", static_cast<double>(atm.probe_hits) / rounds, "count"},
      {"atm.mem_pct",
       100.0 * ratio(static_cast<double>(a.atm_memory_bytes),
                     static_cast<double>(a.app_memory_bytes)),
       "%"},
      {"store.l2_hits", static_cast<double>(atm.l2_hits) / rounds, "count"},
      {"store.l2_hit_pct",
       100.0 * ratio(static_cast<double>(atm.l2_hits), static_cast<double>(atm.tht_misses)),
       "%"},
      {"store.l2_demotions", static_cast<double>(atm.l2_demotions) / rounds, "count"},
      {"store.l2_evictions", static_cast<double>(atm.l2_evictions) / rounds, "count"},
      {"store.l2_payload_mb",
       static_cast<double>(atm.l2_payload_bytes) / rounds / (1024.0 * 1024.0), "MiB"},
      {"apps.body_pct", share(rt::TraceState::TaskExec), "%"},
      {"apps.body_ns_per_exec",
       ratio(static_cast<double>(a.state_ns[static_cast<std::size_t>(
                 rt::TraceState::TaskExec)]),
             static_cast<double>(a.exec_events)),
       "ns"},
      {"obs.trace_overhead_pct",
       100.0 * (ratio(median(a.traced_wall_s), median(a.untraced_wall_s)) - 1.0), "%"},
  };

  // Per-app rows; an app outside this workload reports 0. Only the apps of
  // apps-dynamic train p, so only they have a final_p row.
  double log_speedup = 0.0;
  for (std::size_t i = 0; i < kAppCount; ++i) {
    const std::string k = kAppKeys[i];
    const bool present = std::find(keys.begin(), keys.end(), k) != keys.end();
    double speedup = 0.0, wall_ms = 0.0;
    if (present) {
      speedup = ratio(median(a.off_wall_s.at(k)), median(a.mode_wall_s.at(k)));
      wall_ms = median(a.mode_wall_s.at(k)) * 1e3;
      log_speedup += std::log(speedup);
    }
    if (std::find(std::begin(kDynamicApps), std::end(kDynamicApps), i) !=
        std::end(kDynamicApps)) {
      m.push_back({"atm.final_p." + k, present ? a.final_p.at(k) : 0.0, "fraction"});
    }
    m.push_back({"atm.speedup_vs_off." + k, speedup, "x"});
    m.push_back({"apps." + k + ".wall_ms", wall_ms, "ms"});
  }
  m.push_back({"atm.speedup_vs_off",
               keys.empty() ? 0.0 : std::exp(log_speedup / static_cast<double>(keys.size())),
               "x"});
  return m;
}

// --- JSON output -------------------------------------------------------------

std::string json_str(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// All digits of the measurement; a non-finite value becomes null, which the
/// wrapper rejects.
std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string compiler() {
#if defined(__clang__)
  return "clang " __VERSION__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);

#ifdef __GLIBC__
  // glibc slides its mmap threshold up after each large free, so whether a
  // round's large buffers come back from a thread's arena or from fresh
  // pages depends on which thread freed what, and peak RSS wandered by 10%
  // between identical runs. A fixed threshold unmaps large buffers on free
  // and a high trim threshold keeps small ones resident, so every round
  // starts from the same heap and peak RSS repeats within 1%.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif

#ifdef NDEBUG
  bool nonrelease = false;
#else
  bool nonrelease = true;
#endif
#ifdef ATM_BENCH_SANITIZED
  nonrelease = true;
#endif
  if (nonrelease && !opt.allow_nonrelease) {
    std::fprintf(stderr,
                 "atm_bench: refusing to measure a debug or sanitizer build "
                 "(pass --allow-nonrelease to override)\n");
    return 3;
  }

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  // nproc - 1 workers plus the submitting master thread.
  const unsigned workers = std::max(1u, nproc - 1);
  std::unique_ptr<Workload> workload;
  if (opt.workload == "apps-static") {
    workload = std::make_unique<AppsWorkload>(AppsWorkload::Kind::Static, opt, workers);
  } else if (opt.workload == "apps-dynamic") {
    workload = std::make_unique<AppsWorkload>(AppsWorkload::Kind::Dynamic, opt, workers);
  } else if (opt.workload == "noisy-tiered") {
    workload = std::make_unique<AppsWorkload>(AppsWorkload::Kind::Noisy, opt, workers);
  } else if (opt.workload == "runtime-storm") {
    workload = std::make_unique<StormWorkload>(workers);
  } else {
    usage("unknown workload " + opt.workload);
  }

  Tally tally;
  std::vector<double> setup_s;
  const int setup_reps = opt.traced ? 1 : opt.setup_reps;
  for (int rep = 0; rep < setup_reps; ++rep) {
    Timer timer;
    workload->setup(tally, rep);
    setup_s.push_back(timer.elapsed_s());
  }

  LayerAccum layers;
  std::vector<RoundSample> samples;
  Timer timed;
  for (int r = 0;; ++r) {
    const bool done = opt.rounds > 0
                          ? r >= opt.rounds
                          : r >= kMinRounds && timed.elapsed_s() >= opt.seconds;
    if (done) break;
    samples.push_back(workload->round(r, tally, opt.traced ? &layers : nullptr));
    if (opt.traced) layers.untraced_wall_s.push_back(samples.back().wall_s);
  }

  std::vector<Metric> metrics;
  // The traced split must add up: a lane whose recorded states overlap
  // would hold more than its window.
  bool split_ok = true;
  if (opt.traced) {
    metrics = per_layer(layers, workload->app_keys());
    split_ok = layers.max_lane_overfill <= 0.01;
    if (!split_ok) {
      std::fprintf(stderr, "atm_bench: lane split overfills a lane by %.3f%%\n",
                   100.0 * layers.max_lane_overfill);
    }
    if (!opt.trace_dir.empty() && !layers.chrome_lanes.empty()) {
      const std::string path = opt.trace_dir + "/" + opt.workload + ".trace.json";
      std::ofstream(path) << obs::chrome_trace_json(layers.chrome_lanes,
                                                    layers.chrome_master,
                                                    layers.chrome_depth);
    }
  } else {
    metrics = end_to_end(samples, setup_s);
  }

  const std::size_t failed = tally.failures.size();
  std::string out = "{\"schema_version\":" + std::to_string(kSchemaVersion);
  out += ",\"workload\":" + json_str(opt.workload);
  out += ",\"traced\":" + std::string(opt.traced ? "true" : "false");
  out += ",\"seed\":" + std::to_string(opt.seed);
  out += ",\"preset\":" + json_str(opt.preset == apps::Preset::Test ? "test" : "bench");
  out += ",\"rounds\":" + std::to_string(samples.size());
  out += ",\"setup_reps\":" + std::to_string(setup_reps);
  out += ",\"host\":{\"nproc\":" + std::to_string(nproc);
  out += ",\"workers\":" + std::to_string(workers);
  out += ",\"compiler\":" + json_str(compiler());
  out += ",\"build_type\":" + json_str(ATM_BENCH_BUILD_TYPE);
  out += ",\"nonrelease\":" + std::string(nonrelease ? "true" : "false");
#ifdef ATM_OBS_DISABLED
  out += ",\"atm_obs\":false";
#else
  out += ",\"atm_obs\":true";
#endif
  out += ",\"git_sha\":" + json_str(opt.git_sha) + "}";
  out += ",\"correct\":" + std::string(failed == 0 && split_ok ? "true" : "false");
  out += ",\"attempted\":" + std::to_string(tally.attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"failed_pct\":" +
         json_num(100.0 * ratio(static_cast<double>(failed),
                                static_cast<double>(tally.attempted)));
  out += ",\"failures\":[";
  for (std::size_t i = 0; i < failed; ++i) {
    const Failure& f = tally.failures[i];
    out += (i ? "," : "") + std::string("{\"app\":") + json_str(f.app) +
           ",\"round\":" + std::to_string(f.round) + ",\"reason\":" + json_str(f.reason) +
           "}";
  }
  out += "]";
  if (opt.traced) {
    out += ",\"split\":{\"lanes_x_wall_ms\":" +
           json_num(static_cast<double>(layers.lanes_wall_ns) * 1e-6) +
           ",\"max_lane_overfill_pct\":" + json_num(100.0 * layers.max_lane_overfill) + "}";
  }
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? "," : "") + json_str(metrics[i].name) + ":{\"value\":" +
           json_num(metrics[i].value) + ",\"unit\":" + json_str(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
