// Property tests for tolerance-quantized memo keys (src/atm/tolerance.hpp,
// the tolerance overloads of compute_key):
//
//  * quantization guarantees — inputs within epsilon of a cell center share
//    the cell; inputs separated by more than a full cell never do; special
//    value classes (NaN/Inf/denormal/zero) never alias finite normals;
//  * key-level consequences — near-equal tasks get equal keys, clearly
//    separated tasks get different keys w.h.p.;
//  * epsilon = 0 is bit-identical to the exact raw-bytes digests on both
//    gather paths;
//  * the plan path and the order path agree on the FULL KeyResult (primary
//    key and probe list) in tolerance mode — the Zobrist XOR digest is
//    gather-order independent, unlike the exact digest;
//  * near-boundary values emit a probe list that contains the neighboring
//    cell's primary key (the multi-probe containment property);
//  * values past the grid's int64 index range get exact cells;
//  * the key values themselves are pinned, and the batched plan path agrees
//    with the per-element order path on adversarial tasks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "atm/hash_key.hpp"
#include "atm/input_sampler.hpp"
#include "atm/tolerance.hpp"
#include "common/rng.hpp"

namespace atm {
namespace {

constexpr std::uint64_t kSeed = 0x5eedULL;

rt::Task make_task(const double* data, std::size_t n) {
  rt::Task t;
  t.accesses.push_back(rt::in(data, n));
  return t;
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

Quantized quant(double v, const ToleranceSpec& spec, bool subnormal = false) {
  return quantize_value(v, bits_of(v), spec, subnormal);
}

// --- quantize_value: grid guarantees ---------------------------------------

TEST(ToleranceQuantize, AbsoluteWithinEpsilonOfCenterSharesCell) {
  const ToleranceSpec spec{.abs = 1e-3};
  Rng rng(kSeed);
  for (int i = 0; i < 2000; ++i) {
    // Random cell center k * 2*eps, jittered strictly inside +-eps.
    const double center =
        static_cast<double>(static_cast<std::int64_t>(rng.next_below(2'000'001)) -
                            1'000'000) *
        2.0 * spec.abs;
    const double jitter = rng.next_double(-0.99, 0.99) * spec.abs;
    EXPECT_EQ(quant(center, spec).cell, quant(center + jitter, spec).cell)
        << center << " + " << jitter;
  }
}

TEST(ToleranceQuantize, AbsoluteSeparationBeyondTwoEpsilon) {
  const ToleranceSpec spec{.abs = 1e-3};
  Rng rng(kSeed + 1);
  for (int i = 0; i < 2000; ++i) {
    const double a = rng.next_double(-50.0, 50.0);
    const double gap = rng.next_double(2.001, 10.0) * spec.abs;
    EXPECT_NE(quant(a, spec).cell, quant(a + gap, spec).cell) << a << " gap " << gap;
  }
}

TEST(ToleranceQuantize, RelativeWithinEpsilonOfCenterSharesCell) {
  const ToleranceSpec spec{.rel = 1e-3};
  const double ratio = (1.0 + spec.rel) * (1.0 + spec.rel);
  Rng rng(kSeed + 2);
  for (int i = 0; i < 2000; ++i) {
    // Random cell center ratio^k, jittered by a factor strictly inside
    // (1/(1+eps), 1+eps) — the cell's log-space half-width is log1p(eps).
    const auto k = static_cast<int>(rng.next_below(201)) - 100;
    const double sign = rng.next_below(2) != 0 ? -1.0 : 1.0;
    const double center = sign * std::pow(ratio, k);
    const double factor = 1.0 + rng.next_double(-0.9, 0.9) * spec.rel;
    EXPECT_EQ(quant(center, spec).cell, quant(center * factor, spec).cell)
        << center << " * " << factor;
  }
}

TEST(ToleranceQuantize, RelativeSeparationBeyondCellRatio) {
  const ToleranceSpec spec{.rel = 1e-3};
  const double ratio = (1.0 + spec.rel) * (1.0 + spec.rel);
  Rng rng(kSeed + 3);
  for (int i = 0; i < 2000; ++i) {
    const double a = rng.next_double(1e-6, 1e6);
    const double factor = ratio * rng.next_double(1.001, 3.0);
    EXPECT_NE(quant(a, spec).cell, quant(a * factor, spec).cell) << a << " * " << factor;
  }
}

TEST(ToleranceQuantize, RelativeSignsNeverAlias) {
  const ToleranceSpec spec{.rel = 1e-2};
  for (double v : {1.0, 0.5, 123.25, 1e-9, 7e11}) {
    EXPECT_NE(quant(v, spec).cell, quant(-v, spec).cell) << v;
  }
}

// --- quantize_value: special classes stay isolated -------------------------

TEST(ToleranceQuantize, SpecialClassesNeverAliasFiniteNormals) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double denorm = std::numeric_limits<double>::denorm_min();
  for (const ToleranceSpec spec : {ToleranceSpec{.rel = 1e-3}, ToleranceSpec{.abs = 1e-3}}) {
    std::vector<std::uint64_t> specials{quant(nan, spec).cell, quant(inf, spec).cell,
                                        quant(-inf, spec).cell,
                                        quant(denorm, spec, true).cell};
    Rng rng(kSeed + 4);
    for (int i = 0; i < 500; ++i) {
      const double v = rng.next_double(-1e9, 1e9);
      if (v == 0.0) continue;
      const std::uint64_t cell = quant(v, spec).cell;
      for (std::uint64_t s : specials) EXPECT_NE(cell, s) << v;
    }
    // The classes are also distinct from each other.
    for (std::size_t i = 0; i < specials.size(); ++i) {
      for (std::size_t j = i + 1; j < specials.size(); ++j) {
        EXPECT_NE(specials[i], specials[j]) << i << " vs " << j;
      }
    }
  }
}

TEST(ToleranceQuantize, AllNansShareOneCell) {
  const ToleranceSpec spec{.rel = 1e-3};
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  const double snan = std::numeric_limits<double>::signaling_NaN();
  EXPECT_EQ(quant(qnan, spec).cell, quant(-qnan, spec).cell);
  EXPECT_EQ(quant(qnan, spec).cell, quant(snan, spec).cell);
}

TEST(ToleranceQuantize, DenormalsMatchExactly) {
  const ToleranceSpec spec{.rel = 1e-3};
  const double d1 = std::numeric_limits<double>::denorm_min();
  const double d2 = 2.0 * d1;
  EXPECT_EQ(quant(d1, spec, true).cell, quant(d1, spec, true).cell);
  EXPECT_NE(quant(d1, spec, true).cell, quant(d2, spec, true).cell);
}

TEST(ToleranceQuantize, RelativeZeroGetsItsOwnCell) {
  const ToleranceSpec spec{.rel = 1e-3};
  EXPECT_NE(quant(0.0, spec).cell, quant(1e-300, spec).cell);
  EXPECT_EQ(quant(0.0, spec).cell, quant(-0.0, spec).cell);
}

TEST(ToleranceQuantize, AbsoluteZeroSharesCellZeroWithTinyValues) {
  // The absolute grid treats zero like any grid value: cell 0 covers
  // (-eps, eps), so a tiny value within eps matches zero — by design.
  const ToleranceSpec spec{.abs = 1e-3};
  EXPECT_EQ(quant(0.0, spec).cell, quant(0.5e-3, spec).cell);
}

TEST(ToleranceQuantize, NeighborIsTheAdjacentCell) {
  const ToleranceSpec spec{.abs = 0.5};
  // 0.9 lives in cell 1 (center 1.0, width 1.0), below center: neighbor is
  // cell 0; 1.2 is above center: neighbor is cell 2.
  const Quantized below = quant(0.9, spec);
  const Quantized above = quant(1.2, spec);
  ASSERT_TRUE(below.probeable);
  ASSERT_TRUE(above.probeable);
  EXPECT_EQ(below.neighbor, quant(0.1, spec).cell);
  EXPECT_EQ(above.neighbor, quant(2.1, spec).cell);
  EXPECT_EQ(below.cell, above.cell);
}

// --- key level: epsilon = 0 delegates to the exact digest ------------------

TEST(ToleranceKey, InactiveSpecIsBitIdenticalToExactKeys) {
  std::vector<double> a(96);
  Rng rng(kSeed + 5);
  for (auto& v : a) v = rng.next_double(-10.0, 10.0);
  const auto t = make_task(a.data(), a.size());
  InputSampler sampler(true, 1);
  const auto layout = InputLayout::from_task(t);
  const auto& order = sampler.order_for(0, layout);
  const ToleranceSpec off{};  // rel = abs = 0
  for (double p : {1.0, 0.5, 0.125, 1.0 / 4096}) {
    const auto exact = compute_key(t, order, p, 9);
    const auto tol = compute_key(t, order, p, 9, off);
    EXPECT_EQ(exact.key, tol.key) << p;
    EXPECT_EQ(exact.bytes_hashed, tol.bytes_hashed) << p;
    EXPECT_EQ(tol.probe_count, 0u) << p;

    const GatherPlan& plan = sampler.plan_for(0, layout, p);
    EXPECT_EQ(compute_key(t, plan, 9).key, compute_key(t, plan, 9, off).key) << p;
  }
}

// --- key level: near-equal inputs, equal keys ------------------------------

TEST(ToleranceKey, InputsWithinEpsilonOfCentersGetEqualKeys) {
  const ToleranceSpec spec{.rel = 1e-3};
  const double ratio = (1.0 + spec.rel) * (1.0 + spec.rel);
  Rng rng(kSeed + 6);
  std::vector<double> a(64), b(64);
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Both tasks sit in the same cell: center ratio^k times a sub-epsilon
    // factor each.
    const auto k = static_cast<int>(rng.next_below(41)) - 20;
    const double center = std::pow(ratio, k);
    a[i] = center * (1.0 + rng.next_double(-0.9, 0.9) * spec.rel);
    b[i] = center * (1.0 + rng.next_double(-0.9, 0.9) * spec.rel);
  }
  const auto ta = make_task(a.data(), a.size());
  const auto tb = make_task(b.data(), b.size());
  InputSampler sampler(true, 1);
  const auto layout = InputLayout::from_task(ta);
  const auto& order = sampler.order_for(0, layout);
  for (double p : {1.0, 0.5, 1.0 / 64}) {
    EXPECT_EQ(compute_key(ta, order, p, 9, spec).key,
              compute_key(tb, order, p, 9, spec).key)
        << p;
  }
  const GatherPlan& plan = sampler.plan_for(0, layout, 1.0);
  EXPECT_EQ(compute_key(ta, plan, 9, spec).key, compute_key(tb, plan, 9, spec).key);
}

TEST(ToleranceKey, SeparatedCoordinateChangesKey) {
  // Two tasks identical except one sampled coordinate separated by more
  // than a full cell must get different keys (w.h.p. — equality would need
  // a 64-bit XOR coincidence).
  const ToleranceSpec spec{.abs = 1e-3};
  std::vector<double> a(64, 1.0);
  auto b = a;
  b[17] += 3.0 * spec.abs;
  const auto ta = make_task(a.data(), a.size());
  const auto tb = make_task(b.data(), b.size());
  InputSampler sampler(true, 1);
  const auto layout = InputLayout::from_task(ta);
  const auto& order = sampler.order_for(0, layout);
  // p = 1: every element (incl. index 17) is sampled.
  EXPECT_NE(compute_key(ta, order, 1.0, 9, spec).key,
            compute_key(tb, order, 1.0, 9, spec).key);
  const GatherPlan& plan = sampler.plan_for(0, layout, 1.0);
  EXPECT_NE(compute_key(ta, plan, 9, spec).key, compute_key(tb, plan, 9, spec).key);
}

TEST(ToleranceKey, SeedSeparatesKeySpaces) {
  const ToleranceSpec spec{.rel = 1e-3};
  std::vector<double> a(32, 2.5);
  const auto t = make_task(a.data(), a.size());
  InputSampler sampler(true, 1);
  const auto& order = sampler.order_for(0, InputLayout::from_task(t));
  EXPECT_NE(compute_key(t, order, 1.0, 1, spec).key,
            compute_key(t, order, 1.0, 2, spec).key);
}

TEST(ToleranceKey, FingerprintChangesWithEpsilon) {
  const ToleranceSpec a{.rel = 1e-3};
  const ToleranceSpec b{.rel = 2e-3};
  const ToleranceSpec c{.abs = 1e-3};
  EXPECT_NE(a.fingerprint(), 0u);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  EXPECT_NE(a.fingerprint(), c.fingerprint());
  EXPECT_EQ(ToleranceSpec{}.fingerprint(), 0u);
}

// --- key level: plan path and order path agree -----------------------------

TEST(ToleranceKey, PlanAndOrderPathsAgreeOnFullKeyResult) {
  // The Zobrist XOR digest is gather-order independent: for every p, both
  // paths must produce the same primary key AND the same probe list — the
  // engine may mix them (plan cache hit vs cold order path) freely.
  const ToleranceSpec spec{.rel = 1e-3, .probes = 4};
  Rng rng(kSeed + 7);
  for (int round = 0; round < 8; ++round) {
    std::vector<double> a(16 + rng.next_below(200));
    for (auto& v : a) v = rng.next_double(-100.0, 100.0);
    const auto t = make_task(a.data(), a.size());
    InputSampler sampler(round % 2 == 0, 1 + round);
    const auto layout = InputLayout::from_task(t);
    const auto& order = sampler.order_for(0, layout);
    for (double p : {1.0, 0.5, 0.25, 1.0 / 128}) {
      const auto via_order = compute_key(t, order, p, 9, spec);
      const auto via_plan = compute_key(t, sampler.plan_for(0, layout, p), 9, spec);
      EXPECT_EQ(via_order.key, via_plan.key) << round << " p=" << p;
      EXPECT_EQ(via_order.bytes_hashed, via_plan.bytes_hashed) << round << " p=" << p;
      ASSERT_EQ(via_order.probe_count, via_plan.probe_count) << round << " p=" << p;
      for (unsigned i = 0; i < via_order.probe_count; ++i) {
        EXPECT_EQ(via_order.probes[i], via_plan.probes[i]) << round << " p=" << p;
      }
    }
  }
}

TEST(ToleranceKey, MultiRegionPlanAndOrderAgree) {
  const ToleranceSpec spec{.abs = 1e-2, .probes = 8};
  std::vector<double> x(31), y(17);
  std::vector<float> z(53);
  Rng rng(kSeed + 8);
  for (auto& v : x) v = rng.next_double(-5.0, 5.0);
  for (auto& v : y) v = rng.next_double(-5.0, 5.0);
  for (auto& v : z) v = rng.next_float(-5.0f, 5.0f);
  rt::Task t;
  t.accesses.push_back(rt::in(x.data(), x.size()));
  t.accesses.push_back(rt::in(z.data(), z.size()));
  t.accesses.push_back(rt::in(y.data(), y.size()));
  InputSampler sampler(true, 3);
  const auto layout = InputLayout::from_task(t);
  const auto& order = sampler.order_for(0, layout);
  for (double p : {1.0, 0.3, 1.0 / 64}) {
    const auto via_order = compute_key(t, order, p, 9, spec);
    const auto via_plan = compute_key(t, sampler.plan_for(0, layout, p), 9, spec);
    EXPECT_EQ(via_order.key, via_plan.key) << p;
    ASSERT_EQ(via_order.probe_count, via_plan.probe_count) << p;
    for (unsigned i = 0; i < via_order.probe_count; ++i) {
      EXPECT_EQ(via_order.probes[i], via_plan.probes[i]) << p;
    }
  }
}

// --- multi-probe: neighbor containment -------------------------------------

TEST(ToleranceProbe, NearBoundaryProbesContainNeighborPrimaryKey) {
  // Task A has one element just below a cell boundary; task B is identical
  // except that element sits just above it. A's probe list must contain B's
  // primary key (and vice versa): the multi-probe lookup finds the entry a
  // jittered twin published one cell over.
  const ToleranceSpec spec{.abs = 1e-3, .probes = 4};
  std::vector<double> a(32, 10.0);  // 10.0 = 5000 * 2e-3: dead center, stable
  auto b = a;
  const double boundary = 2.0 * spec.abs * 7.5;  // between cells 7 and 8
  a[5] = boundary - 0.1 * spec.abs;
  b[5] = boundary + 0.1 * spec.abs;
  const auto ta = make_task(a.data(), a.size());
  const auto tb = make_task(b.data(), b.size());
  InputSampler sampler(true, 1);
  const auto layout = InputLayout::from_task(ta);
  const GatherPlan& plan = sampler.plan_for(0, layout, 1.0);
  const auto ka = compute_key(ta, plan, 9, spec);
  const auto kb = compute_key(tb, plan, 9, spec);
  ASSERT_NE(ka.key, kb.key);
  ASSERT_GT(ka.probe_count, 0u);
  ASSERT_GT(kb.probe_count, 0u);
  bool a_probes_b = false;
  for (unsigned i = 0; i < ka.probe_count; ++i) a_probes_b |= ka.probes[i] == kb.key;
  bool b_probes_a = false;
  for (unsigned i = 0; i < kb.probe_count; ++i) b_probes_a |= kb.probes[i] == ka.key;
  EXPECT_TRUE(a_probes_b);
  EXPECT_TRUE(b_probes_a);
}

TEST(ToleranceProbe, ProbeCountRespectsSpecAndCandidates) {
  const double step = 2e-3;  // cell width for abs = 1e-3
  std::vector<double> a(64);
  // Every element sits at 0.4 cell widths off its center — inside the probe
  // band, so all 64 are candidates and the top-K ranking caps the list.
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = (static_cast<double>(i) + 0.4) * step;
  }
  const auto t = make_task(a.data(), a.size());
  InputSampler sampler(true, 1);
  const auto layout = InputLayout::from_task(t);
  const GatherPlan& plan = sampler.plan_for(0, layout, 1.0);
  for (unsigned probes : {0u, 1u, 4u, 8u, 100u}) {
    const ToleranceSpec spec{.abs = 1e-3, .probes = probes};
    const auto k = compute_key(t, plan, 9, spec);
    // 64 candidates are available, so the list fills to the clamped cap.
    EXPECT_EQ(k.probe_count, spec.clamped_probes()) << probes;
    // Each probe key differs from the primary (it flips one cell).
    for (unsigned i = 0; i < k.probe_count; ++i) EXPECT_NE(k.probes[i], k.key);
  }
}

TEST(ToleranceProbe, CenteredElementsEmitNoProbes) {
  // Every element exactly at a cell center (|frac| = 0 < the probe band):
  // no probe candidates at all.
  const ToleranceSpec spec{.abs = 0.5, .probes = 8};
  std::vector<double> a(32);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<double>(i);  // centers
  const auto t = make_task(a.data(), a.size());
  InputSampler sampler(true, 1);
  const GatherPlan& plan = sampler.plan_for(0, InputLayout::from_task(t), 1.0);
  EXPECT_EQ(compute_key(t, plan, 9, spec).probe_count, 0u);
}

// --- integers under tolerance: exact per-element cells ---------------------

TEST(ToleranceKey, IntegerElementsStayExact) {
  const ToleranceSpec spec{.rel = 0.5, .probes = 4};  // huge epsilon
  std::vector<std::int32_t> a(64, 41);
  auto b = a;
  b[9] = 42;  // off by one: integers never quantize, keys must differ
  rt::Task ta, tb;
  ta.accesses.push_back(rt::in(a.data(), a.size()));
  tb.accesses.push_back(rt::in(b.data(), b.size()));
  InputSampler sampler(true, 1);
  const auto layout = InputLayout::from_task(ta);
  const auto& order = sampler.order_for(0, layout);
  const GatherPlan& plan = sampler.plan_for(0, layout, 1.0);
  EXPECT_NE(compute_key(ta, order, 1.0, 9, spec).key,
            compute_key(tb, order, 1.0, 9, spec).key);
  // Identical integer tasks agree across both paths.
  const auto ka = compute_key(ta, order, 1.0, 9, spec);
  EXPECT_EQ(ka.key, compute_key(ta, plan, 9, spec).key);
  EXPECT_EQ(ka.probe_count, 0u);  // integers are never probe candidates
}

TEST(ToleranceKey, Float32ElementsQuantize) {
  const ToleranceSpec spec{.rel = 1e-3};
  const double ratio = (1.0 + spec.rel) * (1.0 + spec.rel);
  std::vector<float> a(64);
  // Anchor every value at a cell center (an arbitrary offset can sit close
  // enough to a boundary for even a tiny jitter to cross it).
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(std::pow(ratio, static_cast<int>(i) - 32));
  }
  auto b = a;
  for (auto& v : b) v *= 1.0f + 1e-5f;  // well inside the 1e-3 cell half-width
  rt::Task ta, tb;
  ta.accesses.push_back(rt::in(a.data(), a.size()));
  tb.accesses.push_back(rt::in(b.data(), b.size()));
  InputSampler sampler(true, 1);
  const auto layout = InputLayout::from_task(ta);
  const GatherPlan& plan = sampler.plan_for(0, layout, 1.0);
  EXPECT_EQ(compute_key(ta, plan, 9, spec).key, compute_key(tb, plan, 9, spec).key);
  // The exact digest disagrees on the same inputs — the point of the mode.
  EXPECT_NE(compute_key(ta, plan, 9).key, compute_key(tb, plan, 9).key);
}

// --- the relative grid's index range ---------------------------------------

TEST(ToleranceQuantize, TinyRelativeEpsilonKeepsValuesApart) {
  // At rel = 1e-20 the grid coordinate log|v| / (2 log1p(rel)) of 100 is
  // ~2.3e20, far past the int64 cell index. Such values fall back to exact
  // cells, as on the absolute grid, instead of all sharing one cell.
  const ToleranceSpec spec{.rel = 1e-20, .probes = 4};
  const Quantized a = quant(100.0, spec);
  const Quantized b = quant(5000.0, spec);
  EXPECT_NE(a.cell, b.cell);
  EXPECT_FALSE(a.probeable);
  EXPECT_NE(quant(0.001, spec).cell, quant(3.0, spec).cell);

  const double va = 100.0;
  const double vb = 5000.0;
  const auto ta = make_task(&va, 1);
  const auto tb = make_task(&vb, 1);
  InputSampler sampler(true, 1);
  const GatherPlan& plan = sampler.plan_for(0, InputLayout::from_task(ta), 1.0);
  EXPECT_NE(compute_key(ta, plan, 9, spec).key, compute_key(tb, plan, 9, spec).key);
}

// --- pinned key values -------------------------------------------------------

/// Fixed inputs for KeysMatchPinnedValues, built with arithmetic only (no
/// Rng, no libm), so the inputs cannot drift with the code under test.
struct PinnedInputs {
  std::vector<double> f64;
  std::vector<float> f32;
  std::vector<std::int32_t> i32;
  std::vector<double> odd;  // backs an F64 region with a 3-byte trailing element
  // Equal values 0.4 cell widths off center on every grid below: more equal
  // probe scores than probe slots, so feed order must break the ties.
  std::vector<double> ties = std::vector<double>(12, 0.74);

  PinnedInputs() {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const double dmin = std::numeric_limits<double>::denorm_min();
    for (int i = 0; i < 40; ++i) f64.push_back((i % 9 - 4) * 0.3719 + i * 0.0173);
    f64[3] = nan;
    f64[7] = inf;
    f64[11] = -inf;
    f64[13] = dmin;
    f64[17] = -3.0 * dmin;
    f64[19] = 0.0;
    f64[23] = -0.0;
    f64[29] = 1e300;
    f64[31] = -1e-300;
    f64[37] = -2.5e4;

    for (int i = 0; i < 48; ++i) {
      f32.push_back(static_cast<float>(i % 11 - 5) * 0.219f +
                    static_cast<float>(i) * 0.011f);
    }
    f32[2] = 1e-40f;  // subnormal as a float, normal once widened
    f32[5] = -1e-41f;
    f32[8] = std::numeric_limits<float>::quiet_NaN();
    f32[12] = std::numeric_limits<float>::infinity();
    f32[15] = 0.0f;
    f32[21] = -0.0f;
    f32[30] = -7.5e3f;

    for (int i = 0; i < 16; ++i) i32.push_back(i * i * 37 - 400);
    for (int i = 0; i < 6; ++i) odd.push_back(1.0 / (i + 3) - 0.2);
  }

  [[nodiscard]] rt::Task task(int which) const {
    rt::Task t;
    switch (which) {
      case 0:
        t.accesses.push_back(rt::in(f64.data(), f64.size()));
        break;
      case 1:
        t.accesses.push_back(rt::in(f32.data(), f32.size()));
        break;
      case 2:
        t.accesses.push_back(rt::in(ties.data(), ties.size()));
        break;
      default:
        t.accesses.push_back(
            {const_cast<double*>(odd.data()), 5 * sizeof(double) + 3, rt::AccessMode::In,
             rt::ElemType::F64});
        t.accesses.push_back(rt::in(f32.data(), 20));
        t.accesses.push_back(rt::in(i32.data(), i32.size()));
        t.accesses.push_back(rt::in(f64.data(), 24));
        break;
    }
    return t;
  }
};

struct PinnedKey {
  std::uint64_t key;
  std::size_t bytes_hashed;
  std::size_t oob;
  std::vector<std::uint64_t> probes;
};

/// `r` as a kPinnedKeys row, so a mismatch prints the row to paste.
std::string as_row(const KeyResult& r) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "{0x%016llxull, %zu, %zu, {",
                static_cast<unsigned long long>(r.key), r.bytes_hashed, r.oob);
  std::string row = buf;
  for (unsigned i = 0; i < r.probe_count; ++i) {
    std::snprintf(buf, sizeof buf, "%s0x%016llxull", i == 0 ? "" : ", ",
                  static_cast<unsigned long long>(r.probes[i]));
    row += buf;
  }
  return row + "}},";
}

bool matches(const KeyResult& r, const PinnedKey& want) {
  if (r.key != want.key || r.bytes_hashed != want.bytes_hashed || r.oob != want.oob ||
      r.probe_count != want.probes.size()) {
    return false;
  }
  for (unsigned i = 0; i < r.probe_count; ++i) {
    if (r.probes[i] != want.probes[i]) return false;
  }
  return true;
}

// Expected results, one row per (task, spec, p) in the loop order below,
// then the out-of-range plan. Recorded from the per-element implementation
// that predates batched quantization; a mismatch prints the actual row.
const std::vector<PinnedKey> kPinnedKeys = {
    {0x0ef4cd39d8c7af7cull, 320, 0, {}},
    {0x9c4a7907aba50c14ull, 280, 0, {}},
    {0x65c44d831fe9446cull, 320, 0, {0x236a7a9a9890c49bull, 0x9e44b91fc9f614f1ull,
     0x62b16dc9ab9f3be9ull, 0xe2ff7218127d9554ull}},
    {0x454a0e8999164d27ull, 280, 0, {0x03e439901e6fcdd0ull, 0xbecafa154f091dbaull,
     0x423f2ec32d6032a2ull, 0xc271311294829c1full}},
    {0xbb77dd3624fb9492ull, 320, 0, {0xa988700b83ca53c1ull, 0xc4b9a1eb9d957f6full,
     0xebc318b69685c125ull, 0xb749373128f59f3aull, 0x8683f2112bf4547full,
     0xb90bddeaff7111beull, 0x3b10e5652100c86dull, 0x12c80ebe6f62b57bull}},
    {0x0b879b40d4a5cefdull, 280, 0, {0x1978367d739409aeull, 0x7449e79d6dcb2500ull,
     0x5b335ec066db9b4aull, 0x07b97147d8abc555ull, 0x3673b467dbaa0e10ull,
     0x09fb9b9c0f2f4bd1ull, 0x8be0a313d15e9202ull, 0xa23848c89f3cef14ull}},
    {0xfe9fc3d2a8c305d7ull, 320, 0, {0x8820e51cd37c440dull, 0x1f27f9aa40ca91d0ull,
     0xdcf4885c0c72a9b4ull, 0x6760e70f0557468aull}},
    {0xf83539ec6d9cad8cull, 280, 0, {0x8e8a1f221623ec56ull, 0x198d03948595398bull,
     0xda5e7262c92d01efull, 0x61ca1d31c008eed1ull}},
    {0xba9e634773271d65ull, 192, 0, {}},
    {0x5273e55434ecc9f4ull, 124, 0, {}},
    {0xf960485248948d40ull, 192, 0, {0xb58f21951b13613dull, 0xa5bfb0f6f8c144f2ull,
     0x38721e7dbd896c90ull, 0x7235b9e901948c32ull}},
    {0x2fa208ae45ab733dull, 124, 0, {0x737df00af5feba8full, 0xeeb05e81b0b692edull,
     0xa4f7f9150cab724full, 0x95097dd5069f5ff0ull}},
    {0x3d49e11124975260ull, 192, 0, {0x4f65cdc5f9ca7e6full, 0xfbd321314e0ecac9ull,
     0x0df38d30aaa3acedull, 0x4edfec9fd454bc97ull, 0x9dacc2471f2bec88ull,
     0xd9152527076ad07bull, 0x8c1e334ab0974feeull, 0x2fd45355444b29fdull}},
    {0x5ba88f059ff7df5cull, 124, 0, {0x2984a3d142aaf353ull, 0x6b12e32411c321d1ull,
     0x283e828b6f3431abull, 0xfb4dac53a44b61b4ull, 0xeaff5d5e0bf7c2d2ull,
     0x49353d41ff2ba4c1ull, 0x47c3e57cfb05e239ull, 0x0517f030e6dfedfbull}},
    {0x8a5f6c0ff86e5f24ull, 192, 0, {0xd7ae8498a9d14994ull, 0x310f96d046adc567ull,
     0xfb7b48c7c89f182eull, 0x2a7083e9094c653eull}},
    {0x86046ac10e86ecaeull, 124, 0, {0xdbf582565f39fa1eull, 0x3d54901eb04576edull,
     0xf7204e093e77aba4ull, 0x6f476d78f865f6f1ull}},
    {0x3fa7d3adcab1ff03ull, 96, 0, {}},
    {0x3fa7d3adcab1ff03ull, 96, 0, {}},
    {0x6a020d79f8713ef3ull, 96, 0, {0x156e159bb5645e30ull, 0x614a8b54243bc635ull,
     0xcf2d34a2cf7993d2ull, 0x9d95a9df54ef62a6ull}},
    {0x6a020d79f8713ef3ull, 96, 0, {0x156e159bb5645e30ull, 0x614a8b54243bc635ull,
     0xcf2d34a2cf7993d2ull, 0x9d95a9df54ef62a6ull}},
    {0x5ef5708a3c3018d1ull, 96, 0, {}},
    {0x5ef5708a3c3018d1ull, 96, 0, {}},
    {0xa90abb7afc5d3aa0ull, 96, 0, {0xb36602246f3c9440ull, 0xa64e1dd97e0a8704ull,
     0x056b0b2791e1dec6ull, 0x2f11792ce3fedbadull}},
    {0xa90abb7afc5d3aa0ull, 96, 0, {0xb36602246f3c9440ull, 0xa64e1dd97e0a8704ull,
     0x056b0b2791e1dec6ull, 0x2f11792ce3fedbadull}},
    {0x0596b10de62ed5c7ull, 379, 0, {}},
    {0x1b7fecdab9653ae0ull, 327, 0, {}},
    {0x1ccaacaed760cf7cull, 379, 0, {0xa4be678c665e8e27ull, 0xeae323c6334dfd03ull,
     0x7040520a18432cd7ull, 0xf6e05fd31db5a762ull}},
    {0x3a74f8a3272b7343ull, 327, 0, {0x8200338196153218ull, 0xcc5d77cbc306413cull,
     0xd05e0bdeedfe1b5dull, 0x2540876d7f7394a3ull}},
    {0x0b903ad68bf05ecaull, 379, 0, {0x0436dfa6c86c0c1eull, 0x568b469fae15241aull,
     0x92ad5b6f542ddcdaull, 0xb14d67a812573eb2ull, 0xdcbf6ba87d0c30b3ull,
     0xa002bd58b442d016ull, 0x75c4d3a77783c4edull, 0xd3344c78ff0fcc06ull}},
    {0xaf879b9edc03445dull, 327, 0, {0xa0217eee9f9f1689ull, 0xf29ce7d7f9e63e8dull,
     0x36bafa2703dec64dull, 0x78a8cae02aff2a24ull, 0x04151c10e3b1ca81ull,
     0xd1d372ef2070de7aull, 0x7723ed30a8fcd691ull, 0x540edb3f03a4d54eull}},
    {0x8db151b63543cedaull, 379, 0, {0xa6d2deecdf9b4415ull, 0x95e65e942deacfe8ull,
     0x942437d425bd0decull, 0xfa6a1276ab9d7a52ull}},
    {0x93396098aa0ea57dull, 327, 0, {0xb85aefc240d62fb2ull, 0x8b6e6fbab2a7a44full,
     0x8aac06fabaf0664bull, 0xe4e2235834d011f5ull}},
    {0xb2274743d8200aafull, 24, 44, {0xe533ac424ed03f5full}},
};

TEST(ToleranceKey, KeysMatchPinnedValues) {
  // Every other key test compares two computations of one build, so a
  // change to the key formula passes them all. This one pins the values.
  const PinnedInputs in;
  const ToleranceSpec specs[] = {
      {.rel = 1e-3, .probes = 0},
      {.rel = 2e-2, .probes = 4},
      {.abs = 1e-3, .probes = 8},
      {.abs = 5e-2, .probes = 4},
  };
  std::vector<KeyResult> got;
  for (int which = 0; which < 4; ++which) {
    const rt::Task t = in.task(which);
    const auto layout = InputLayout::from_task(t);
    InputSampler sampler(false, 7);  // plain: p = 1/4 leaves some elements out
    const auto& order = sampler.order_for(0, layout);
    for (const ToleranceSpec& spec : specs) {
      for (double p : {1.0, 0.25}) {
        const KeyResult via_plan =
            compute_key(t, sampler.plan_for(0, layout, p), kSeed, spec);
        const KeyResult via_order = compute_key(t, order, p, kSeed, spec);
        EXPECT_EQ(as_row(via_plan), as_row(via_order))
            << "task " << which << " p=" << p;
        got.push_back(via_plan);
      }
    }
  }
  // A plan built for another layout: clamped and counted as oob.
  GatherPlan foreign;
  foreign.runs.push_back({0, 300, 40});  // 20 bytes past the 320-byte region
  foreign.runs.push_back({0, 400, 8});   // wholly past it
  foreign.runs.push_back({2, 0, 16});    // a region the task does not have
  got.push_back(compute_key(in.task(0), foreign, kSeed, specs[1]));

  ASSERT_EQ(got.size(), kPinnedKeys.size()) << [&] {
    std::string all;
    for (const KeyResult& r : got) all += as_row(r) + "\n";
    return all;
  }();
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(matches(got[i], kPinnedKeys[i])) << "row " << i << ": got "
                                                 << as_row(got[i]);
  }
}

// --- differential: batched plan path vs the per-element order path ---------

/// Narrow to float, saturating to +-inf (a double past the float range has
/// no defined conversion).
float to_f32(double v) {
  if (std::fabs(v) > std::numeric_limits<float>::max()) {
    const float inf = std::numeric_limits<float>::infinity();
    return v > 0.0 ? inf : -inf;
  }
  return static_cast<float>(v);
}

TEST(ToleranceKey, BatchedPlanPathMatchesPerElementPath) {
  // The plan path quantizes whole F32/F64 elements in batches; the order
  // path feeds every element on its own. Over adversarial tasks (special
  // values, exact score ties, odd-sized regions, tiny and huge epsilons)
  // the full KeyResult must agree.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double dmin = std::numeric_limits<double>::denorm_min();
  const double ps[] = {1.0, 0.5, 0.25, 1.0 / 3, 1.0 / 100, 1.0 / 4096};
  Rng rng(kSeed + 10);
  double prev = 1.0;
  auto value = [&]() -> double {
    const double sign = rng.next_below(2) != 0 ? -1.0 : 1.0;
    double v = 0.0;
    switch (rng.next_below(12)) {
      case 0: v = nan; break;
      case 1: v = sign * inf; break;
      case 2: v = sign * dmin * static_cast<double>(1 + rng.next_below(1u << 20)); break;
      case 3: v = sign * 0.0; break;
      case 4: v = sign * 1e300 * rng.next_double(1.0, 1.7); break;
      case 5: v = sign * 1e-300 * rng.next_double(1.0, 1.7); break;
      case 6: v = prev; break;  // an exact repeat: equal probe scores
      case 7:
      case 8: {
        // Jitter around a few shared centres: near-equal probe scores.
        static constexpr double kCentres[] = {1.0, 2.5, -3.75, 100.0, 0.002};
        v = kCentres[rng.next_below(5)] * (1.0 + rng.next_double(-1e-4, 1e-4));
        break;
      }
      default: v = rng.next_double(-1e3, 1e3); break;
    }
    prev = v;
    return v;
  };

  for (int round = 0; round < 2000; ++round) {
    // Reserved so no region's storage moves once the task points at it.
    std::vector<std::vector<double>> f64s;
    std::vector<std::vector<float>> f32s;
    std::vector<std::vector<std::int32_t>> i32s;
    f64s.reserve(4);
    f32s.reserve(4);
    i32s.reserve(4);
    rt::Task t;
    const auto regions = 1 + rng.next_below(4);
    for (std::uint64_t r = 0; r < regions; ++r) {
      const std::size_t n = 1 + rng.next_below(300);
      switch (rng.next_below(4)) {
        case 0: {
          auto& v = f64s.emplace_back(n);
          for (auto& x : v) x = value();
          t.accesses.push_back(rt::in(v.data(), v.size()));
          break;
        }
        case 1: {  // 10% of the values subnormal as floats
          auto& v = f32s.emplace_back(n);
          for (auto& x : v) {
            x = rng.next_below(10) == 0
                    ? std::numeric_limits<float>::denorm_min() *
                          static_cast<float>(1 + rng.next_below(1000))
                    : to_f32(value());
          }
          t.accesses.push_back(rt::in(v.data(), v.size()));
          break;
        }
        case 2: {
          auto& v = i32s.emplace_back(n);
          for (auto& x : v) x = static_cast<std::int32_t>(rng.next_below(7)) - 3;
          t.accesses.push_back(rt::in(v.data(), v.size()));
          break;
        }
        default: {  // F64 with a 1..7-byte trailing element
          auto& v = f64s.emplace_back(n);
          for (auto& x : v) x = value();
          const std::size_t bytes = (n - 1) * sizeof(double) + 1 + rng.next_below(7);
          t.accesses.push_back({v.data(), bytes, rt::AccessMode::In, rt::ElemType::F64});
          break;
        }
      }
    }
    ToleranceSpec spec;
    if (rng.next_below(20) == 0) {
      // Past the relative grid's index range: exact-cell fallbacks.
      spec.rel = std::pow(10.0, rng.next_double(-22.0, -16.0));
    } else if (rng.next_below(2) == 0) {
      spec.rel = std::pow(10.0, rng.next_double(-9.0, -1.0));
    } else {
      spec.abs = std::pow(10.0, rng.next_double(-6.0, 2.0));
    }
    spec.probes = static_cast<unsigned>(rng.next_below(10));
    const double p = ps[rng.next_below(std::size(ps))];
    InputSampler sampler(rng.next_below(2) == 0, 1 + static_cast<std::uint64_t>(round));
    const auto layout = InputLayout::from_task(t);
    const KeyResult via_plan =
        compute_key(t, sampler.plan_for(0, layout, p), kSeed, spec);
    const KeyResult via_order =
        compute_key(t, sampler.order_for(0, layout), p, kSeed, spec);
    ASSERT_EQ(as_row(via_plan), as_row(via_order))
        << "round " << round << " p=" << p << " rel=" << spec.rel << " abs=" << spec.abs
        << " probes=" << spec.probes;
  }
}

}  // namespace
}  // namespace atm
