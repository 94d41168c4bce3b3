// Tests for the error metrics of §III-D / §IV-C: Chebyshev tau (Eq. 1),
// Euclidean Er (Eq. 3), multi-region accumulation, element-type dispatch,
// and the correctness mapping.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "atm/error_metric.hpp"

namespace atm {
namespace {

TEST(Chebyshev, HandValues) {
  const std::vector<double> correct{1.0, 2.0, -4.0};
  const std::vector<double> approx{1.1, 2.0, -4.2};
  // max diff = 0.2, max |correct| = 4 -> tau = 0.05
  EXPECT_NEAR(chebyshev_relative_error<double>(correct, approx), 0.05, 1e-12);
}

TEST(Chebyshev, IdenticalIsZero) {
  const std::vector<float> v{1.0f, 2.0f, 3.0f};
  EXPECT_EQ(chebyshev_relative_error<float>(v, v), 0.0);
}

TEST(Chebyshev, ZeroReferenceZeroDiff) {
  const std::vector<double> zeros(4, 0.0);
  EXPECT_EQ(chebyshev_relative_error<double>(zeros, zeros), 0.0);
}

TEST(Chebyshev, ZeroReferenceNonzeroDiffIsInfinite) {
  const std::vector<double> zeros(4, 0.0);
  const std::vector<double> ones(4, 1.0);
  EXPECT_TRUE(std::isinf(chebyshev_relative_error<double>(zeros, ones)));
}

TEST(Chebyshev, MaxNotSum) {
  // The whole point of Eq. 1: a million small errors do not accumulate.
  std::vector<double> correct(1'000'000, 1.0);
  std::vector<double> approx(1'000'000, 1.0 + 1e-9);
  EXPECT_NEAR(chebyshev_relative_error<double>(correct, approx), 1e-9, 1e-12);
}

TEST(Euclidean, HandValues) {
  const std::vector<double> correct{3.0, 4.0};   // |c|^2 = 25
  const std::vector<double> approx{3.0, 5.0};    // diff^2 = 1
  EXPECT_NEAR(euclidean_relative_error<double>(correct, approx), 1.0 / 25.0, 1e-12);
}

TEST(Euclidean, ZeroDenominator) {
  const std::vector<double> zeros(3, 0.0);
  const std::vector<double> ones(3, 1.0);
  EXPECT_EQ(euclidean_relative_error<double>(zeros, zeros), 0.0);
  EXPECT_TRUE(std::isinf(euclidean_relative_error<double>(zeros, ones)));
}

TEST(Accumulator, MultiRegionTakesGlobalMax) {
  ChebyshevAccumulator acc;
  const std::vector<double> c1{10.0}, a1{10.5};  // diff .5
  const std::vector<double> c2{2.0}, a2{2.2};    // diff .2
  acc.add<double>(c1, a1);
  acc.add<double>(c2, a2);
  // max diff = 0.5 over max |correct| = 10 -> 0.05
  EXPECT_NEAR(acc.value(), 0.05, 1e-12);
}

TEST(Accumulator, EmptyIsZero) {
  ChebyshevAccumulator acc;
  EXPECT_EQ(acc.value(), 0.0);
}

TEST(Accumulator, ByteDispatchFloat) {
  const std::vector<float> c{1.0f, -2.0f};
  const std::vector<float> a{1.0f, -2.5f};
  ChebyshevAccumulator acc;
  acc.add_bytes(rt::ElemType::F32,
                {reinterpret_cast<const std::uint8_t*>(c.data()), c.size() * 4},
                {reinterpret_cast<const std::uint8_t*>(a.data()), a.size() * 4});
  EXPECT_NEAR(acc.value(), 0.25, 1e-6);
}

TEST(Accumulator, ByteDispatchInt32) {
  const std::vector<std::int32_t> c{100, -200};
  const std::vector<std::int32_t> a{110, -200};
  ChebyshevAccumulator acc;
  acc.add_bytes(rt::ElemType::I32,
                {reinterpret_cast<const std::uint8_t*>(c.data()), c.size() * 4},
                {reinterpret_cast<const std::uint8_t*>(a.data()), a.size() * 4});
  EXPECT_NEAR(acc.value(), 10.0 / 200.0, 1e-12);
}

TEST(Accumulator, ByteDispatchAllTypesRun) {
  // Smoke over every tag: identical buffers must give tau = 0.
  const std::vector<std::uint8_t> bytes(64, 7);
  for (auto t : {rt::ElemType::U8, rt::ElemType::I8, rt::ElemType::U16,
                 rt::ElemType::I16, rt::ElemType::U32, rt::ElemType::I32,
                 rt::ElemType::U64, rt::ElemType::I64, rt::ElemType::F32,
                 rt::ElemType::F64}) {
    ChebyshevAccumulator acc;
    acc.add_bytes(t, {bytes.data(), bytes.size()}, {bytes.data(), bytes.size()});
    EXPECT_EQ(acc.value(), 0.0) << rt::elem_name(t);
  }
}

TEST(TaskOutputTau, ComparesAgainstSnapshot) {
  std::vector<float> computed{1.0f, 2.0f, 4.0f};
  rt::Task task;
  task.accesses.push_back(rt::out(computed.data(), 3));

  store::MemoEntry entry;
  store::MemoRegion region;
  region.elem = static_cast<std::uint8_t>(rt::ElemType::F32);
  const std::vector<float> stored{1.0f, 2.0f, 4.4f};
  region.data.assign(reinterpret_cast<const std::uint8_t*>(stored.data()),
                     reinterpret_cast<const std::uint8_t*>(stored.data()) + 12);
  region.raw_bytes = 12;
  entry.regions.push_back(std::move(region));

  EXPECT_NEAR(task_output_tau(task, entry), 0.4 / 4.0, 1e-6);
}

TEST(Correctness, Mapping) {
  EXPECT_DOUBLE_EQ(correctness_percent(0.0), 100.0);
  EXPECT_DOUBLE_EQ(correctness_percent(0.05), 95.0);
  EXPECT_DOUBLE_EQ(correctness_percent(1.5), 0.0);   // clamped
  EXPECT_DOUBLE_EQ(correctness_percent(-1.0), 0.0);  // guard
  EXPECT_DOUBLE_EQ(correctness_percent(std::nan("")), 0.0);
}

TEST(Metrics, LengthMismatchUsesCommonPrefix) {
  const std::vector<double> c{1.0, 2.0, 3.0};
  const std::vector<double> a{1.0, 2.0};
  EXPECT_EQ(chebyshev_relative_error<double>(c, a), 0.0);
}

}  // namespace
}  // namespace atm
