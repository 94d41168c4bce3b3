// Tests for the Task History Table (§III-A): lookups copy stored outputs,
// p/type/shape mismatches miss, FIFO eviction, memory accounting, and
// concurrent reader/writer stress over the per-bucket shared locks.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "atm/tht.hpp"

namespace atm {
namespace {

rt::Task make_producer(float* out, std::size_t n, rt::TaskId id = 1) {
  rt::Task t;
  t.id = id;
  t.accesses.push_back(rt::out(out, n));
  return t;
}

rt::Task make_consumer(float* out, std::size_t n) {
  rt::Task t;
  t.id = 999;
  t.accesses.push_back(rt::out(out, n));
  return t;
}

TEST(Tht, InsertLookupRoundtrip) {
  TaskHistoryTable tht(4, 8);
  std::vector<float> produced{1, 2, 3, 4};
  auto producer = make_producer(produced.data(), 4, 7);
  tht.insert(0, 0xABC, 1.0, producer);
  EXPECT_TRUE(tht.contains(0, 0xABC, 1.0));
  EXPECT_EQ(tht.entry_count(), 1u);

  std::vector<float> sink(4, 0.0f);
  auto consumer = make_consumer(sink.data(), 4);
  rt::TaskId creator = 0;
  std::uint64_t t0 = 0, t1 = 0;
  ASSERT_TRUE(tht.lookup_and_copy(0, 0xABC, 1.0, consumer, &creator, &t0, &t1));
  EXPECT_EQ(sink, produced);
  EXPECT_EQ(creator, 7u);
  EXPECT_GE(t1, t0);
}

TEST(Tht, MissOnWrongKeyTypeOrP) {
  TaskHistoryTable tht(4, 8);
  std::vector<float> data{1, 2};
  auto producer = make_producer(data.data(), 2);
  tht.insert(0, 0xABC, 0.5, producer);
  std::vector<float> sink(2);
  auto consumer = make_consumer(sink.data(), 2);
  EXPECT_FALSE(tht.lookup_and_copy(0, 0xABD, 0.5, consumer, nullptr, nullptr, nullptr));
  EXPECT_FALSE(tht.lookup_and_copy(1, 0xABC, 0.5, consumer, nullptr, nullptr, nullptr));
  // Same key computed under a different p must not match (§III-D).
  EXPECT_FALSE(tht.lookup_and_copy(0, 0xABC, 1.0, consumer, nullptr, nullptr, nullptr));
  EXPECT_TRUE(tht.lookup_and_copy(0, 0xABC, 0.5, consumer, nullptr, nullptr, nullptr));
}

TEST(Tht, ShapeMismatchMisses) {
  TaskHistoryTable tht(4, 8);
  std::vector<float> data{1, 2, 3, 4};
  auto producer = make_producer(data.data(), 4);
  tht.insert(0, 0xABC, 1.0, producer);
  std::vector<float> small(2);
  auto consumer = make_consumer(small.data(), 2);
  EXPECT_FALSE(tht.lookup_and_copy(0, 0xABC, 1.0, consumer, nullptr, nullptr, nullptr));
}

TEST(Tht, MultiRegionOutputs) {
  TaskHistoryTable tht(4, 8);
  std::vector<float> r1{1, 2}, r2{3, 4, 5};
  rt::Task producer;
  producer.id = 3;
  producer.accesses.push_back(rt::out(r1.data(), 2));
  producer.accesses.push_back(rt::out(r2.data(), 3));
  tht.insert(0, 0x111, 1.0, producer);

  std::vector<float> s1(2), s2(3);
  rt::Task consumer;
  consumer.accesses.push_back(rt::out(s1.data(), 2));
  consumer.accesses.push_back(rt::out(s2.data(), 3));
  ASSERT_TRUE(tht.lookup_and_copy(0, 0x111, 1.0, consumer, nullptr, nullptr, nullptr));
  EXPECT_EQ(s1, r1);
  EXPECT_EQ(s2, r2);
}

TEST(Tht, DuplicateInsertKeepsOriginalCreator) {
  TaskHistoryTable tht(4, 8);
  std::vector<float> a{1.0f}, b{2.0f};
  auto first = make_producer(a.data(), 1, 10);
  auto second = make_producer(b.data(), 1, 20);
  tht.insert(0, 0x5, 1.0, first);
  tht.insert(0, 0x5, 1.0, second);  // skipped: FIFO keeps the oldest
  EXPECT_EQ(tht.entry_count(), 1u);
  std::vector<float> sink(1);
  auto consumer = make_consumer(sink.data(), 1);
  rt::TaskId creator = 0;
  ASSERT_TRUE(tht.lookup_and_copy(0, 0x5, 1.0, consumer, &creator, nullptr, nullptr));
  EXPECT_EQ(creator, 10u);
  EXPECT_FLOAT_EQ(sink[0], 1.0f);
}

TEST(Tht, FifoEvictionWhenBucketFull) {
  TaskHistoryTable tht(0, 3);  // single bucket (N = 0), M = 3
  std::vector<float> vals(4);
  for (std::uint64_t k = 0; k < 4; ++k) {
    vals[k] = static_cast<float>(k);
    auto producer = make_producer(&vals[k], 1, 100 + k);
    tht.insert(0, k, 1.0, producer);
  }
  EXPECT_EQ(tht.entry_count(), 3u);
  EXPECT_EQ(tht.evictions(), 1u);
  EXPECT_FALSE(tht.contains(0, 0, 1.0));  // the oldest was evicted
  EXPECT_TRUE(tht.contains(0, 1, 1.0));
  EXPECT_TRUE(tht.contains(0, 3, 1.0));
}

TEST(Tht, LowBitsIndexBuckets) {
  // Keys differing only above bit N land in the same bucket and both fit.
  TaskHistoryTable tht(2, 1);  // 4 buckets, M = 1
  std::vector<float> v{1.0f};
  auto p1 = make_producer(v.data(), 1);
  tht.insert(0, 0b0000, 1.0, p1);
  tht.insert(0, 0b0100, 1.0, p1);  // same low bits: same bucket, evicts
  EXPECT_EQ(tht.evictions(), 1u);
  tht.insert(0, 0b0001, 1.0, p1);  // different bucket: no eviction
  EXPECT_EQ(tht.evictions(), 1u);
}

TEST(Tht, LookupSnapshotCopies) {
  TaskHistoryTable tht(4, 8);
  std::vector<float> data{9, 8, 7};
  auto producer = make_producer(data.data(), 3, 42);
  tht.insert(0, 0x9, 0.25, producer);
  store::MemoEntry stored;
  ASSERT_TRUE(tht.lookup_entry(0, 0x9, 0.25, &stored));
  EXPECT_EQ(stored.creator, 42u);
  EXPECT_EQ(stored.key, (store::MemoKey{0, 0x9, 0.25}));
  ASSERT_EQ(stored.regions.size(), 1u);
  EXPECT_EQ(stored.regions[0].data.size(), 12u);
  EXPECT_EQ(stored.payload_bytes(), 12u);
  const float* f = reinterpret_cast<const float*>(stored.regions[0].data.data());
  EXPECT_FLOAT_EQ(f[0], 9.0f);
  EXPECT_FLOAT_EQ(f[2], 7.0f);
}

TEST(Tht, MemoryAccountingTracksContent) {
  TaskHistoryTable tht(2, 8);
  const std::size_t base = tht.memory_bytes();
  std::vector<float> big(1024, 1.0f);
  auto producer = make_producer(big.data(), big.size());
  tht.insert(0, 0x1, 1.0, producer);
  EXPECT_GE(tht.memory_bytes(), base + 4096);
  tht.clear();
  EXPECT_EQ(tht.memory_bytes(), base);
  EXPECT_EQ(tht.entry_count(), 0u);
}

TEST(Tht, ClearAllowsReinsert) {
  TaskHistoryTable tht(2, 2);
  std::vector<float> v{5.0f};
  auto producer = make_producer(v.data(), 1);
  tht.insert(0, 0x2, 1.0, producer);
  tht.clear();
  EXPECT_FALSE(tht.contains(0, 0x2, 1.0));
  tht.insert(0, 0x2, 1.0, producer);
  EXPECT_TRUE(tht.contains(0, 0x2, 1.0));
}

TEST(Tht, ConcurrentReadersAndWriters) {
  TaskHistoryTable tht(4, 64);
  constexpr int kThreads = 4;
  constexpr int kKeys = 64;
  std::vector<std::vector<float>> payloads(kKeys);
  for (int k = 0; k < kKeys; ++k) payloads[k].assign(64, static_cast<float>(k));

  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<float> sink(64);
      for (int iter = 0; iter < 500; ++iter) {
        const int k = (iter * 7 + t * 13) % kKeys;
        auto producer = make_producer(payloads[k].data(), 64, k);
        tht.insert(0, static_cast<HashKey>(k), 1.0, producer);
        auto consumer = make_consumer(sink.data(), 64);
        if (tht.lookup_and_copy(0, static_cast<HashKey>(k), 1.0, consumer, nullptr,
                                nullptr, nullptr)) {
          // Entry payloads are constant per key: any torn read is a bug.
          for (float f : sink) {
            if (f != static_cast<float>(k)) {
              wrong.fetch_add(1);
              break;
            }
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(MemoEntryOutputs, CaptureMatchCopy) {
  std::vector<double> out1{1.5, 2.5};
  std::vector<float> out2{3.5f};
  rt::Task t;
  t.id = 5;
  t.accesses.push_back(rt::in(out1.data(), 0));  // zero-size input ignored
  t.accesses.push_back(rt::out(out1.data(), 2));
  t.accesses.push_back(rt::out(out2.data(), 1));
  const auto entry = capture_outputs({3, 0x77, 0.5}, t);
  EXPECT_EQ(entry.key, (store::MemoKey{3, 0x77, 0.5}));
  EXPECT_EQ(entry.creator, 5u);
  ASSERT_EQ(entry.regions.size(), 2u);
  EXPECT_EQ(entry.regions[0].raw_bytes, 2 * sizeof(double));
  EXPECT_EQ(entry.regions[0].elem, static_cast<std::uint8_t>(rt::ElemType::F64));
  EXPECT_EQ(entry.regions[1].encoding, store::RegionEncoding::Raw);
  EXPECT_TRUE(output_shape_matches(entry, t));

  std::vector<double> sink1(2);
  std::vector<float> sink2(1);
  rt::Task dst;
  dst.accesses.push_back(rt::out(sink1.data(), 2));
  dst.accesses.push_back(rt::out(sink2.data(), 1));
  EXPECT_TRUE(output_shape_matches(entry, dst));
  copy_out(entry, dst);
  EXPECT_EQ(sink1, out1);
  EXPECT_EQ(sink2, out2);

  // A missing, extra or resized output region does not match.
  rt::Task fewer;
  fewer.accesses.push_back(rt::out(sink1.data(), 2));
  EXPECT_FALSE(output_shape_matches(entry, fewer));
  rt::Task resized;
  resized.accesses.push_back(rt::out(sink1.data(), 1));
  resized.accesses.push_back(rt::out(sink2.data(), 1));
  EXPECT_FALSE(output_shape_matches(entry, resized));
  dst.accesses.push_back(rt::out(sink2.data(), 1));
  EXPECT_FALSE(output_shape_matches(entry, dst));
}

TEST(OutputShapes, Match) {
  float a[4], b[4], c[2];
  rt::Task x, y, z;
  x.accesses.push_back(rt::out(a, 4));
  y.accesses.push_back(rt::out(b, 4));
  z.accesses.push_back(rt::out(c, 2));
  EXPECT_TRUE(output_shapes_match(x, y));
  EXPECT_FALSE(output_shapes_match(x, z));
}

}  // namespace
}  // namespace atm
