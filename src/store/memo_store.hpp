// The memoized-result type shared by every tier (paper §III-A: "data
// outputs have to be fully stored in the THT").
//
// A store::MemoEntry is the one in-memory form of a memoized result: the
// THT holds it, capacity eviction moves it into the L2 tier, promotion and
// the --load-store warm start move it back, and snapshot_io serializes it.
// A tier change hands over the owned region buffers instead of copying
// them (cf. AttMEMO's hot/capacity split, Selective Memoization's explicit
// memo-space budgets).
//
// This header deliberately knows nothing about tasks or the runtime:
// entries are (type, hash, p) keys mapping to byte regions, so the store
// lives below atm_core in the layering (atm_common -> atm_store ->
// atm_core). The task-facing capture, shape check and copy-out live with
// the THT (src/atm/tht.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace atm::store {

/// Identity of a memoized result: the THT match tuple. `p` participates
/// because Dynamic ATM must not match keys across p values (paper §III-D).
struct MemoKey {
  std::uint32_t type_id = 0;
  std::uint64_t hash = 0;
  double p = 1.0;

  [[nodiscard]] bool operator==(const MemoKey&) const noexcept = default;
};

struct MemoKeyHash {
  [[nodiscard]] std::size_t operator()(const MemoKey& k) const noexcept {
    // splitmix-style finalizer over the three fields; the hash member is
    // already well mixed but type_id/p must still separate buckets.
    std::uint64_t x = k.hash ^ (static_cast<std::uint64_t>(k.type_id) << 32);
    std::uint64_t pbits = 0;
    static_assert(sizeof(pbits) == sizeof(k.p));
    __builtin_memcpy(&pbits, &k.p, sizeof(pbits));
    x ^= pbits + 0x9e3779b97f4a7c15ull + (x << 6) + (x >> 2);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }
};

/// Region payload encodings understood by the L2 tier and the on-disk
/// snapshot format (src/store/snapshot_io.*).
enum class RegionEncoding : std::uint8_t {
  Raw = 0,  ///< data holds the region bytes verbatim
  Rle = 1,  ///< data holds an rle_codec packbits stream of raw_bytes bytes
};

/// One stored byte region of a memoized task (an output; in the THT also a
/// §III-E stored input).
struct MemoRegion {
  std::vector<std::uint8_t> data;       ///< payload (possibly encoded)
  std::uint64_t raw_bytes = 0;          ///< decoded size
  std::uint8_t elem = 0;                ///< rt::ElemType tag (opaque here)
  RegionEncoding encoding = RegionEncoding::Raw;
};

/// A complete memoized result: key + creator attribution + output regions.
struct MemoEntry {
  MemoKey key;
  std::uint64_t creator = 0;
  std::vector<MemoRegion> regions;

  /// Bytes held by the payloads as stored (post-compression).
  [[nodiscard]] std::size_t payload_bytes() const noexcept {
    std::size_t n = 0;
    for (const auto& r : regions) n += r.data.size();
    return n;
  }
  /// Bytes the decoded regions occupy.
  [[nodiscard]] std::size_t raw_payload_bytes() const noexcept {
    std::size_t n = 0;
    for (const auto& r : regions) n += r.raw_bytes;
    return n;
  }
};

}  // namespace atm::store
