// Shared slab layout for the SlabHash concurrent map and concurrent set.
//
// A slab is 32 uint32 words (128 bytes), matching SlabHash on the GPU:
//
//   concurrent map  : words 0..29 hold 15 <key, value> pairs
//                     (key at even word, value at the following odd word),
//                     word 30 is reserved, word 31 is the next-slab handle.
//                     Bucket capacity Bc = 15 (paper §IV-A2).
//   concurrent set  : words 0..29 hold 30 keys, word 30 is reserved,
//                     word 31 is the next-slab handle. Bc = 30.
//
// kEmptyKey marks a never-used slot; kTombstoneKey marks a deleted slot.
// Tombstone rule:
//   * the scalar inserts (map_replace, set_insert) skip tombstones, as the
//     paper does ("tombstones are disregarded in edge insertion"): their
//     callers do not own the bucket, so two concurrent inserts of one key
//     could otherwise each take a different tombstone;
//   * the bulk inserts (map_bulk_replace, set_bulk_insert) run with the
//     batch engine's bucket ownership and reuse tombstones: once a walk
//     proves a key absent it takes the chain's earliest tombstone, then an
//     EMPTY slot, and only then appends a slab.
// Neither path ever turns a used slot back into EMPTY, so within a slab all
// EMPTY slots sit after all used slots and only the chain's last slab has
// any — the invariant the paper relies on for fast searches. Only
// flush_tombstones / clear (phase-serial) rewrite a chain.
#pragma once

#include <cstdint>

#include "src/memory/slab_arena.hpp"
#include "src/util/prng.hpp"

namespace sg::slabhash {

inline constexpr std::uint32_t kEmptyKey = 0xFFFFFFFFu;
inline constexpr std::uint32_t kTombstoneKey = 0xFFFFFFFEu;
inline constexpr std::uint32_t kMaxKey = 0xFFFFFFFDu;  ///< largest storable key

inline constexpr int kNextPtrWord = 31;
inline constexpr int kReservedWord = 30;

inline constexpr int kMapPairsPerSlab = 15;  ///< Bc for the concurrent map
inline constexpr int kSetKeysPerSlab = 30;   ///< Bc for the concurrent set

/// Lane masks (bit w = slab word w) selecting the words that hold keys,
/// consumed against the ballot-style masks simt::probe_slab() produces:
/// even words 0..28 for the map's 15 <key,value> pairs, words 0..29 for the
/// set's 30 keys. Word 30 (reserved) and word 31 (next pointer) never match.
inline constexpr std::uint32_t kMapKeyWordsMask = 0x15555555u;
inline constexpr std::uint32_t kSetKeyWordsMask = 0x3FFFFFFFu;

/// A hash table as the graph sees it: `num_buckets` base slabs starting at
/// contiguous handle `base`. Collision slabs are chained off word 31.
struct TableRef {
  memory::SlabHandle base = memory::kNullSlab;
  std::uint32_t num_buckets = 0;

  memory::SlabHandle bucket_head(std::uint32_t bucket) const noexcept {
    return base + bucket;
  }
  bool valid() const noexcept {
    return base != memory::kNullSlab && num_buckets > 0;
  }
};

/// Seeded hash mapping a key to a bucket. Stands in for slab hash's
/// universal (a*k + b mod p) mod B family: a full 64-bit mix of (key, seed)
/// followed by Lemire's multiply-shift range reduction — same statistical
/// role, no 64-bit divisions on the probe path. All tables in a graph share
/// one seed so results are reproducible run to run.
inline std::uint32_t bucket_of(std::uint32_t key, std::uint32_t num_buckets,
                               std::uint64_t seed) noexcept {
  const std::uint64_t h = util::mix64(key ^ (seed * 0x9E3779B97F4A7C15ULL));
  return static_cast<std::uint32_t>(
      (static_cast<unsigned __int128>(h) * num_buckets) >> 64);
}

/// Buckets needed to store `expected_keys` at `load_factor` with bucket
/// capacity `slot_capacity` (= Bc): ceil(keys / (lf * Bc)), at least 1.
/// This is the sizing rule of §IV-A2.
inline std::uint32_t buckets_for(std::uint64_t expected_keys, double load_factor,
                                 int slot_capacity) noexcept {
  if (expected_keys == 0 || load_factor <= 0.0) return 1;
  const double per_bucket = load_factor * static_cast<double>(slot_capacity);
  const auto buckets = static_cast<std::uint64_t>(
      __builtin_ceil(static_cast<double>(expected_keys) / per_bucket));
  const std::uint64_t clamped =
      buckets == 0 ? 1 : (buckets > memory::SlabArena::kChunkSlabs
                              ? memory::SlabArena::kChunkSlabs
                              : buckets);
  return static_cast<std::uint32_t>(clamped);
}

/// Outcome of an allocating bulk operation (map_bulk_replace /
/// set_bulk_insert) when the caller opts into status reporting. The wave
/// structure applies keys out of order within a 32-key window, so a failure
/// is not a prefix: `fail_base` is the index of the failing wave's first
/// key and `fail_pending` the lane mask (bit i = keys[fail_base + i]) of
/// keys in that wave still unapplied when the chain could not grow. Every
/// key at index >= fail_base + 32 is also unapplied. Keys outside that set
/// were fully applied and ARE counted in the operation's return value, so
/// per-vertex counters stay exact across an abort.
struct BulkStatus {
  bool ok = true;
  std::uint32_t fail_base = 0;
  std::uint32_t fail_pending = 0;
};

/// Occupancy of one table, used by the Figure 2 memory-utilization series.
struct TableOccupancy {
  std::uint64_t live_keys = 0;
  std::uint64_t tombstones = 0;
  std::uint64_t slots = 0;       ///< total key slots across all slabs
  std::uint64_t base_slabs = 0;
  std::uint64_t overflow_slabs = 0;

  double utilization() const noexcept {
    return slots == 0 ? 0.0
                      : static_cast<double>(live_keys) / static_cast<double>(slots);
  }
};

}  // namespace sg::slabhash
