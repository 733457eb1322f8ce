// Tests for the SIMD slab-probe layer (src/simt/simd.hpp) and a
// differential harness that drives the SlabHash hot paths through both the
// AVX2 and the portable probe backends, asserting identical behavior.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/memory/slab_arena.hpp"
#include "src/simt/simd.hpp"
#include "src/slabhash/slab_map.hpp"
#include "src/slabhash/slab_set.hpp"
#include "src/util/prng.hpp"

namespace sg {
namespace {

using slabhash::kEmptyKey;
using slabhash::kTombstoneKey;

/// Forces a probe backend for the lifetime of a scope.
class ScopedBackend {
 public:
  explicit ScopedBackend(simt::ProbeBackend backend) {
    simt::set_probe_backend(backend);
  }
  ~ScopedBackend() { simt::set_probe_backend(simt::ProbeBackend::kSimd); }
};

std::uint32_t reference_match_mask(const std::uint32_t* words,
                                   std::uint32_t key) {
  std::uint32_t mask = 0;
  for (int w = 0; w < memory::kWordsPerSlab; ++w) {
    if (words[w] == key) mask |= 1u << w;
  }
  return mask;
}

memory::Slab random_slab(util::Xoshiro256& rng) {
  memory::Slab slab;
  for (auto& word : slab.words) {
    switch (rng.below(5)) {
      case 0: word = kEmptyKey; break;
      case 1: word = kTombstoneKey; break;
      default: word = static_cast<std::uint32_t>(rng.below(16)); break;
    }
  }
  return slab;
}

TEST(SimdProbe, MasksMatchBruteForceOnBothBackends) {
  util::Xoshiro256 rng(7);
  for (const auto backend :
       {simt::ProbeBackend::kSimd, simt::ProbeBackend::kPortable}) {
    ScopedBackend scope(backend);
    for (int trial = 0; trial < 200; ++trial) {
      const memory::Slab slab = random_slab(rng);
      const auto key = static_cast<std::uint32_t>(rng.below(16));
      const simt::SlabProbe probe =
          simt::probe_slab(slab.words, key, kEmptyKey, kTombstoneKey);
      EXPECT_EQ(probe.match, reference_match_mask(slab.words, key));
      EXPECT_EQ(probe.empty, reference_match_mask(slab.words, kEmptyKey));
      EXPECT_EQ(probe.tombstone,
                reference_match_mask(slab.words, kTombstoneKey));
      EXPECT_EQ(simt::match_mask(slab.words, key),
                reference_match_mask(slab.words, key));
    }
  }
}

TEST(SimdProbe, BackendSwitchIsObservable) {
  simt::set_probe_backend(simt::ProbeBackend::kPortable);
  EXPECT_FALSE(simt::probe_uses_simd());
  simt::set_probe_backend(simt::ProbeBackend::kSimd);
#if defined(__AVX2__)
  EXPECT_TRUE(simt::probe_uses_simd());
#else
  EXPECT_FALSE(simt::probe_uses_simd());
#endif
}

TEST(SimdProbe, SnapshotCopiesAllWords) {
  util::Xoshiro256 rng(11);
  const memory::Slab slab = random_slab(rng);
  std::uint32_t snap[memory::kWordsPerSlab] = {};
  simt::snapshot_slab(slab, snap);
  for (int w = 0; w < memory::kWordsPerSlab; ++w) {
    EXPECT_EQ(snap[w], slab.words[w]);
  }
}

/// One scripted random map workload; returns the per-operation results so
/// runs under different backends can be compared bit for bit.
struct MapTrace {
  std::vector<std::uint32_t> op_results;
  std::map<std::uint32_t, std::uint32_t> final_contents;
};

MapTrace run_map_workload(simt::ProbeBackend backend, std::uint64_t seed) {
  ScopedBackend scope(backend);
  util::Xoshiro256 rng(seed);
  memory::SlabArena arena;
  // Deliberately undersized (load factor ~3) so multi-slab chains and
  // probes over tombstoned slots are exercised, not just single-slab
  // buckets. (The scalar map_replace never reuses a tombstone; only the
  // bulk path does.)
  slabhash::SlabHashMap table(
      arena, slabhash::buckets_for(1 << 12, 3.0, slabhash::kMapPairsPerSlab));
  std::unordered_map<std::uint32_t, std::uint32_t> reference;
  MapTrace trace;
  for (int op = 0; op < 20000; ++op) {
    const auto key = static_cast<std::uint32_t>(rng.below(1 << 12));
    switch (rng.below(4)) {
      case 0: {  // erase
        const bool erased = table.erase(key);
        EXPECT_EQ(erased, reference.erase(key) > 0);
        trace.op_results.push_back(erased);
        break;
      }
      case 1: {  // search
        const auto found = table.search(key);
        const auto it = reference.find(key);
        EXPECT_EQ(found.found, it != reference.end());
        if (found.found && it != reference.end()) EXPECT_EQ(found.value, it->second);
        trace.op_results.push_back(found.found ? found.value : kEmptyKey);
        break;
      }
      default: {  // replace
        const auto value = static_cast<std::uint32_t>(rng.below(1 << 16));
        const bool fresh = table.replace(key, value);
        EXPECT_EQ(fresh, reference.find(key) == reference.end());
        reference[key] = value;
        trace.op_results.push_back(fresh);
        break;
      }
    }
  }
  table.for_each([&](std::uint32_t k, std::uint32_t v) {
    EXPECT_TRUE(trace.final_contents.emplace(k, v).second);
  });
  EXPECT_EQ(trace.final_contents.size(), reference.size());
  for (const auto& [k, v] : reference) {
    const auto it = trace.final_contents.find(k);
    EXPECT_NE(it, trace.final_contents.end());
    if (it != trace.final_contents.end()) EXPECT_EQ(it->second, v);
  }
  return trace;
}

TEST(SimdProbeDifferential, MapWorkloadIdenticalAcrossBackends) {
  for (const std::uint64_t seed : {1ULL, 99ULL, 2026ULL}) {
    const MapTrace simd = run_map_workload(simt::ProbeBackend::kSimd, seed);
    const MapTrace portable =
        run_map_workload(simt::ProbeBackend::kPortable, seed);
    EXPECT_EQ(simd.op_results, portable.op_results);
    EXPECT_EQ(simd.final_contents, portable.final_contents);
  }
}

struct SetTrace {
  std::vector<std::uint8_t> op_results;
  std::set<std::uint32_t> final_contents;
};

SetTrace run_set_workload(simt::ProbeBackend backend, std::uint64_t seed) {
  ScopedBackend scope(backend);
  util::Xoshiro256 rng(seed);
  memory::SlabArena arena;
  slabhash::SlabHashSet table(
      arena, slabhash::buckets_for(1 << 12, 3.0, slabhash::kSetKeysPerSlab));
  std::unordered_set<std::uint32_t> reference;
  SetTrace trace;
  for (int op = 0; op < 20000; ++op) {
    const auto key = static_cast<std::uint32_t>(rng.below(1 << 12));
    switch (rng.below(4)) {
      case 0: {
        const bool erased = table.erase(key);
        EXPECT_EQ(erased, reference.erase(key) > 0);
        trace.op_results.push_back(erased);
        break;
      }
      case 1: {
        const bool present = table.contains(key);
        EXPECT_EQ(present, reference.count(key) > 0);
        trace.op_results.push_back(present);
        break;
      }
      default: {
        const bool fresh = table.insert(key);
        EXPECT_EQ(fresh, reference.insert(key).second);
        trace.op_results.push_back(fresh);
        break;
      }
    }
  }
  table.for_each([&](std::uint32_t k) {
    EXPECT_TRUE(trace.final_contents.insert(k).second);
  });
  EXPECT_EQ(trace.final_contents.size(), reference.size());
  for (const std::uint32_t k : reference) {
    EXPECT_TRUE(trace.final_contents.count(k) > 0);
  }
  return trace;
}

TEST(SimdProbeDifferential, SetWorkloadIdenticalAcrossBackends) {
  for (const std::uint64_t seed : {5ULL, 41ULL, 777ULL}) {
    const SetTrace simd = run_set_workload(simt::ProbeBackend::kSimd, seed);
    const SetTrace portable =
        run_set_workload(simt::ProbeBackend::kPortable, seed);
    EXPECT_EQ(simd.op_results, portable.op_results);
    EXPECT_EQ(simd.final_contents, portable.final_contents);
  }
}

/// Tombstone flush after a probe-heavy workload must leave identical
/// contents under both backends (flush itself is scalar; this guards the
/// interaction between vectorized erase and the compaction invariants).
TEST(SimdProbeDifferential, FlushAfterWorkloadKeepsContents) {
  for (const auto backend :
       {simt::ProbeBackend::kSimd, simt::ProbeBackend::kPortable}) {
    ScopedBackend scope(backend);
    util::Xoshiro256 rng(13);
    memory::SlabArena arena;
    slabhash::SlabHashSet table(
        arena, slabhash::buckets_for(1 << 10, 2.0, slabhash::kSetKeysPerSlab));
    std::unordered_set<std::uint32_t> reference;
    for (int op = 0; op < 6000; ++op) {
      const auto key = static_cast<std::uint32_t>(rng.below(1 << 10));
      if (rng.below(3) == 0) {
        table.erase(key);
        reference.erase(key);
      } else {
        table.insert(key);
        reference.insert(key);
      }
    }
    table.flush_tombstones();
    EXPECT_EQ(table.occupancy().tombstones, 0u);
    std::set<std::uint32_t> contents;
    table.for_each([&](std::uint32_t k) { contents.insert(k); });
    EXPECT_EQ(contents.size(), reference.size());
    for (const std::uint32_t k : reference) EXPECT_TRUE(contents.count(k));
  }
}

}  // namespace
}  // namespace sg
