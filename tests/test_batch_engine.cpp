// Differential tests of the staged batch engine (src/core/batch_engine.hpp):
// it must produce the graph the reference graph of tests/graph_test_util.hpp
// describes on the same inputs — random and skewed batches, inserts,
// erases, bulk build, and batched existence queries — plus unit tests of
// the staging/grouping pass and the slabhash bulk entry points it drives.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <type_traits>
#include <vector>

#include "src/core/batch_engine.hpp"
#include "src/core/dyn_graph.hpp"
#include "src/simt/thread_pool.hpp"
#include "src/slabhash/slab_map.hpp"
#include "src/slabhash/slab_set.hpp"
#include "src/util/prng.hpp"
#include "tests/graph_test_util.hpp"

namespace sg::core {
namespace {

using namespace testutil;

GraphConfig engine_config(bool undirected = false,
                          std::uint32_t capacity = 256) {
  GraphConfig cfg;
  cfg.vertex_capacity = capacity;
  cfg.undirected = undirected;
  return cfg;
}

/// Skewed batch: a handful of hub sources own most of the edges (the
/// bucket-skew case run scheduling must balance), plus duplicates.
std::vector<WeightedEdge> skewed_batch(std::uint64_t seed, std::size_t count,
                                       std::uint32_t num_vertices) {
  util::Xoshiro256 rng(seed);
  std::vector<WeightedEdge> batch(count);
  for (auto& e : batch) {
    const bool hub = rng.below(100) < 70;
    e = {hub ? static_cast<VertexId>(rng.below(4))
             : static_cast<VertexId>(rng.below(num_vertices)),
         static_cast<VertexId>(rng.below(hub ? num_vertices : 16)),
         static_cast<Weight>(rng.below(1u << 16))};
  }
  return batch;
}

template <class Policy>
void run_differential(bool undirected, std::uint64_t seed) {
  DynGraph<Policy> bulk(engine_config(undirected));
  ReferenceGraph ref(undirected);

  // Interleave random and skewed insert batches with erase batches drawn
  // from the same distributions, checking equality after every phase.
  for (int round = 0; round < 4; ++round) {
    const auto inserts = round % 2 == 0
                             ? random_batch(seed + round, 600, 180)
                             : skewed_batch(seed + round, 600, 180);
    EXPECT_EQ(bulk.insert_edges(inserts), ref.insert(inserts));
    expect_matches(bulk, ref);

    std::vector<Edge> erases;
    for (const auto& e : round % 2 == 0
                             ? skewed_batch(seed + 100 + round, 250, 180)
                             : random_batch(seed + 100 + round, 250, 180)) {
      erases.push_back({e.src, e.dst});
    }
    EXPECT_EQ(bulk.delete_edges(erases), ref.erase(erases));
    expect_matches(bulk, ref);

    // Batched existence must agree with the reference and with point
    // queries on hits, misses, unknown sources, and self-loops.
    const auto probes = random_batch(seed + 200 + round, 300, 220);
    std::vector<Edge> queries;
    for (const auto& e : probes) queries.push_back({e.src, e.dst});
    std::vector<std::uint8_t> bulk_out(queries.size(), 2);
    bulk.edges_exist(queries, bulk_out.data());
    EXPECT_EQ(bulk_out, ref.exist(queries));
    for (std::size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(bulk_out[q] != 0,
                bulk.edge_exists(queries[q].src, queries[q].dst));
    }
  }
}

TEST(BatchEngineDifferential, MapDirected) {
  run_differential<MapPolicy>(false, 1);
}
TEST(BatchEngineDifferential, MapUndirected) {
  run_differential<MapPolicy>(true, 2);
}
TEST(BatchEngineDifferential, SetDirected) {
  run_differential<SetPolicy>(false, 3);
}
TEST(BatchEngineDifferential, SetUndirected) {
  run_differential<SetPolicy>(true, 4);
}

TEST(BatchEngineDifferential, BulkBuildMatchesReference) {
  const auto edges = random_batch(7, 4000, 500);
  for (const bool undirected : {false, true}) {
    DynGraphMap bulk(engine_config(undirected, 500));
    ReferenceGraph ref(undirected);
    bulk.bulk_build(edges);
    ref.insert(edges);
    expect_matches(bulk, ref);
  }
}

TEST(BatchEngineDifferential, MostRecentDuplicateWinsDeterministically) {
  // Duplicates inside a batch must resolve to the LAST occurrence even
  // though the engine reorders the batch internally.
  DynGraphMap g(engine_config());
  std::vector<WeightedEdge> batch;
  for (Weight w = 1; w <= 64; ++w) batch.push_back({5, 9, w});
  batch.push_back({5, 10, 1});
  for (Weight w = 100; w <= 140; ++w) batch.push_back({5, 9, w});
  EXPECT_EQ(g.insert_edges(batch), 2u);
  EXPECT_EQ(g.edge_weight(5, 9).value, 140u);
  EXPECT_EQ(g.degree(5), 2u);
}

// ---------------------------------------------------------------------------
// Staging / grouping unit tests
// ---------------------------------------------------------------------------

TEST(BatchStaging, GroupsDedupsAndPreservesRunOrder) {
  BatchStaging st;
  const slabhash::TableRef table{0, 8};  // hashing only needs num_buckets
  const std::uint64_t seed = 42;
  std::vector<WeightedEdge> edges = {
      {3, 7, 10}, {1, 7, 11}, {3, 7, 12}, {3, 3, 99},  // self-loop drops
      {1, 9, 13}, {3, 7, 14},
  };
  stage_weighted_edges(edges, /*undirected=*/false, /*keep_weights=*/true,
                       seed, [&](VertexId) { return table; }, st);
  EXPECT_EQ(st.staged, 5u);
  EXPECT_EQ(st.dropped, 1u);
  st.group_prepare(/*dedup=*/true);
  st.emit_self(/*gather_values=*/true, /*gather_seqs=*/false);
  EXPECT_EQ(st.duplicates, 2u);  // two earlier (3, 7) occurrences dropped
  EXPECT_EQ(st.keys.size(), 3u);
  ASSERT_EQ(st.run_offsets.size(), st.runs.size() + 1);
  // Runs are sorted by source; every key lands in its staged bucket, and
  // the surviving (3, 7) carries the LAST weight.
  std::map<std::pair<VertexId, std::uint32_t>, Weight> kept;
  for (std::size_t r = 0; r < st.runs.size(); ++r) {
    if (r > 0) EXPECT_LE(st.runs[r - 1].src, st.runs[r].src);
    for (std::uint64_t i = st.run_offsets[r]; i < st.run_offsets[r + 1]; ++i) {
      EXPECT_EQ(st.runs[r].bucket,
                slabhash::bucket_of(st.keys[i], table.num_buckets, seed));
      kept[{st.runs[r].src, st.keys[i]}] = st.values[i];
    }
  }
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ((kept[{3, 7}]), 14u);
  EXPECT_EQ((kept[{1, 7}]), 11u);
  EXPECT_EQ((kept[{1, 9}]), 13u);
}

TEST(BatchStaging, UndirectedStagesBothDirectionsInPlace) {
  BatchStaging st;
  const slabhash::TableRef table{0, 1};
  std::vector<WeightedEdge> edges = {{1, 2, 5}, {2, 1, 6}};
  stage_weighted_edges(edges, /*undirected=*/true, /*keep_weights=*/true, 1,
                       [&](VertexId) { return table; }, st);
  EXPECT_EQ(st.staged, 4u);
  st.group_prepare(true);
  st.emit_self(true, false);
  // (1,2) and (2,1) both appear twice across the mirror; each dedups to
  // the most recent weight.
  EXPECT_EQ(st.duplicates, 2u);
  EXPECT_EQ(st.keys.size(), 2u);
}

// ---------------------------------------------------------------------------
// slabhash bulk entry points
// ---------------------------------------------------------------------------

TEST(SlabBulkOps, MapBulkMatchesScalarOps) {
  memory::SlabArena arena_bulk, arena_scalar;
  const std::uint64_t seed = 0x5EED;
  slabhash::SlabHashMap scalar(arena_scalar, 4, seed);
  const slabhash::TableRef table{
      arena_bulk.allocate_contiguous(4, slabhash::kEmptyKey), 4};

  // Group 200 keys by bucket (as the engine would), then bulk-insert runs.
  util::Xoshiro256 rng(9);
  std::map<std::uint32_t, std::vector<std::uint32_t>> by_bucket;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (int i = 0; i < 200; ++i) {
    const auto key = static_cast<std::uint32_t>(rng.below(1u << 20));
    if (std::find_if(pairs.begin(), pairs.end(), [&](auto& p) {
          return p.first == key;
        }) != pairs.end()) {
      continue;  // engine runs are deduped
    }
    pairs.push_back({key, key * 3});
    by_bucket[slabhash::bucket_of(key, 4, seed)].push_back(key);
  }
  std::uint32_t added = 0;
  for (auto& [bucket, keys] : by_bucket) {
    std::vector<std::uint32_t> values;
    for (auto k : keys) values.push_back(k * 3);
    added += slabhash::map_bulk_replace(arena_bulk, table, bucket,
                                        keys.data(), values.data(),
                                        static_cast<std::uint32_t>(keys.size()));
  }
  for (auto& [k, v] : pairs) scalar.replace(k, v);
  EXPECT_EQ(added, pairs.size());

  // Every key searchable through both bulk and scalar paths.
  for (auto& [bucket, keys] : by_bucket) {
    std::vector<std::uint8_t> found(keys.size(), 0);
    std::vector<std::uint32_t> values(keys.size(), 0);
    slabhash::map_bulk_search(arena_bulk, table, bucket, keys.data(),
                              static_cast<std::uint32_t>(keys.size()),
                              found.data(), values.data());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(found[i], 1);
      EXPECT_EQ(values[i], keys[i] * 3);
      const auto r = slabhash::map_search(arena_bulk, table, keys[i], seed);
      EXPECT_TRUE(r.found);
      EXPECT_EQ(r.value, keys[i] * 3);
    }
  }

  // Bulk-erase half of each run; occupancy must match the scalar table's.
  std::uint32_t removed = 0, scalar_removed = 0;
  for (auto& [bucket, keys] : by_bucket) {
    const auto half =
        std::vector<std::uint32_t>(keys.begin(),
                                   keys.begin() + (keys.size() + 1) / 2);
    removed += slabhash::map_bulk_erase(arena_bulk, table, bucket, half.data(),
                                        static_cast<std::uint32_t>(half.size()));
    for (auto k : half) scalar_removed += scalar.erase(k) ? 1 : 0;
  }
  EXPECT_EQ(removed, scalar_removed);
  const auto bulk_occ = slabhash::map_occupancy(arena_bulk, table);
  const auto scalar_occ = scalar.occupancy();
  EXPECT_EQ(bulk_occ.live_keys, scalar_occ.live_keys);
  EXPECT_EQ(bulk_occ.tombstones, scalar_occ.tombstones);
}

TEST(SlabBulkOps, RunsLongerThanOneWaveSpillAcrossSlabs) {
  memory::SlabArena arena;
  const slabhash::TableRef table{
      arena.allocate_contiguous(1, slabhash::kEmptyKey), 1};
  // 100 unique keys into one bucket: > 3 waves, > 6 map slabs of chain.
  std::vector<std::uint32_t> keys, values;
  for (std::uint32_t k = 0; k < 100; ++k) {
    keys.push_back(k * 7 + 1);
    values.push_back(k);
  }
  EXPECT_EQ(slabhash::map_bulk_replace(arena, table, 0, keys.data(),
                                       values.data(), 100),
            100u);
  // Re-inserting the same run adds nothing but refreshes values.
  for (auto& v : values) v += 1000;
  EXPECT_EQ(slabhash::map_bulk_replace(arena, table, 0, keys.data(),
                                       values.data(), 100),
            0u);
  std::vector<std::uint8_t> found(100, 0);
  std::vector<std::uint32_t> got(100, 0);
  slabhash::map_bulk_search(arena, table, 0, keys.data(), 100, found.data(),
                            got.data());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(found[i], 1);
    EXPECT_EQ(got[i], values[i]);
  }
  EXPECT_EQ(slabhash::map_bulk_erase(arena, table, 0, keys.data(), 100), 100u);
  slabhash::map_bulk_search(arena, table, 0, keys.data(), 100, found.data(),
                            nullptr);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(found[i], 0);
}

TEST(SlabBulkOps, SetBulkInsertEraseContains) {
  memory::SlabArena arena;
  const slabhash::TableRef table{
      arena.allocate_contiguous(2, slabhash::kEmptyKey), 2};
  std::vector<std::uint32_t> bucket0, bucket1;
  for (std::uint32_t k = 1; k <= 150; ++k) {
    (slabhash::bucket_of(k, 2, 0x5EED) == 0 ? bucket0 : bucket1).push_back(k);
  }
  const auto n0 = static_cast<std::uint32_t>(bucket0.size());
  const auto n1 = static_cast<std::uint32_t>(bucket1.size());
  EXPECT_EQ(slabhash::set_bulk_insert(arena, table, 0, bucket0.data(), n0), n0);
  EXPECT_EQ(slabhash::set_bulk_insert(arena, table, 1, bucket1.data(), n1), n1);
  EXPECT_EQ(slabhash::set_bulk_insert(arena, table, 0, bucket0.data(), n0), 0u);
  std::vector<std::uint8_t> found(n0, 0);
  slabhash::set_bulk_contains(arena, table, 0, bucket0.data(), n0,
                              found.data());
  for (std::uint32_t i = 0; i < n0; ++i) EXPECT_EQ(found[i], 1);
  EXPECT_EQ(slabhash::set_bulk_erase(arena, table, 0, bucket0.data(), n0), n0);
  EXPECT_EQ(slabhash::set_bulk_erase(arena, table, 0, bucket0.data(), n0), 0u);
  for (std::uint32_t k : bucket1) {
    EXPECT_TRUE(slabhash::set_contains(arena, table, k, 0x5EED));
  }
}

// ---------------------------------------------------------------------------
// Tombstone reuse by bucket-owning bulk runs (map and set alike). The
// scalar entry points keep the paper's skip-tombstones rule; test_slab_map's
// TombstoneNotReusedByInsertion and test_slab_set's TombstoneNotReused pin
// that side.
// ---------------------------------------------------------------------------

struct MapRuns {
  static constexpr int kSlots = slabhash::kMapPairsPerSlab;
  static constexpr int kStride = 2;  // words per slot
  static std::uint32_t insert(memory::SlabArena& arena, slabhash::TableRef t,
                              const std::vector<std::uint32_t>& keys,
                              slabhash::BulkStatus* status = nullptr) {
    std::vector<std::uint32_t> values;
    for (auto k : keys) values.push_back(value_of(k));
    return slabhash::map_bulk_replace(
        arena, t, 0, keys.data(), values.data(),
        static_cast<std::uint32_t>(keys.size()), 0, nullptr, status);
  }
  static std::uint32_t erase(memory::SlabArena& arena, slabhash::TableRef t,
                             const std::vector<std::uint32_t>& keys) {
    return slabhash::map_bulk_erase(arena, t, 0, keys.data(),
                                    static_cast<std::uint32_t>(keys.size()));
  }
  /// Live key -> stored value; a key met twice is recorded in `dups`.
  static std::map<std::uint32_t, std::uint32_t> contents(
      const memory::SlabArena& arena, slabhash::TableRef t, int& dups) {
    std::map<std::uint32_t, std::uint32_t> out;
    slabhash::map_for_each(arena, t, [&](std::uint32_t k, std::uint32_t v) {
      if (!out.emplace(k, v).second) ++dups;
    });
    return out;
  }
  static slabhash::TableOccupancy occupancy(const memory::SlabArena& arena,
                                            slabhash::TableRef t) {
    return slabhash::map_occupancy(arena, t);
  }
  static std::uint32_t value_of(std::uint32_t key) { return key * 3 + 1; }
};

struct SetRuns {
  static constexpr int kSlots = slabhash::kSetKeysPerSlab;
  static constexpr int kStride = 1;
  static std::uint32_t insert(memory::SlabArena& arena, slabhash::TableRef t,
                              const std::vector<std::uint32_t>& keys,
                              slabhash::BulkStatus* status = nullptr) {
    return slabhash::set_bulk_insert(arena, t, 0, keys.data(),
                                     static_cast<std::uint32_t>(keys.size()),
                                     0, nullptr, status);
  }
  static std::uint32_t erase(memory::SlabArena& arena, slabhash::TableRef t,
                             const std::vector<std::uint32_t>& keys) {
    return slabhash::set_bulk_erase(arena, t, 0, keys.data(),
                                    static_cast<std::uint32_t>(keys.size()));
  }
  static std::map<std::uint32_t, std::uint32_t> contents(
      const memory::SlabArena& arena, slabhash::TableRef t, int& dups) {
    std::map<std::uint32_t, std::uint32_t> out;
    slabhash::set_for_each(arena, t, [&](std::uint32_t k) {
      if (!out.emplace(k, value_of(k)).second) ++dups;
    });
    return out;
  }
  static slabhash::TableOccupancy occupancy(const memory::SlabArena& arena,
                                            slabhash::TableRef t) {
    return slabhash::set_occupancy(arena, t);
  }
  static std::uint32_t value_of(std::uint32_t key) { return key * 3 + 1; }
};

std::vector<std::uint32_t> key_range(std::uint32_t first, std::uint32_t n) {
  std::vector<std::uint32_t> keys(n);
  for (std::uint32_t i = 0; i < n; ++i) keys[i] = first + i;
  return keys;
}

/// Key words of bucket 0's chain, slab by slab.
template <class Ops>
std::vector<std::vector<std::uint32_t>> chain_keys(
    const memory::SlabArena& arena, slabhash::TableRef t) {
  std::vector<std::vector<std::uint32_t>> slabs;
  for (memory::SlabHandle h = t.bucket_head(0); h != memory::kNullSlab;
       h = arena.resolve(h).words[slabhash::kNextPtrWord]) {
    auto& keys = slabs.emplace_back();
    for (int i = 0; i < Ops::kSlots; ++i) {
      keys.push_back(arena.resolve(h).words[i * Ops::kStride]);
    }
  }
  return slabs;
}

/// The invariant search and erase stop early on: EMPTY slots only after
/// every used slot of their slab, and only in the chain's last slab.
template <class Ops>
void expect_empties_at_tail(const memory::SlabArena& arena,
                            slabhash::TableRef t) {
  const auto slabs = chain_keys<Ops>(arena, t);
  for (std::size_t s = 0; s < slabs.size(); ++s) {
    bool seen_empty = false;
    for (int i = 0; i < Ops::kSlots; ++i) {
      if (slabs[s][i] == slabhash::kEmptyKey) {
        seen_empty = true;
        EXPECT_EQ(s + 1, slabs.size()) << "EMPTY slot before the last slab";
      } else {
        EXPECT_FALSE(seen_empty) << "used slot " << i << " of slab " << s
                                 << " after an EMPTY slot";
      }
    }
  }
}

template <class Ops>
class TombstoneReuse : public ::testing::Test {
 protected:
  memory::SlabArena arena;
  const slabhash::TableRef table{
      arena.allocate_contiguous(1, slabhash::kEmptyKey), 1};
};
using RunKinds = ::testing::Types<MapRuns, SetRuns>;
TYPED_TEST_SUITE(TombstoneReuse, RunKinds);

TYPED_TEST(TombstoneReuse, SingletonClaimsBaseTombstoneBeforeEmpty) {
  using Ops = TypeParam;
  auto& arena = this->arena;
  const auto t = this->table;
  ASSERT_EQ(Ops::insert(arena, t, key_range(1, 10)), 10u);
  ASSERT_EQ(Ops::erase(arena, t, {4}), 1u);  // tombstone at slot 3
  EXPECT_EQ(Ops::insert(arena, t, {500}), 1u);
  const auto slabs = chain_keys<Ops>(arena, t);
  ASSERT_EQ(slabs.size(), 1u) << "no overflow slab";
  EXPECT_EQ(slabs[0][3], 500u);
  for (int i = 10; i < Ops::kSlots; ++i) {
    EXPECT_EQ(slabs[0][i], slabhash::kEmptyKey) << "slot " << i;
  }
  const auto occ = Ops::occupancy(arena, t);
  EXPECT_EQ(occ.tombstones, 0u);
  EXPECT_EQ(occ.live_keys, 10u);
  EXPECT_EQ(occ.overflow_slabs, 0u);
  int dups = 0;
  const auto live = Ops::contents(arena, t, dups);
  EXPECT_EQ(dups, 0);
  EXPECT_EQ(live.count(4), 0u);
  ASSERT_EQ(live.count(500), 1u);
  EXPECT_EQ(live.at(500), Ops::value_of(500));
}

TYPED_TEST(TombstoneReuse, MultiWaveRunClaimsTombstonesBeforeEmpties) {
  using Ops = TypeParam;
  auto& arena = this->arena;
  const auto t = this->table;
  // Three full slabs and 5 keys in a fourth, then 40 tombstones spread
  // over the full slabs: a 40-key run (two waves) must land in exactly
  // those slots, leaving the tail slab's EMPTY slots and slab count alone.
  const auto n = static_cast<std::uint32_t>(3 * Ops::kSlots + 5);
  ASSERT_EQ(Ops::insert(arena, t, key_range(1, n)), n);
  std::vector<std::uint32_t> victims;  // 40 keys spread over the full slabs
  for (std::uint32_t i = 0; i < 40; ++i) {
    victims.push_back(1 + i * 3 * Ops::kSlots / 40);
  }
  ASSERT_EQ(Ops::erase(arena, t, victims), 40u);
  const auto before = chain_keys<Ops>(arena, t);
  ASSERT_EQ(before.size(), 4u);

  EXPECT_EQ(Ops::insert(arena, t, key_range(10000, 40)), 40u);
  const auto after = chain_keys<Ops>(arena, t);
  ASSERT_EQ(after.size(), 4u) << "no overflow slab allocated";
  EXPECT_EQ(after[3], before[3]) << "the tail slab's EMPTY slots untouched";
  std::uint32_t next_new = 10000;
  for (std::size_t s = 0; s < 3; ++s) {
    for (int i = 0; i < Ops::kSlots; ++i) {
      if (before[s][i] == slabhash::kTombstoneKey) {
        // Claimed in chain order: the run's keys in ascending order.
        EXPECT_EQ(after[s][i], next_new++) << "slab " << s << " slot " << i;
      } else {
        EXPECT_EQ(after[s][i], before[s][i]);
      }
    }
  }
  EXPECT_EQ(next_new, 10040u);
  EXPECT_EQ(Ops::occupancy(arena, t).tombstones, 0u);
}

TYPED_TEST(TombstoneReuse, SingletonOverwritesLiveCopyBehindTombstone) {
  using Ops = TypeParam;
  auto& arena = this->arena;
  const auto t = this->table;
  const auto n = static_cast<std::uint32_t>(Ops::kSlots + 5);
  ASSERT_EQ(Ops::insert(arena, t, key_range(1, n)), n);
  ASSERT_EQ(Ops::erase(arena, t, {1}), 1u);  // tombstone in the base slab
  const std::uint32_t overflow_key = n - 1;   // lives in the overflow slab
  if constexpr (std::is_same_v<Ops, MapRuns>) {
    const std::uint32_t key = overflow_key, value = 77;
    EXPECT_EQ(slabhash::map_bulk_replace(arena, t, 0, &key, &value, 1), 0u);
  } else {
    EXPECT_EQ(Ops::insert(arena, t, {overflow_key}), 0u);
  }
  int dups = 0;
  const auto live = Ops::contents(arena, t, dups);
  EXPECT_EQ(dups, 0) << "the key must be overwritten, not duplicated";
  EXPECT_EQ(live.size(), n - 1);
  if constexpr (std::is_same_v<Ops, MapRuns>) {
    EXPECT_EQ(live.at(overflow_key), 77u);
  }
  EXPECT_EQ(Ops::occupancy(arena, t).tombstones, 1u) << "tombstone kept";
}

TYPED_TEST(TombstoneReuse, MultiWaveRunOverwritesLiveCopiesBehindTombstones) {
  using Ops = TypeParam;
  auto& arena = this->arena;
  const auto t = this->table;
  const auto n = static_cast<std::uint32_t>(Ops::kSlots + 5);
  ASSERT_EQ(Ops::insert(arena, t, key_range(1, n)), n);
  ASSERT_EQ(Ops::erase(arena, t, {1, 2, 3}), 3u);  // base-slab tombstones
  // A 40-key run: the 5 keys living in the overflow slab, then 35 new.
  std::vector<std::uint32_t> run = key_range(n - 4, 5);
  const auto fresh = key_range(10000, 35);
  run.insert(run.end(), fresh.begin(), fresh.end());
  EXPECT_EQ(Ops::insert(arena, t, run), 35u) << "only the new keys count";
  int dups = 0;
  const auto live = Ops::contents(arena, t, dups);
  EXPECT_EQ(dups, 0);
  EXPECT_EQ(live.size(), n - 3 + 35);
  for (auto k : run) EXPECT_EQ(live.count(k), 1u) << k;
  EXPECT_EQ(Ops::occupancy(arena, t).tombstones, 0u);
}

TYPED_TEST(TombstoneReuse, EmptiesStayAtTailUnderChurn) {
  using Ops = TypeParam;
  auto& arena = this->arena;
  const auto t = this->table;
  util::Xoshiro256 rng(17);
  std::set<std::uint32_t> oracle;
  for (int step = 0; step < 200; ++step) {
    // Alternate singleton and multi-wave runs of unique sorted keys.
    const std::uint32_t size = step % 3 == 0 ? 1 : 1 + rng.below(70);
    std::set<std::uint32_t> picked;
    while (picked.size() < size) {
      picked.insert(static_cast<std::uint32_t>(rng.below(400)));
    }
    const std::vector<std::uint32_t> keys(picked.begin(), picked.end());
    if (rng.below(2) == 0) {
      std::uint32_t fresh = 0;
      for (auto k : keys) fresh += oracle.insert(k).second ? 1 : 0;
      ASSERT_EQ(Ops::insert(arena, t, keys), fresh) << "step " << step;
    } else {
      std::uint32_t present = 0;
      for (auto k : keys) present += oracle.erase(k);
      ASSERT_EQ(Ops::erase(arena, t, keys), present) << "step " << step;
    }
    expect_empties_at_tail<Ops>(arena, t);
    int dups = 0;
    const auto live = Ops::contents(arena, t, dups);
    ASSERT_EQ(dups, 0) << "step " << step;
    ASSERT_TRUE(std::equal(live.begin(), live.end(), oracle.begin(),
                           oracle.end(),
                           [](const auto& kv, std::uint32_t k) {
                             return kv.first == k;
                           }))
        << "step " << step;
  }
}

TYPED_TEST(TombstoneReuse, FullArenaRunsReportExactStatus) {
  using Ops = TypeParam;
  memory::SlabArena arena;
  arena.set_chunk_limit(1);  // the base slab's chunk only: no slab can grow
  const slabhash::TableRef t{arena.allocate_contiguous(1, slabhash::kEmptyKey),
                             1};
  const auto n = static_cast<std::uint32_t>(Ops::kSlots);
  ASSERT_EQ(Ops::insert(arena, t, key_range(1, n)), n);  // base slab full
  slabhash::BulkStatus status;
  EXPECT_EQ(Ops::insert(arena, t, {1000}, &status), 0u);
  EXPECT_FALSE(status.ok) << "a full slab with no tombstone must grow";

  ASSERT_EQ(Ops::erase(arena, t, {2}), 1u);
  status = {};
  EXPECT_EQ(Ops::insert(arena, t, {1000}, &status), 1u);  // singleton reuse
  EXPECT_TRUE(status.ok);

  ASSERT_EQ(Ops::erase(arena, t, {3, 5, 7}), 3u);
  status = {};
  EXPECT_EQ(Ops::insert(arena, t, key_range(2000, 5), &status), 3u);
  EXPECT_FALSE(status.ok);
  EXPECT_EQ(status.fail_base, 0u);
  EXPECT_EQ(status.fail_pending, 0b11000u)
      << "the two keys past the tombstones";
  int dups = 0;
  const auto live = Ops::contents(arena, t, dups);
  EXPECT_EQ(live.size(), n);
  for (std::uint32_t k : {2000u, 2001u, 2002u}) EXPECT_EQ(live.count(k), 1u);
  for (std::uint32_t k : {2003u, 2004u}) EXPECT_EQ(live.count(k), 0u);
}

/// Erase k edges, then insert k new ones for the same sources, on a graph
/// whose arena cannot grow: the inserts fit only by reusing tombstones.
template <class Policy>
void run_full_arena_churn() {
  GraphConfig cfg = engine_config(false, 64);
  cfg.max_arena_chunks = 1;  // base slabs only: no overflow slab fits
  DynGraph<Policy> g(cfg);
  constexpr std::uint32_t kSources = 8;
  const auto slots = static_cast<std::uint32_t>(Policy::kSlotCapacity);
  std::vector<WeightedEdge> fill;
  for (VertexId u = 1; u <= kSources; ++u) {
    for (std::uint32_t i = 0; i < slots; ++i) fill.push_back({u, 100 + i, i});
  }
  ASSERT_EQ(g.insert_edges(fill), fill.size()) << "each base slab filled";

  // Multi-key runs: 5 erased and 5 new per source.
  std::vector<Edge> erases;
  std::vector<WeightedEdge> inserts;
  for (VertexId u = 1; u <= kSources; ++u) {
    for (std::uint32_t i = 0; i < 5; ++i) {
      erases.push_back({u, 100 + 2 * i});
      inserts.push_back({u, 1000 + i, 7});
    }
  }
  ASSERT_EQ(g.delete_edges(erases), erases.size());
  EXPECT_EQ(g.insert_edges(inserts), inserts.size());
  // Singleton runs: one erased and one new per source.
  erases.clear();
  inserts.clear();
  for (VertexId u = 1; u <= kSources; ++u) {
    erases.push_back({u, 101});
    inserts.push_back({u, 2000, 9});
  }
  ASSERT_EQ(g.delete_edges(erases), erases.size());
  EXPECT_EQ(g.insert_edges(inserts), inserts.size());
  EXPECT_EQ(g.num_edges(), fill.size());
  EXPECT_EQ(g.memory_stats().overflow_slabs, 0u);
  EXPECT_EQ(g.memory_stats().tombstones, 0u);

  // Partial: 3 tombstones but 5 new keys for source 1. The run claims the
  // tombstones for its 3 lowest keys and cannot grow for the other 2.
  const std::vector<Edge> three{{1, 103}, {1, 105}, {1, 107}};
  ASSERT_EQ(g.delete_edges(three), 3u);
  std::vector<WeightedEdge> five;
  for (std::uint32_t i = 0; i < 5; ++i) five.push_back({1, 3000 + i, 1});
  try {
    g.insert_edges(five);
    FAIL() << "expected PartialBatchError";
  } catch (const PartialBatchError& e) {
    EXPECT_EQ(e.applied(), 3u);
    std::set<std::pair<VertexId, VertexId>> unapplied;
    for (const auto& u : e.unapplied()) unapplied.insert({u.src, u.dst});
    EXPECT_EQ(unapplied, (std::set<std::pair<VertexId, VertexId>>{
                             {1, 3003}, {1, 3004}}));
  }
  EXPECT_EQ(g.num_edges(), fill.size());
  EXPECT_EQ(g.degree(1), slots);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(g.edge_exists(1, 3000 + i), i < 3) << i;
  }
}

TEST(TombstoneReuseFullArena, MapInsertFitsInErasedSlots) {
  run_full_arena_churn<MapPolicy>();
}
TEST(TombstoneReuseFullArena, SetInsertFitsInErasedSlots) {
  run_full_arena_churn<SetPolicy>();
}

}  // namespace
}  // namespace sg::core
