// Erase-dominant stress differential for the staged batch engine: long
// churn streams where deletions outnumber insertions, with duplicate erase
// keys, misses (never-inserted and already-erased pairs), self-loops, and
// immediate reinsert-after-erase cycles — swept across stage shard counts
// and pipeline epoch sizes, for both graph variants and both
// directednesses. The oracle is the reference graph of
// tests/graph_test_util.hpp; the bulk engine must match it edge-for-edge
// and count-for-count after every phase. A sliding-window churn test then
// checks that bulk inserts reuse the slots erases tombstone, so the chains
// stop growing once the window has turned over.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/dyn_graph.hpp"
#include "src/util/prng.hpp"
#include "tests/graph_test_util.hpp"

namespace sg::core {
namespace {

using namespace testutil;

struct StressShape {
  std::uint32_t stage_shards;
  std::uint32_t epoch_edges;
};

GraphConfig stress_config(bool undirected, const StressShape& shape) {
  GraphConfig cfg;
  cfg.vertex_capacity = 256;
  cfg.undirected = undirected;
  cfg.stage_shards = shape.stage_shards;
  cfg.pipeline_epoch_edges = shape.epoch_edges;
  return cfg;
}

/// Erase batch stressing the deletion path: ~half drawn from live edges
/// (with deliberate duplicates), the rest misses — never-inserted pairs,
/// pairs erased in an earlier round, and self-loops.
std::vector<Edge> adversarial_erases(util::Xoshiro256& rng,
                                     const std::vector<WeightedEdge>& live,
                                     std::size_t count) {
  std::vector<Edge> erases;
  erases.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t kind = rng.below(8);
    if (kind < 4 && !live.empty()) {
      const auto& e = live[rng.below(live.size())];
      erases.push_back({e.src, e.dst});
      if (kind == 0) erases.push_back({e.src, e.dst});  // in-batch duplicate
    } else if (kind < 6) {
      // Miss: vertices beyond anything the insert stream touches.
      erases.push_back({static_cast<VertexId>(300 + rng.below(64)),
                        static_cast<VertexId>(300 + rng.below(64))});
    } else if (kind == 6) {
      const auto v = static_cast<VertexId>(rng.below(200));
      erases.push_back({v, v});  // self-loop (never present: inserts drop them)
    } else if (!live.empty()) {
      const auto& e = live[rng.below(live.size())];
      erases.push_back({e.dst, e.src});  // reverse pair: miss when directed
    }
  }
  return erases;
}

template <class Policy>
void run_erase_stress(bool undirected, const StressShape& shape,
                      std::uint64_t seed) {
  DynGraph<Policy> bulk(stress_config(undirected, shape));
  ReferenceGraph ref(undirected);
  util::Xoshiro256 rng(seed);

  // Seed population, then erase-dominant churn: each round erases ~2x the
  // edges it inserts, and reinserts a slice of what it just erased (the
  // tombstone-reuse path).
  std::vector<WeightedEdge> history = random_batch(seed, 1200, 200);
  EXPECT_EQ(bulk.insert_edges(history), ref.insert(history));
  expect_matches(bulk, ref);

  for (int round = 0; round < 6; ++round) {
    const auto erases = adversarial_erases(rng, history, 400);
    EXPECT_EQ(bulk.delete_edges(erases), ref.erase(erases))
        << "round " << round;
    expect_matches(bulk, ref);

    // Churn: reinsert a third of the erased pairs with fresh weights, plus
    // a trickle of brand-new edges (also tracked for future erase rounds).
    std::vector<WeightedEdge> reinserts;
    for (std::size_t i = 0; i < erases.size(); i += 3) {
      reinserts.push_back({erases[i].src, erases[i].dst,
                           static_cast<Weight>(rng.below(1u << 16))});
    }
    const auto fresh = random_batch(seed + 100 + round, 150, 200);
    reinserts.insert(reinserts.end(), fresh.begin(), fresh.end());
    EXPECT_EQ(bulk.insert_edges(reinserts), ref.insert(reinserts))
        << "round " << round;
    expect_matches(bulk, ref);
    history.insert(history.end(), reinserts.begin(), reinserts.end());
  }

  // Drain: erase every edge ever inserted (plus all the accumulated
  // duplicates) in one giant batch — the graph must end exactly empty.
  std::vector<Edge> drain;
  for (const auto& e : history) drain.push_back({e.src, e.dst});
  EXPECT_EQ(bulk.delete_edges(drain), ref.erase(drain));
  expect_matches(bulk, ref);
  EXPECT_EQ(bulk.num_edges(), 0u);
}

class BulkEraseStress
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {
};

TEST_P(BulkEraseStress, MapDirected) {
  run_erase_stress<MapPolicy>(
      false, {std::get<0>(GetParam()), std::get<1>(GetParam())}, 11);
}
TEST_P(BulkEraseStress, MapUndirected) {
  run_erase_stress<MapPolicy>(
      true, {std::get<0>(GetParam()), std::get<1>(GetParam())}, 12);
}
TEST_P(BulkEraseStress, SetDirected) {
  run_erase_stress<SetPolicy>(
      false, {std::get<0>(GetParam()), std::get<1>(GetParam())}, 13);
}
TEST_P(BulkEraseStress, SetUndirected) {
  run_erase_stress<SetPolicy>(
      true, {std::get<0>(GetParam()), std::get<1>(GetParam())}, 14);
}

INSTANTIATE_TEST_SUITE_P(
    ShardAndEpochSweep, BulkEraseStress,
    ::testing::Values(std::make_tuple(1u, 1u << 20),   // one shard, one epoch
                      std::make_tuple(2u, 256u),       // several epochs
                      std::make_tuple(4u, 64u)),       // many tiny epochs
    [](const ::testing::TestParamInfo<std::tuple<std::uint32_t, std::uint32_t>>&
           info) {
      return "shards" + std::to_string(std::get<0>(info.param)) + "_epoch" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Sliding-window churn: insert the newest batch, erase the oldest, for
// several turnovers of a fixed-size window, compared against the
// reference graph after every turnover.
// ---------------------------------------------------------------------------

template <class Policy>
void run_sliding_window_churn() {
  constexpr std::uint32_t kSources = 64;
  constexpr std::uint32_t kDegree = 24;  // live edges per source, on average
  constexpr std::uint32_t kWindow = kSources * kDegree;
  constexpr std::uint32_t kBatch = 128;
  constexpr int kTurnovers = 3;

  GraphConfig cfg;
  cfg.vertex_capacity = kSources;
  // Rebuilding a table also drops its tombstones; keep it off so the
  // insert path alone decides whether chains grow.
  cfg.auto_rehash_p99_slabs = 0;
  DynGraph<Policy> g(cfg);
  std::vector<VertexId> ids(kSources);
  for (VertexId u = 0; u < kSources; ++u) ids[u] = u;
  g.insert_vertices(ids, std::vector<std::uint32_t>(kSources, kDegree));

  // Edge i of the stream: a distinct (src, dst) pair with a seeded source.
  const auto edge = [](std::uint64_t i) {
    const auto src =
        static_cast<VertexId>(util::mix64(i ^ 0xC0FFEE) % kSources);
    return WeightedEdge{src, static_cast<VertexId>(i),
                        static_cast<Weight>(util::mix64(i) & 0xFFFF)};
  };
  ReferenceGraph ref(/*undirected=*/false);

  std::uint64_t newest = 0, oldest = 0;
  std::vector<std::uint64_t> overflow;  // overflow slabs after each turnover
  for (int turnover = 0; turnover <= kTurnovers; ++turnover) {
    for (std::uint32_t step = 0; step < kWindow / kBatch; ++step) {
      std::vector<WeightedEdge> inserts;
      for (std::uint32_t i = 0; i < kBatch; ++i) {
        inserts.push_back(edge(newest++));
      }
      ASSERT_EQ(ref.insert(inserts), kBatch);
      ASSERT_EQ(g.insert_edges(inserts), kBatch);
      if (turnover == 0) continue;  // filling the window
      std::vector<Edge> erases;
      for (std::uint32_t i = 0; i < kBatch; ++i) {
        const WeightedEdge e = edge(oldest++);
        erases.push_back({e.src, e.dst});
      }
      ASSERT_EQ(ref.erase(erases), kBatch);
      ASSERT_EQ(g.delete_edges(erases), kBatch);
    }
    SCOPED_TRACE("turnover " + std::to_string(turnover));
    expect_matches(g, ref);
    overflow.push_back(g.memory_stats().overflow_slabs);
  }
  // Slack: an eighth of the base slabs. With tombstone reuse a chain only
  // lengthens when its bucket's live count reaches a new high (map: +17
  // slabs over 192 base slabs from turnover 1 to 3; set: +0); without
  // reuse every turnover appends a window's worth of slots (map: +203,
  // set: +122).
  const std::uint64_t slack = g.memory_stats().base_slabs / 8;
  EXPECT_LE(overflow[3], overflow[1] + slack)
      << "overflow slabs after turnovers 1, 2, 3: " << overflow[1] << ", "
      << overflow[2] << ", " << overflow[3];
}

TEST(SlidingWindowChurn, MapChainsStayFlat) {
  run_sliding_window_churn<MapPolicy>();
}
TEST(SlidingWindowChurn, SetChainsStayFlat) {
  run_sliding_window_churn<SetPolicy>();
}

}  // namespace
}  // namespace sg::core
