// Model-based property tests: random operation sequences applied both to
// the DynGraph and to the reference graph of tests/graph_test_util.hpp
// must stay observationally equivalent (edge existence, weights, exact
// degrees, total edge count). Parameterized over seeds, variants,
// directedness, and load factors. Insert batches go in raw — in-batch
// duplicates with different weights and self-loops included — since the
// engine's most-recent-wins rule is exactly what the reference spells out;
// a duplicate-heavy sweep pins that rule at several pool widths.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/core/dyn_graph.hpp"
#include "src/simt/thread_pool.hpp"
#include "src/util/prng.hpp"
#include "tests/graph_test_util.hpp"

namespace sg::core {
namespace {

using testutil::expect_matches;
using testutil::ReferenceGraph;

struct PropertyParam {
  std::uint64_t seed;
  bool undirected;
  double load_factor;
};

class DynGraphProperty : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(DynGraphProperty, MixedOperationSequenceMatchesModel) {
  const PropertyParam param = GetParam();
  util::Xoshiro256 rng(param.seed);
  constexpr std::uint32_t kVertices = 80;

  GraphConfig cfg;
  cfg.vertex_capacity = kVertices;
  cfg.undirected = param.undirected;
  cfg.load_factor = param.load_factor;
  DynGraphMap graph(cfg);
  ReferenceGraph model(param.undirected);

  for (int round = 0; round < 40; ++round) {
    const auto op = rng.below(10);
    if (op < 5) {
      // Insert a random batch (with duplicates and self-loops mixed in).
      std::vector<WeightedEdge> batch;
      const std::size_t size = 1 + rng.below(120);
      for (std::size_t i = 0; i < size; ++i) {
        batch.push_back({static_cast<VertexId>(rng.below(kVertices)),
                         static_cast<VertexId>(rng.below(kVertices)),
                         static_cast<Weight>(rng.below(1000))});
      }
      const std::uint64_t expected = model.insert(batch);
      EXPECT_EQ(graph.insert_edges(batch), expected);
    } else if (op < 8) {
      std::vector<Edge> batch;
      const std::size_t size = 1 + rng.below(60);
      std::set<std::pair<VertexId, VertexId>> unique_targets;
      for (std::size_t i = 0; i < size; ++i) {
        unique_targets.insert(
            {static_cast<VertexId>(rng.below(kVertices)),
             static_cast<VertexId>(rng.below(kVertices))});
      }
      for (const auto& [u, v] : unique_targets) batch.push_back({u, v});
      const std::uint64_t expected = model.erase(batch);
      EXPECT_EQ(graph.delete_edges(batch), expected);
    } else if (op == 8) {
      std::vector<VertexId> doomed;
      const std::size_t size = 1 + rng.below(4);
      for (std::size_t i = 0; i < size; ++i) {
        doomed.push_back(static_cast<VertexId>(rng.below(kVertices)));
      }
      graph.delete_vertices(doomed);
      model.delete_vertices(doomed);
    } else {
      // Query phase: spot-check equivalence, point and batched.
      std::vector<Edge> queries;
      for (int q = 0; q < 50; ++q) {
        const auto u = static_cast<VertexId>(rng.below(kVertices));
        const auto v = static_cast<VertexId>(rng.below(kVertices));
        ASSERT_EQ(graph.edge_exists(u, v), model.edge_exists(u, v))
            << "round " << round << " edge " << u << "->" << v;
        queries.push_back({u, v});
      }
      std::vector<std::uint8_t> found(queries.size(), 2);
      std::vector<Weight> weights(queries.size(), 0xDEAD);
      graph.edge_weights(queries, weights.data(), found.data());
      ASSERT_EQ(found, model.exist(queries)) << "round " << round;
      ASSERT_EQ(weights, model.weights(queries)) << "round " << round;
    }
  }

  // Final full equivalence: existence, weights, exact degrees, totals,
  // and no phantom edges.
  expect_matches(graph, model);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndConfigs, DynGraphProperty,
    ::testing::Values(PropertyParam{1, false, 0.7}, PropertyParam{2, false, 0.7},
                      PropertyParam{3, false, 0.7}, PropertyParam{4, true, 0.7},
                      PropertyParam{5, true, 0.7}, PropertyParam{6, true, 0.7},
                      PropertyParam{7, false, 0.35}, PropertyParam{8, true, 0.35},
                      PropertyParam{9, false, 2.0}, PropertyParam{10, true, 2.0},
                      PropertyParam{11, false, 5.0}, PropertyParam{12, true, 0.1}),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed) +
             (info.param.undirected ? "_undir" : "_dir") + "_lf" +
             std::to_string(static_cast<int>(info.param.load_factor * 100));
    });

// ---------------------------------------------------------------------------
// Duplicate-heavy batches: every (src, dst) pair recurs several times per
// batch with distinct weights, so only the last occurrence's weight is
// right. Exact weights and `added` counts must match the reference at any
// pool width, with no serialization of the graph under test.
// ---------------------------------------------------------------------------

class DuplicateHeavyBatches : public ::testing::TestWithParam<unsigned> {
 protected:
  void SetUp() override { simt::ThreadPool::instance().resize(GetParam()); }
  void TearDown() override { simt::ThreadPool::instance().resize(0); }
};

template <class Policy>
void run_duplicate_heavy(bool undirected, std::uint32_t stage_shards,
                         std::uint32_t epoch_edges, std::uint64_t seed) {
  constexpr std::uint32_t kVertices = 24;  // 552 directed pairs
  constexpr std::size_t kBatch = 3000;     // ~5 occurrences of each pair
  GraphConfig cfg;
  cfg.vertex_capacity = kVertices;
  cfg.undirected = undirected;
  cfg.stage_shards = stage_shards;
  cfg.pipeline_epoch_edges = epoch_edges;
  DynGraph<Policy> graph(cfg);
  ReferenceGraph model(undirected);
  util::Xoshiro256 rng(seed);
  const std::string shape = "shards " + std::to_string(stage_shards) +
                            ", epoch " + std::to_string(epoch_edges);

  std::vector<Edge> all_pairs;
  for (VertexId u = 0; u < kVertices; ++u) {
    for (VertexId v = 0; v < kVertices; ++v) all_pairs.push_back({u, v});
  }
  for (int round = 0; round < 6; ++round) {
    std::vector<WeightedEdge> batch(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      // Weights unique across the whole run: a wrong winner cannot match.
      batch[i] = {static_cast<VertexId>(rng.below(kVertices)),
                  static_cast<VertexId>(rng.below(kVertices)),
                  static_cast<Weight>(round * kBatch + i + 1)};
    }
    const std::uint64_t expected = model.insert(batch);
    ASSERT_EQ(graph.insert_edges(batch), expected)
        << shape << ", round " << round;
    ASSERT_NO_FATAL_FAILURE(expect_matches(graph, model)) << shape;

    std::vector<Edge> erases;  // duplicates and misses included
    for (int i = 0; i < 400; ++i) {
      erases.push_back({static_cast<VertexId>(rng.below(kVertices)),
                        static_cast<VertexId>(rng.below(kVertices))});
    }
    ASSERT_EQ(graph.delete_edges(erases), model.erase(erases))
        << shape << ", round " << round;

    std::vector<std::uint8_t> found(all_pairs.size(), 2);
    graph.edges_exist(all_pairs, found.data());
    ASSERT_EQ(found, model.exist(all_pairs)) << shape << ", round " << round;
    if constexpr (Policy::kHasValues) {
      std::vector<Weight> weights(all_pairs.size(), 0xDEAD);
      graph.edge_weights(all_pairs, weights.data());
      ASSERT_EQ(weights, model.weights(all_pairs))
          << shape << ", round " << round;
    }
  }
  expect_matches(graph, model);
}

/// Default engine shape, then forced sharding with many small epochs so
/// duplicates straddle both shard and epoch boundaries.
template <class Policy>
void run_duplicate_heavy_shapes(bool undirected, std::uint64_t seed) {
  run_duplicate_heavy<Policy>(undirected, 0, 0, seed);
  run_duplicate_heavy<Policy>(undirected, 4, 256, seed + 1);
}

TEST_P(DuplicateHeavyBatches, MapDirected) {
  run_duplicate_heavy_shapes<MapPolicy>(false, 101);
}
TEST_P(DuplicateHeavyBatches, MapUndirected) {
  run_duplicate_heavy_shapes<MapPolicy>(true, 102);
}
TEST_P(DuplicateHeavyBatches, SetDirected) {
  run_duplicate_heavy_shapes<SetPolicy>(false, 103);
}
TEST_P(DuplicateHeavyBatches, SetUndirected) {
  run_duplicate_heavy_shapes<SetPolicy>(true, 104);
}

INSTANTIATE_TEST_SUITE_P(Widths, DuplicateHeavyBatches,
                         ::testing::Values(1u, 4u, 8u));

}  // namespace
}  // namespace sg::core
