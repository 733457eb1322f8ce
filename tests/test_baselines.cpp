// Tests for the comparator implementations: CSR, Hornet-style block store,
// and faimGraph-style paged store. Beyond unit semantics, the three must
// agree with each other (and with the paper's contracts: uniqueness,
// most-recent-weight, vertex-id reuse for faim, block doubling for Hornet).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "src/baselines/csr/csr.hpp"
#include "src/baselines/faim/faim_graph.hpp"
#include "src/baselines/hornet/hornet_graph.hpp"
#include "src/simt/thread_pool.hpp"
#include "src/util/prng.hpp"

namespace sg::baselines {
namespace {

using core::Edge;
using core::VertexId;
using core::WeightedEdge;

std::vector<WeightedEdge> random_edges(std::uint32_t vertices, std::size_t count,
                                       std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<WeightedEdge> edges;
  for (std::size_t i = 0; i < count; ++i) {
    edges.push_back({static_cast<VertexId>(rng.below(vertices)),
                     static_cast<VertexId>(rng.below(vertices)),
                     static_cast<core::Weight>(rng.below(100))});
  }
  return edges;
}

// ---- CSR -------------------------------------------------------------------

TEST(Csr, BuildsSortedDedupedRows) {
  std::vector<WeightedEdge> edges = {{0, 2, 1}, {0, 1, 2}, {0, 2, 9}, {1, 0, 3},
                                     {2, 2, 4}};  // dup + self-loop
  const Csr csr = Csr::from_edges(3, edges);
  EXPECT_EQ(csr.num_edges(), 3u);  // dup removed, self-loop removed
  EXPECT_EQ(csr.degree(0), 2u);
  const auto row0 = csr.neighbors(0);
  EXPECT_TRUE(std::is_sorted(row0.begin(), row0.end()));
  // Last duplicate's weight wins.
  EXPECT_EQ(csr.weights(0)[1], 9u);
}

TEST(Csr, EdgeExistsBinarySearch) {
  std::vector<WeightedEdge> edges = {{0, 5, 0}, {0, 7, 0}, {0, 9, 0}};
  const Csr csr = Csr::from_edges(10, edges);
  EXPECT_TRUE(csr.edge_exists(0, 7));
  EXPECT_FALSE(csr.edge_exists(0, 6));
  EXPECT_FALSE(csr.edge_exists(5, 0));
  EXPECT_FALSE(csr.edge_exists(99, 0));
}

TEST(Csr, OutOfRangeEdgesDropped) {
  std::vector<WeightedEdge> edges = {{0, 99, 0}, {99, 0, 0}, {0, 1, 0}};
  const Csr csr = Csr::from_edges(4, edges);
  EXPECT_EQ(csr.num_edges(), 1u);
}

TEST(Csr, UnsortedModeStillDeduped) {
  std::vector<WeightedEdge> edges = {{0, 3, 0}, {0, 1, 0}, {0, 2, 0}};
  const Csr csr = Csr::from_edges(4, edges, /*sort=*/false);
  EXPECT_EQ(csr.degree(0), 3u);
  const auto row = csr.neighbors(0);
  EXPECT_FALSE(std::is_sorted(row.begin(), row.end()));
}

TEST(Csr, DegreesVector) {
  std::vector<WeightedEdge> edges = {{0, 1, 0}, {0, 2, 0}, {2, 0, 0}};
  const Csr csr = Csr::from_edges(3, edges);
  EXPECT_EQ(csr.degrees(), (std::vector<std::uint32_t>{2, 0, 1}));
}

// ---- Hornet ----------------------------------------------------------------

TEST(HornetBlocks, ClassForSmallestPowerOfTwo) {
  using hornet::BlockManager;
  EXPECT_EQ(BlockManager::class_for(0), 0);
  EXPECT_EQ(BlockManager::class_for(1), 0);
  EXPECT_EQ(BlockManager::class_for(2), 1);
  EXPECT_EQ(BlockManager::class_for(3), 2);
  EXPECT_EQ(BlockManager::class_for(4), 2);
  EXPECT_EQ(BlockManager::class_for(5), 3);
  EXPECT_EQ(BlockManager::class_for(1024), 10);
  EXPECT_EQ(BlockManager::class_for(1025), 11);
}

TEST(HornetBlocks, FreeBlocksAreReused) {
  hornet::BlockManager mgr;
  const auto a = mgr.allocate(4);
  const auto bytes_after_first = mgr.bytes_reserved();
  mgr.free(a);
  const auto b = mgr.allocate(4);
  EXPECT_EQ(b.index, a.index);  // B-tree reuse, no new reservation
  EXPECT_EQ(mgr.bytes_reserved(), bytes_after_first);
}

TEST(HornetBlocks, OversizeClassThrows) {
  hornet::BlockManager mgr;
  EXPECT_THROW(mgr.allocate(hornet::BlockManager::kMaxClass + 1),
               std::length_error);
}

TEST(HornetGraph, InsertQueryDelete) {
  hornet::HornetGraph g(16);
  std::vector<WeightedEdge> batch = {{1, 2, 5}, {1, 3, 6}};
  EXPECT_EQ(g.insert_edges(batch), 2u);
  EXPECT_TRUE(g.edge_exists(1, 2));
  EXPECT_FALSE(g.edge_exists(2, 1));
  std::vector<Edge> doomed = {{1, 2}};
  EXPECT_EQ(g.delete_edges(doomed), 1u);
  EXPECT_FALSE(g.edge_exists(1, 2));
  EXPECT_EQ(g.degree(1), 1u);
}

TEST(HornetGraph, DuplicatesAcrossBatchAndGraph) {
  hornet::HornetGraph g(16);
  std::vector<WeightedEdge> batch = {{1, 2, 5}, {1, 2, 6}};
  EXPECT_EQ(g.insert_edges(batch), 1u);  // within-batch dedup
  std::vector<WeightedEdge> again = {{1, 2, 9}};
  EXPECT_EQ(g.insert_edges(again), 0u);  // cross dedup, weight replaced
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.weights(1)[0], 9u);
}

TEST(HornetGraph, BlockDoublingOnOverflow) {
  hornet::HornetGraph g(32);
  // 5 edges -> class 3 block (8); pushing past 8 forces a copy to class 4.
  std::vector<WeightedEdge> first;
  for (std::uint32_t v = 0; v < 5; ++v) first.push_back({0, v + 1, v});
  g.insert_edges(first);
  std::vector<WeightedEdge> more;
  for (std::uint32_t v = 5; v < 12; ++v) more.push_back({0, v + 1, v});
  g.insert_edges(more);
  EXPECT_EQ(g.degree(0), 12u);
  for (std::uint32_t v = 0; v < 12; ++v) ASSERT_TRUE(g.edge_exists(0, v + 1));
}

TEST(HornetGraph, BulkBuildMatchesBatchInsert) {
  const auto edges = random_edges(64, 800, 77);
  hornet::HornetGraph bulk(64), inc(64);
  bulk.bulk_build(edges);
  inc.insert_edges(edges);
  EXPECT_EQ(bulk.num_edges(), inc.num_edges());
  for (VertexId u = 0; u < 64; ++u) {
    auto a = bulk.neighbors(u);
    auto b = inc.neighbors(u);
    std::vector<VertexId> va(a.begin(), a.end()), vb(b.begin(), b.end());
    std::sort(va.begin(), va.end());
    std::sort(vb.begin(), vb.end());
    ASSERT_EQ(va, vb) << "vertex " << u;
  }
}

TEST(HornetGraph, ParallelBatchGrowsManyBlocks) {
  // Batches in which every vertex outgrows its block, on a 4-thread pool:
  // block growth resizes the shared pool storage of a size class, so no
  // worker may hold a pointer into it while another grows a block. Each
  // round doubles every degree, moving every list to the next class.
  constexpr std::uint32_t kVertices = 2048;
  constexpr int kRounds = 6;  // degree 1 -> 64
  const unsigned restore = simt::ThreadPool::instance().requested();
  simt::ThreadPool::instance().resize(4);
  hornet::HornetGraph g(kVertices);
  std::vector<std::map<VertexId, core::Weight>> want(kVertices);
  std::vector<WeightedEdge> batch;
  for (VertexId u = 0; u < kVertices; ++u) {
    batch.push_back({u, (u + 1) % kVertices, u});
  }
  std::uint32_t next = 2;  // dst offset of the next new edge per vertex
  for (int round = 0; round <= kRounds; ++round) {
    for (const WeightedEdge& e : batch) want[e.src][e.dst] = e.weight;
    if (round == kRounds) batch.push_back({7, 8, 99});  // replaces a weight
    const std::uint64_t fresh = round == 0 ? 1 : 1u << (round - 1);
    EXPECT_EQ(g.insert_edges(batch), kVertices * fresh) << "round " << round;
    batch.clear();
    for (std::uint32_t k = 0; k < (1u << round) && round < kRounds; ++k) {
      for (VertexId u = 0; u < kVertices; ++u) {
        batch.push_back({u, (u + next) % kVertices, u + next});
      }
      ++next;
    }
  }
  simt::ThreadPool::instance().resize(restore);
  want[7][8] = 99;
  EXPECT_EQ(g.num_edges(), std::uint64_t{kVertices} << kRounds);
  for (VertexId u = 0; u < kVertices; ++u) {
    std::map<VertexId, core::Weight> got;
    for (std::uint32_t i = 0; i < g.degree(u); ++i) {
      got[g.neighbors(u)[i]] = g.weights(u)[i];
    }
    ASSERT_EQ(got, want[u]) << "vertex " << u;
  }
}

TEST(HornetGraph, SortAdjacencyLists) {
  hornet::HornetGraph g(8);
  // Two batches: appends from the second land after the first batch's
  // (sorted) run, leaving the list unsorted overall.
  std::vector<WeightedEdge> batch = {{0, 5, 0}, {0, 7, 0}};
  g.insert_edges(batch);
  std::vector<WeightedEdge> batch2 = {{0, 2, 0}, {0, 1, 0}};
  g.insert_edges(batch2);
  EXPECT_FALSE(g.adjacency_sorted(0));
  g.sort_adjacency_lists();
  EXPECT_TRUE(g.adjacency_sorted(0));
  EXPECT_EQ(g.degree(0), 4u);
}

TEST(HornetGraph, RowOffsetsMatchDegrees) {
  hornet::HornetGraph g(4);
  std::vector<WeightedEdge> batch = {{0, 1, 0}, {0, 2, 0}, {2, 0, 0}};
  g.insert_edges(batch);
  const auto offsets = g.row_offsets();
  EXPECT_EQ(offsets, (std::vector<std::uint64_t>{0, 2, 2, 3, 3}));
}

// ---- faimGraph --------------------------------------------------------------

TEST(FaimPagePool, AllocFreeReuse) {
  faim::PagePool pool;
  const auto a = pool.allocate();
  const auto b = pool.allocate();
  EXPECT_NE(a, b);
  pool.free(a);
  EXPECT_EQ(pool.free_queue_size(), 1u);
  EXPECT_EQ(pool.allocate(), a);  // queue reuse
  EXPECT_EQ(pool.free_queue_size(), 0u);
}

TEST(FaimGraph, InsertQueryDelete) {
  faim::FaimGraph g(16);
  std::vector<WeightedEdge> batch = {{1, 2, 5}, {1, 3, 6}};
  EXPECT_EQ(g.insert_edges(batch), 2u);
  EXPECT_TRUE(g.edge_exists(1, 2));
  std::vector<Edge> doomed = {{1, 2}};
  EXPECT_EQ(g.delete_edges(doomed), 1u);
  EXPECT_FALSE(g.edge_exists(1, 2));
  EXPECT_EQ(g.degree(1), 1u);
}

TEST(FaimGraph, DuplicateScanKeepsUnique) {
  faim::FaimGraph g(16);
  std::vector<WeightedEdge> batch = {{1, 2, 5}};
  g.insert_edges(batch);
  std::vector<WeightedEdge> dup = {{1, 2, 8}};
  EXPECT_EQ(g.insert_edges(dup), 0u);
  EXPECT_EQ(g.degree(1), 1u);
  std::uint32_t weight = 0;
  g.for_each_neighbor(1, [&](VertexId, core::Weight w) { weight = w; });
  EXPECT_EQ(weight, 8u);  // most recent wins
}

TEST(FaimGraph, PageChainGrowsAndShrinks) {
  faim::FaimGraph g(64);
  std::vector<WeightedEdge> batch;
  for (std::uint32_t v = 0; v < 40; ++v) batch.push_back({0, v + 1, v});
  g.insert_edges(batch);
  EXPECT_EQ(g.degree(0), 40u);  // 40 pairs -> 3 pages
  const auto pages_full = g.pages_in_use();
  std::vector<Edge> doomed;
  for (std::uint32_t v = 0; v < 31; ++v) doomed.push_back({0, v + 1});
  g.delete_edges(doomed);
  EXPECT_EQ(g.degree(0), 9u);
  EXPECT_LT(g.pages_in_use(), pages_full);  // tail pages reclaimed
  EXPECT_GT(g.page_queue_size(), 0u);
}

TEST(FaimGraph, BatchSizeCapEnforced) {
  faim::FaimGraph g(4);
  std::vector<WeightedEdge> huge(faim::kMaxBatchSize + 1, WeightedEdge{0, 1, 0});
  EXPECT_THROW(g.insert_edges(huge), std::length_error);
  std::vector<Edge> huge_del(faim::kMaxBatchSize + 1, Edge{0, 1});
  EXPECT_THROW(g.delete_edges(huge_del), std::length_error);
}

TEST(FaimGraph, VertexDeletionReclaimsAndQueuesId) {
  faim::FaimGraph g(8, /*undirected=*/true);
  std::vector<WeightedEdge> batch = {{1, 2, 0}, {2, 1, 0}, {2, 3, 0}, {3, 2, 0}};
  g.insert_edges(batch);
  const std::vector<VertexId> doomed = {2};
  g.delete_vertices(doomed);
  EXPECT_FALSE(g.vertex_live(2));
  EXPECT_EQ(g.degree(2), 0u);
  EXPECT_FALSE(g.edge_exists(1, 2));
  EXPECT_FALSE(g.edge_exists(3, 2));
  EXPECT_EQ(g.vertex_queue_size(), 1u);
  // Reinsertion reuses id 2 — the paper's memory-efficiency feature.
  const auto assigned = g.insert_vertices(1);
  EXPECT_EQ(assigned, (std::vector<VertexId>{2}));
  EXPECT_TRUE(g.vertex_live(2));
  EXPECT_EQ(g.vertex_queue_size(), 0u);
}

TEST(FaimGraph, FreshVertexIdsWhenQueueEmpty) {
  faim::FaimGraph g(4);
  const auto assigned = g.insert_vertices(2);
  EXPECT_EQ(assigned, (std::vector<VertexId>{4, 5}));
  EXPECT_EQ(g.num_vertices(), 6u);
}

TEST(FaimGraph, DirectedVertexDeletionSweeps) {
  faim::FaimGraph g(8, /*undirected=*/false);
  std::vector<WeightedEdge> batch = {{1, 3, 0}, {2, 3, 0}, {3, 1, 0}};
  g.insert_edges(batch);
  const std::vector<VertexId> doomed = {3};
  g.delete_vertices(doomed);
  EXPECT_FALSE(g.edge_exists(1, 3));
  EXPECT_FALSE(g.edge_exists(2, 3));
  EXPECT_EQ(g.degree(3), 0u);
}

TEST(FaimGraph, SortAdjacencyAcrossPages) {
  faim::FaimGraph g(64);
  std::vector<WeightedEdge> batch;
  // 45 descending destinations span 3 pages.
  for (std::uint32_t v = 45; v >= 1; --v) batch.push_back({0, v + 1, v});
  g.insert_edges(batch);
  EXPECT_FALSE(g.adjacency_sorted(0));
  g.sort_adjacency_lists();
  EXPECT_TRUE(g.adjacency_sorted(0));
  const auto nbrs = g.neighbors(0);
  EXPECT_EQ(nbrs.size(), 45u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

// ---- cross-structure agreement ----------------------------------------------

TEST(BaselineAgreement, AllStructuresStoreTheSameGraph) {
  const std::uint32_t kVertices = 128;
  auto edges = random_edges(kVertices, 3000, 123);
  hornet::HornetGraph hornet_graph(kVertices);
  faim::FaimGraph faim_graph(kVertices);
  hornet_graph.bulk_build(edges);
  // faim caps batches at 1M; 3000 is fine for insert_edges.
  faim_graph.insert_edges(edges);
  const Csr csr = Csr::from_edges(kVertices, edges);
  EXPECT_EQ(hornet_graph.num_edges(), csr.num_edges());
  EXPECT_EQ(faim_graph.num_edges(), csr.num_edges());
  for (VertexId u = 0; u < kVertices; ++u) {
    auto h = hornet_graph.neighbors(u);
    std::vector<VertexId> hv(h.begin(), h.end());
    std::sort(hv.begin(), hv.end());
    auto fv = faim_graph.neighbors(u);
    std::sort(fv.begin(), fv.end());
    const auto c = csr.neighbors(u);
    const std::vector<VertexId> cv(c.begin(), c.end());
    ASSERT_EQ(hv, cv) << "hornet row " << u;
    ASSERT_EQ(fv, cv) << "faim row " << u;
  }
}

TEST(BaselineAgreement, DeletionsAgree) {
  const std::uint32_t kVertices = 64;
  auto edges = random_edges(kVertices, 1000, 5);
  hornet::HornetGraph hornet_graph(kVertices);
  faim::FaimGraph faim_graph(kVertices);
  hornet_graph.bulk_build(edges);
  faim_graph.insert_edges(edges);
  std::vector<Edge> doomed;
  util::Xoshiro256 rng(9);
  for (int i = 0; i < 300; ++i) {
    const auto& e = edges[rng.below(edges.size())];
    doomed.push_back({e.src, e.dst});
  }
  std::sort(doomed.begin(), doomed.end(), [](const Edge& a, const Edge& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  doomed.erase(std::unique(doomed.begin(), doomed.end()), doomed.end());
  const auto removed_h = hornet_graph.delete_edges(doomed);
  const auto removed_f = faim_graph.delete_edges(doomed);
  EXPECT_EQ(removed_h, removed_f);
  EXPECT_EQ(hornet_graph.num_edges(), faim_graph.num_edges());
}

}  // namespace
}  // namespace sg::baselines
