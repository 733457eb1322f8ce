// Shared helpers of the DynGraph differential suites (test_batch_engine,
// test_pipeline, test_query_pipeline, test_bulk_erase_stress,
// test_dyn_graph_property): the independent reference graph every suite
// compares against, the common random batch generator, and the
// graph-equality predicates. Workload shapes that differ per suite (skew
// profiles, hub batches, query mixes) stay in their own files on purpose —
// merging them would change test inputs.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <tuple>
#include <vector>

#include "src/core/dyn_graph.hpp"
#include "src/util/prng.hpp"

namespace sg::core::testutil {

/// The paper's batched-update semantics (Awad et al. §IV-C) written out
/// over a std::map<src, std::map<dst, weight>>, the shape of DynoGraph's
/// reference_impl: no self-loops, unique edges, exact counting, and the
/// most recent weight wins. A batch applies in input order, an undirected
/// edge as (src, dst) then (dst, src), so "most recent" is the last
/// occurrence. It shares no code with the slab structures, so it also
/// catches bugs a slab-based twin would share with the engine.
class ReferenceGraph {
 public:
  explicit ReferenceGraph(bool undirected) : undirected_(undirected) {}

  /// Returns the number of new directed edges, like DynGraph::insert_edges.
  std::uint64_t insert(std::span<const WeightedEdge> batch) {
    std::uint64_t added = 0;
    for (const WeightedEdge& e : batch) {
      if (e.src == e.dst) continue;
      added += insert_one(e.src, e.dst, e.weight);
      if (undirected_) added += insert_one(e.dst, e.src, e.weight);
    }
    return added;
  }

  /// Returns the number of directed edges removed, like delete_edges.
  std::uint64_t erase(std::span<const Edge> batch) {
    std::uint64_t removed = 0;
    for (const Edge& e : batch) {
      removed += erase_one(e.src, e.dst);
      if (undirected_) removed += erase_one(e.dst, e.src);
    }
    return removed;
  }

  /// Algorithm 2: the vertices lose every incident edge.
  void delete_vertices(std::span<const VertexId> ids) {
    for (const VertexId v : ids) adj_.erase(v);
    for (auto& [u, nbrs] : adj_) {
      for (const VertexId v : ids) nbrs.erase(v);
    }
  }

  bool edge_exists(VertexId u, VertexId v) const {
    const auto it = adj_.find(u);
    return it != adj_.end() && it->second.count(v) > 0;
  }
  std::uint32_t degree(VertexId u) const {
    const auto it = adj_.find(u);
    return it == adj_.end() ? 0
                            : static_cast<std::uint32_t>(it->second.size());
  }
  Weight weight(VertexId u, VertexId v) const { return adj_.at(u).at(v); }
  std::uint64_t num_edges() const {
    std::uint64_t total = 0;
    for (const auto& [u, nbrs] : adj_) total += nbrs.size();
    return total;
  }
  const std::map<VertexId, std::map<VertexId, Weight>>& adjacency() const {
    return adj_;
  }

  /// Batched answers in input order, shaped like DynGraph::edges_exist and
  /// DynGraph::edge_weights (weight 0 where the edge is absent).
  std::vector<std::uint8_t> exist(std::span<const Edge> queries) const {
    std::vector<std::uint8_t> out;
    out.reserve(queries.size());
    for (const Edge& q : queries) out.push_back(edge_exists(q.src, q.dst));
    return out;
  }
  std::vector<Weight> weights(std::span<const Edge> queries) const {
    std::vector<Weight> out;
    out.reserve(queries.size());
    for (const Edge& q : queries) {
      out.push_back(edge_exists(q.src, q.dst) ? weight(q.src, q.dst) : 0);
    }
    return out;
  }

  /// Every edge as (src, dst, weight); weights read 0 when `weighted` is
  /// false (the set variant stores none).
  std::multiset<std::tuple<VertexId, VertexId, Weight>> edges(
      bool weighted) const {
    std::multiset<std::tuple<VertexId, VertexId, Weight>> out;
    for (const auto& [u, nbrs] : adj_) {
      for (const auto& [v, w] : nbrs) out.insert({u, v, weighted ? w : 0});
    }
    return out;
  }

 private:
  std::uint64_t insert_one(VertexId u, VertexId v, Weight w) {
    return adj_[u].insert_or_assign(v, w).second ? 1 : 0;
  }
  std::uint64_t erase_one(VertexId u, VertexId v) {
    const auto it = adj_.find(u);
    if (it == adj_.end()) return 0;
    const std::uint64_t removed = it->second.erase(v);
    if (it->second.empty()) adj_.erase(it);
    return removed;
  }

  bool undirected_;
  std::map<VertexId, std::map<VertexId, Weight>> adj_;
};

inline std::vector<WeightedEdge> random_batch(std::uint64_t seed,
                                              std::size_t count,
                                              std::uint32_t num_vertices) {
  util::Xoshiro256 rng(seed);
  std::vector<WeightedEdge> batch(count);
  for (auto& e : batch) {
    e = {static_cast<VertexId>(rng.below(num_vertices)),
         static_cast<VertexId>(rng.below(num_vertices)),
         static_cast<Weight>(rng.below(1u << 16))};
  }
  return batch;
}

template <class Policy>
std::multiset<std::tuple<VertexId, VertexId, Weight>> graph_edges(
    const DynGraph<Policy>& g) {
  std::multiset<std::tuple<VertexId, VertexId, Weight>> edges;
  for (VertexId u = 0; u < g.vertex_capacity(); ++u) {
    g.for_each_neighbor(u, [&](VertexId v, Weight w) {
      edges.insert({u, v, Policy::kHasValues ? w : Weight{0}});
    });
  }
  return edges;
}

template <class Policy>
void expect_identical(const DynGraph<Policy>& a, const DynGraph<Policy>& b) {
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (VertexId u = 0; u < std::max(a.vertex_capacity(), b.vertex_capacity());
       ++u) {
    const std::uint32_t da = u < a.vertex_capacity() ? a.degree(u) : 0;
    const std::uint32_t db = u < b.vertex_capacity() ? b.degree(u) : 0;
    ASSERT_EQ(da, db) << "degree mismatch at vertex " << u;
  }
  EXPECT_EQ(graph_edges(a), graph_edges(b));
}

/// The graph holds exactly the reference's edges (with weights, on the map
/// variant), and its exact counters agree: total and per-vertex degree.
template <class Policy>
void expect_matches(const DynGraph<Policy>& g, const ReferenceGraph& ref) {
  ASSERT_EQ(g.num_edges(), ref.num_edges());
  for (VertexId u = 0; u < g.vertex_capacity(); ++u) {
    ASSERT_EQ(g.degree(u), ref.degree(u)) << "degree mismatch at vertex " << u;
  }
  EXPECT_EQ(graph_edges(g), ref.edges(Policy::kHasValues));
}

}  // namespace sg::core::testutil
