#include "src/baselines/hornet/hornet_graph.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/simt/thread_pool.hpp"

namespace sg::baselines::hornet {

namespace {

bool by_src_dst(const core::WeightedEdge& a, const core::WeightedEdge& b) {
  return a.src != b.src ? a.src < b.src : a.dst < b.dst;
}

bool by_src_dst_plain(const core::Edge& a, const core::Edge& b) {
  return a.src != b.src ? a.src < b.src : a.dst < b.dst;
}

}  // namespace

HornetGraph::HornetGraph(std::uint32_t vertex_capacity)
    : handle_(vertex_capacity), used_(vertex_capacity, 0) {}

void HornetGraph::grow_to_fit(core::VertexId u, std::uint32_t needed) {
  BlockHandle old = handle_[u];
  if (old.valid && old.capacity() >= needed) return;
  // "the vertex adjacency list is copied to the next smallest power-of-two
  // memory block" that fits the grown list.
  const BlockHandle grown = blocks_.allocate(BlockManager::class_for(needed));
  if (old.valid) {
    std::copy_n(blocks_.dst(old), used_[u], blocks_.dst(grown));
    std::copy_n(blocks_.weight(old), used_[u], blocks_.weight(grown));
    blocks_.free(old);
  }
  handle_[u] = grown;
}

void HornetGraph::bulk_build(std::span<const core::WeightedEdge> edges) {
  // Global sort + dedup: the memory-hungry initialization the paper calls
  // out ("we believe that this is due to the memory overhead of sorting and
  // duplicate checking").
  std::vector<core::WeightedEdge> sorted(edges.begin(), edges.end());
  std::erase_if(sorted, [this](const core::WeightedEdge& e) {
    return e.src == e.dst || e.src >= num_vertices() || e.dst >= num_vertices();
  });
  std::stable_sort(sorted.begin(), sorted.end(), by_src_dst);
  sorted.erase(std::unique(sorted.begin(), sorted.end(),
                           [](const core::WeightedEdge& a,
                              const core::WeightedEdge& b) {
                             return a.src == b.src && a.dst == b.dst;
                           }),
               sorted.end());
  std::size_t i = 0;
  while (i < sorted.size()) {
    const core::VertexId u = sorted[i].src;
    std::size_t j = i;
    while (j < sorted.size() && sorted[j].src == u) ++j;
    const auto degree = static_cast<std::uint32_t>(j - i);
    grow_to_fit(u, degree);
    core::VertexId* dst = blocks_.dst(handle_[u]);
    core::Weight* weight = blocks_.weight(handle_[u]);
    for (std::size_t k = i; k < j; ++k) {
      dst[k - i] = sorted[k].dst;
      weight[k - i] = sorted[k].weight;
    }
    used_[u] = degree;
    i = j;
  }
}

std::uint64_t HornetGraph::insert_edges(std::span<const core::WeightedEdge> edges) {
  // Step 1: sort the batch and dedup within it (keep the last duplicate so
  // "most recent weight wins" matches the dynamic structures).
  std::vector<core::WeightedEdge> batch(edges.begin(), edges.end());
  std::erase_if(batch, [this](const core::WeightedEdge& e) {
    return e.src == e.dst || e.src >= num_vertices() || e.dst >= num_vertices();
  });
  std::stable_sort(batch.begin(), batch.end(), by_src_dst);
  std::vector<core::WeightedEdge> unique;
  unique.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (i + 1 < batch.size() && batch[i].src == batch[i + 1].src &&
        batch[i].dst == batch[i + 1].dst) {
      continue;
    }
    unique.push_back(batch[i]);
  }
  // Step 2: per affected vertex, cross-dedup against the existing list
  // (sort a copy of the adjacency, binary search each candidate), then
  // append survivors, growing the block if capacity is exceeded. Each
  // vertex's group is contiguous after the sort. Growing a block may
  // resize the block manager's pool storage, which moves every block of
  // that size class, so the passes that hold block pointers (dedup,
  // append) run in parallel and the growth between them runs serially.
  std::vector<std::size_t> group_starts;
  for (std::size_t i = 0; i < unique.size(); ++i) {
    if (i == 0 || unique[i].src != unique[i - 1].src) group_starts.push_back(i);
  }
  group_starts.push_back(unique.size());
  const std::size_t groups = group_starts.size() - 1;
  std::vector<std::uint8_t> is_fresh(unique.size(), 0);
  std::vector<std::uint32_t> fresh_count(groups, 0);
  auto& pool = simt::ThreadPool::instance();
  pool.parallel_for(groups, [&](std::uint64_t g) {
    const std::size_t begin = group_starts[g];
    const std::size_t end = group_starts[g + 1];
    const core::VertexId u = unique[begin].src;
    // Cross-duplicate check: sorted snapshot of the current adjacency.
    std::vector<core::VertexId> existing(neighbors(u).begin(),
                                         neighbors(u).end());
    std::sort(existing.begin(), existing.end());
    for (std::size_t i = begin; i < end; ++i) {
      if (std::binary_search(existing.begin(), existing.end(),
                             unique[i].dst)) {
        // Edge already present: overwrite the weight in place.
        core::VertexId* dst = blocks_.dst(handle_[u]);
        core::Weight* weight = blocks_.weight(handle_[u]);
        for (std::uint32_t k = 0; k < used_[u]; ++k) {
          if (dst[k] == unique[i].dst) {
            weight[k] = unique[i].weight;
            break;
          }
        }
      } else {
        is_fresh[i] = 1;
        ++fresh_count[g];
      }
    }
  });
  std::uint64_t added = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    if (fresh_count[g] == 0) continue;
    const core::VertexId u = unique[group_starts[g]].src;
    grow_to_fit(u, used_[u] + fresh_count[g]);
    added += fresh_count[g];
  }
  pool.parallel_for(groups, [&](std::uint64_t g) {
    if (fresh_count[g] == 0) return;
    const core::VertexId u = unique[group_starts[g]].src;
    core::VertexId* dst = blocks_.dst(handle_[u]);
    core::Weight* weight = blocks_.weight(handle_[u]);
    for (std::size_t i = group_starts[g]; i < group_starts[g + 1]; ++i) {
      if (!is_fresh[i]) continue;
      dst[used_[u]] = unique[i].dst;
      weight[used_[u]] = unique[i].weight;
      ++used_[u];
    }
  });
  return added;
}

std::uint64_t HornetGraph::delete_edges(std::span<const core::Edge> edges) {
  std::vector<core::Edge> batch(edges.begin(), edges.end());
  std::erase_if(batch, [this](const core::Edge& e) {
    return e.src >= num_vertices();
  });
  std::stable_sort(batch.begin(), batch.end(), by_src_dst_plain);
  batch.erase(std::unique(batch.begin(), batch.end()), batch.end());
  std::vector<std::size_t> group_starts;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (i == 0 || batch[i].src != batch[i - 1].src) group_starts.push_back(i);
  }
  group_starts.push_back(batch.size());
  std::atomic<std::uint64_t> removed{0};
  simt::ThreadPool::instance().parallel_for(
      group_starts.empty() ? 0 : group_starts.size() - 1, [&](std::uint64_t g) {
        const std::size_t begin = group_starts[g];
        const std::size_t end = group_starts[g + 1];
        const core::VertexId u = batch[begin].src;
        if (!handle_[u].valid || used_[u] == 0) return;
        core::VertexId* dst = blocks_.dst(handle_[u]);
        core::Weight* weight = blocks_.weight(handle_[u]);
        std::uint64_t local_removed = 0;
        // Compact the array, dropping every destination in the batch group.
        std::uint32_t write = 0;
        for (std::uint32_t read = 0; read < used_[u]; ++read) {
          bool doomed = false;
          for (std::size_t i = begin; i < end; ++i) {
            if (batch[i].dst == dst[read]) {
              doomed = true;
              break;
            }
          }
          if (doomed) {
            ++local_removed;
            continue;
          }
          dst[write] = dst[read];
          weight[write] = weight[read];
          ++write;
        }
        used_[u] = write;
        removed.fetch_add(local_removed, std::memory_order_relaxed);
      });
  return removed.load(std::memory_order_relaxed);
}

std::uint64_t HornetGraph::num_edges() const noexcept {
  std::uint64_t total = 0;
  for (std::uint32_t d : used_) total += d;
  return total;
}

bool HornetGraph::edge_exists(core::VertexId u, core::VertexId v) const noexcept {
  if (u >= num_vertices() || !handle_[u].valid) return false;
  const auto nbrs = neighbors(u);
  for (core::VertexId w : nbrs) {
    if (w == v) return true;
  }
  return false;
}

void HornetGraph::sort_adjacency_lists() {
  simt::ThreadPool::instance().parallel_for(num_vertices(), [&](std::uint64_t u) {
    if (!handle_[u].valid || used_[u] < 2) return;
    core::VertexId* dst = blocks_.dst(handle_[u]);
    std::sort(dst, dst + used_[u]);
  });
}

bool HornetGraph::adjacency_sorted(core::VertexId u) const noexcept {
  const auto nbrs = neighbors(u);
  return std::is_sorted(nbrs.begin(), nbrs.end());
}

std::vector<std::uint64_t> HornetGraph::row_offsets() const {
  std::vector<std::uint64_t> offsets(num_vertices() + 1, 0);
  for (std::uint32_t u = 0; u < num_vertices(); ++u) {
    offsets[u + 1] = offsets[u] + used_[u];
  }
  return offsets;
}

}  // namespace sg::baselines::hornet
