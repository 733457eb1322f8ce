// Vertex dictionary (§III-a, §IV-A1): an array indexed by vertex id
// holding, per vertex, the handle of its adjacency hash table (base slab
// + bucket count), the exact edge counter, and liveness. Growing the
// dictionary copies only these per-vertex entries — "shallow copying of the
// pointers to each of the hash tables" — never the adjacency data itself.
//
// The per-vertex state is packed into ONE 16-byte record (four per cache
// line) instead of four parallel arrays: the batch engine's stage pass
// touches table handle + bucket count + liveness for every staged edge,
// and apply touches handle + edge counter per run, so on random-vertex
// workloads the packed layout pays one cold miss per vertex where the SoA
// layout paid up to three.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/types.hpp"
#include "src/simt/atomics.hpp"
#include "src/slabhash/slab_layout.hpp"

namespace sg::core {

class VertexDictionary {
 public:
  explicit VertexDictionary(std::uint32_t capacity);

  std::uint32_t capacity() const noexcept {
    return static_cast<std::uint32_t>(entries_.size());
  }

  /// Grows capacity to at least `min_capacity` (next power of two); a
  /// shallow copy of per-vertex entries. No-op if already large enough.
  void grow(std::uint32_t min_capacity);

  /// Number of grow() calls that actually reallocated; exposed so tests can
  /// verify the overallocation strategy avoids repeated copies.
  std::uint32_t growth_count() const noexcept { return growth_count_; }

  // --- per-vertex slots (bounds-unchecked hot accessors; reads annotated
  // racy: a table handle observed mid-creation by another shard's stage
  // pass is stale-but-safe, the phase protocols re-resolve it) ----------
  slabhash::TableRef table(VertexId u) const noexcept {
    const Entry& e = entries_[u];
    return {simt::racy_load(e.table_base), simt::racy_load(e.num_buckets)};
  }
  bool has_table(VertexId u) const noexcept {
    return simt::racy_load(entries_[u].table_base) != memory::kNullSlab;
  }
  void set_table(VertexId u, slabhash::TableRef ref) noexcept {
    simt::racy_store(entries_[u].num_buckets, ref.num_buckets);
    simt::racy_store(entries_[u].table_base, ref.base);
  }

  /// Edge counters are mutated with atomics during batched updates.
  std::uint32_t& edge_count_word(VertexId u) noexcept {
    return entries_[u].edge_count;
  }
  /// Counter reads tolerate racing atomic updates by design (a batch's
  /// exact total is only defined at the phase fence); annotated racy so
  /// the TSan job checks everything else.
  std::uint32_t edge_count(VertexId u) const noexcept {
    return simt::racy_load(entries_[u].edge_count);
  }
  void set_edge_count(VertexId u, std::uint32_t n) noexcept {
    simt::racy_store(entries_[u].edge_count, n);
  }

  /// The liveness flag is monotone within a phase (insert phases only
  /// revive, delete phases only doom), so racing plain accesses are part
  /// of the protocol — stale reads resolve exactly as on the GPU.
  bool deleted(VertexId u) const noexcept {
    return simt::racy_load(entries_[u].deleted) != 0;
  }
  void set_deleted(VertexId u, bool flag) noexcept {
    simt::racy_store(entries_[u].deleted, flag ? 1u : 0u);
  }

  /// Sum of all per-vertex edge counters.
  std::uint64_t total_edges() const noexcept;

 private:
  /// One vertex's dictionary record: 16 bytes, four per cache line.
  struct Entry {
    memory::SlabHandle table_base = memory::kNullSlab;
    std::uint32_t num_buckets = 0;
    std::uint32_t edge_count = 0;
    std::uint32_t deleted = 0;
  };
  static_assert(sizeof(Entry) == 16, "dictionary entries must stay packed");

  std::vector<Entry> entries_;
  std::uint32_t growth_count_ = 0;
};

}  // namespace sg::core
