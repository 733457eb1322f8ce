// Staged batch-update engine (docs/PERF.md "Batch engine").
//
// The paper's Algorithm 1 earns its GPU throughput from warp-cooperative,
// coalesced batch insertion; the scalar CPU port still dispatched one query
// at a time, so every key paid a full hash + cold chain walk. The engine
// restructures every batched mutation/query into three stages, the same
// pre-staging discipline the dynamic-graph baselines (Hornet, faimGraph)
// apply before touching their stores:
//
//   1. STAGE (sharded, parallel) — shard s owns every vertex u with
//      u % shards == s. Each shard walks the input batch once, emitting
//      the directions it owns straight into its staged SoA arrays (no 2x
//      mirrored temp vector), dropping self-loops, creating missing vertex
//      tables (exclusive per shard: no lazy-creation mutex), and
//      pre-hashing each key ONCE into its destination bucket.
//   2. GROUP (per-shard sort + scan) — stable-radix-sort the shard's
//      queries by the packed (vertex, bucket) segment id
//      (sort::radix_sort_hi with the hi OR/AND masks accumulated for free
//      during staging), then scan once to cut the shard into
//      per-(vertex, bucket) runs, ordering each multi-query run by
//      (key, sequence) and dropping duplicates — the highest sequence
//      number, i.e. the most recent occurrence, wins. Ownership makes the
//      dedup exhaustive: every occurrence of a (vertex, key) pair lands in
//      the one shard that owns the vertex, so "most recent edge and its
//      weight" stays deterministic across shard boundaries. Grouping is
//      TWO-PASS: every shard first COUNTS its runs and post-dedup keys,
//      then PLACES them. A lone shard places into its own arrays; several
//      shards prefix-sum their counts into disjoint slices of one presized
//      global run list and place directly into those slices in parallel,
//      so stage 3 consumes shard output with no driver-side copy. This
//      count/place pair is the one place the most-recent-wins rule of
//      batched updates is written down.
//   3. APPLY (parallel) — simt::launch_runs schedules contiguous run
//      ranges balanced by query count; each warp walks a run's bucket
//      chain once through the slabhash bulk entry points, software-
//      pipelining the next run's head slab (simt::pipeline + prefetch)
//      while the current slab's SIMD compares resolve. The bulk operations
//      report each run's observed chain length, which apply folds into a
//      ChainFeedback histogram — the §III chain-length metric — so
//      rehash_long_chains can target offenders instead of scanning every
//      vertex.
//
// Large batches additionally split into EPOCHS and double-buffer: epoch
// e+1 runs stages 1-2 as a background ThreadPool job while epoch e runs
// stage 3 on the same pool (round-robin chunk interleaving). Epochs apply
// in input order — the pipeline fence — so counter deltas and cross-epoch
// duplicate resolution commit exactly as the unsplit batch would. QUERY
// batches (edges_exist / edge_weights) pipeline through the identical
// epoch machinery — stage+group of query slice N+1 overlaps the bulk
// searches of slice N — with results scattered to input positions through
// the staged sequence numbers, and the bulk searches feed chain lengths
// into ChainFeedback exactly as mutations do.
//
// The engine owns the run partition: a (table, bucket) pair appears in at
// most one run per epoch, which is the exclusivity contract the bulk slab
// operations rely on to share one EMPTY scan per slab and to reuse the
// tombstones they pass (src/slabhash/slab_layout.hpp).
//
// The engine is still PHASE-concurrent: a mutation batch must never
// overlap a query batch. On the synchronous API that contract is the
// caller's obligation; the phase scheduler (src/core/phase_scheduler.hpp,
// DynGraph::submit_*) enforces it for scheduled callers by fencing
// mutation phases from query phases and feeding coalesced submissions
// through this engine — see docs/ARCHITECTURE.md.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/core/types.hpp"
#include "src/memory/slab_arena.hpp"
#include "src/slabhash/slab_layout.hpp"
#include "src/sort/segmented_sort.hpp"

namespace sg::core {

/// Internal abort signal of one epoch's apply stage: the arena ran dry (or
/// a fault was injected) while applying staged runs. Carries the epoch's
/// exact outcome — what was applied (and therefore counted) and which
/// staged (src, dst) pairs were not — so the pipeline driver can fold it
/// into a caller-facing PartialBatchError together with the epochs that
/// never applied. Never escapes DynGraph.
struct MutationAbort {
  std::uint64_t applied = 0;        ///< keys applied (and counted) this epoch
  std::vector<Edge> unapplied;      ///< staged pairs of this epoch not applied
};

/// Internal wrapper the epoch pipeline throws after catching a
/// MutationAbort from the apply stage: adds which input items the failing
/// epoch covered, so the caller can extend the unapplied set with every
/// later epoch's raw input. Never escapes DynGraph.
struct PipelineAbort {
  MutationAbort epoch;               ///< the failing epoch's outcome
  std::uint64_t epoch_begin_item = 0;  ///< first input item of that epoch
  std::uint64_t epoch_end_item = 0;    ///< one past its last input item
  std::uint64_t applied_before = 0;    ///< keys applied by earlier epochs
};

/// Runs this many positions ahead of the probe loop when prefetching head
/// slabs (stage 3's software-pipeline depth).
inline constexpr std::uint64_t kRunPrefetchDepth = 4;

/// Upper bound on stage shards (the auto heuristic is one per pool worker;
/// past this, per-shard sort histograms stop paying for themselves).
inline constexpr std::uint32_t kMaxStageShards = 32;

/// Owning shard of vertex `u` under `num_shards` (a power of two) shards.
/// A strided partition: hub vertices with nearby ids land in different
/// shards, so skewed batches still stage in parallel.
inline std::uint32_t shard_of_vertex(VertexId u,
                                     std::uint32_t num_shards) noexcept {
  return u & (num_shards - 1u);
}

/// One staged run: queries keys[run_offsets[r] .. run_offsets[r+1]) of a
/// BatchStaging all hash to `bucket` of vertex `src`'s table.
struct QueryRun {
  VertexId src = 0;
  std::uint32_t bucket = 0;
};

/// Staging area of one batched operation (one shard's worth when staging
/// is sharded). The staged key of a query packs
///   hi = src << 13 | bucket     (num_buckets <= SlabArena::kChunkSlabs)
///   lo = key << 32 | sequence   (sequence = staged order, for last-wins)
/// so one sort yields the (vertex, bucket) grouping, key adjacency for
/// dedup, and deterministic most-recent-wins ordering at once.
class BatchStaging {
 public:
  static constexpr std::uint32_t kBucketBits = 13;
  static_assert(memory::SlabArena::kChunkSlabs <= (1u << kBucketBits),
                "bucket ids must fit the packed staging key");

  // ---- staged queries, grouped into runs (stage 2 outputs) --------------
  std::vector<std::uint32_t> keys;         ///< query keys, run-contiguous
  std::vector<std::uint32_t> values;       ///< parallel values (map inserts)
  std::vector<std::uint32_t> seqs;         ///< parallel input positions
  std::vector<QueryRun> runs;
  std::vector<std::uint64_t> run_offsets;  ///< runs.size() + 1 entries

  std::uint64_t staged = 0;   ///< queries emitted by stage 1
  std::uint64_t dropped = 0;  ///< self-loops / unknown-source queries
  std::uint64_t duplicates = 0;  ///< queries removed by dedup

  void clear() {
    keys.clear();
    values.clear();
    seqs.clear();
    runs.clear();
    run_offsets.clear();
    order_.clear();
    weights_.clear();
    staged = dropped = duplicates = 0;
    hi_or_ = 0;
    hi_and_ = ~std::uint64_t{0};
    grouped_runs_ = grouped_keys_ = 0;
    dedup_ = false;
  }

  /// Stage one directed query with an explicit sequence number — the value
  /// that breaks most-recent-wins ties and, for searches, scatters results
  /// back to input positions. Must be strictly increasing in input order
  /// within this staging. `table` must be the source's table; the key is
  /// hashed here — once, never again.
  void push_seq(VertexId src, std::uint32_t key, slabhash::TableRef table,
                std::uint64_t seed, std::uint32_t seq) {
    const std::uint32_t bucket =
        slabhash::bucket_of(key, table.num_buckets, seed);
    const std::uint64_t hi = (static_cast<std::uint64_t>(src) << kBucketBits) |
                             bucket;
    order_.push_back({hi, (static_cast<std::uint64_t>(key) << 32) | seq});
    hi_or_ |= hi;   // digit-skip masks for the radix sort, accumulated free
    hi_and_ &= hi;
    ++staged;
  }

  /// Stage with seq = staged order (the mutation paths; weights_ is indexed
  /// by this dense sequence).
  void push(VertexId src, std::uint32_t key, slabhash::TableRef table,
            std::uint64_t seed) {
    push_seq(src, key, table, seed, static_cast<std::uint32_t>(staged));
  }
  void push_weighted(VertexId src, std::uint32_t key, Weight weight,
                     slabhash::TableRef table, std::uint64_t seed,
                     bool keep_weight) {
    if (keep_weight) weights_.push_back(weight);
    push(src, key, table, seed);
  }

  void reserve(std::size_t queries, bool weighted) {
    order_.reserve(queries);
    if (weighted) weights_.reserve(queries);
  }

  /// Stage 2, pass 1 of the two-pass (count, then place) grouping: sort by
  /// the packed (vertex, bucket) word, order each multi-query group by
  /// (key, sequence), and COUNT the runs and post-dedup keys this staging
  /// will emit — without emitting anything. `dedup` drops all but the
  /// highest-sequence occurrence of equal keys (mutations dedup; searches
  /// keep every query so results can scatter back per input position) and
  /// is remembered for the emit pass. Sets `duplicates`.
  void group_prepare(bool dedup);

  /// Stage 2, pass 2: emit the prepared runs into `dst`'s presized arrays,
  /// runs at [run_base, run_base + grouped_runs()), keys (and values /
  /// seqs, when gathered) at [key_base, key_base + grouped_keys()).
  /// `dst` may be *this (the lone-shard self-emit) or a shared global
  /// staging that several shards emit into concurrently — slices
  /// are disjoint by construction of the prefix-summed bases, so the
  /// parallel writes need no synchronization. `gather_values` copies the
  /// staged weights into `dst.values` run-order; `gather_seqs` keeps the
  /// sequence numbers (searches scatter results through them).
  void group_emit(bool gather_values, bool gather_seqs, BatchStaging& dst,
                  std::uint64_t key_base, std::uint64_t run_base) const;

  /// Pass 2 into this staging's own arrays (resizes them to the prepared
  /// counts and emits at base 0 — the lone-shard path).
  void emit_self(bool gather_values, bool gather_seqs);

  /// Runs / keys the emit pass will produce (valid after group_prepare).
  std::uint64_t grouped_runs() const noexcept { return grouped_runs_; }
  std::uint64_t grouped_keys() const noexcept { return grouped_keys_; }

  /// The partition guard: throws std::logic_error if any staged query's
  /// source is not owned by shard `shard` of `num_shards`. Release builds
  /// skip the scan (debug assertion); the staging filters make violations
  /// impossible by construction, and this keeps them impossible.
  void check_partition(std::uint32_t shard, std::uint32_t num_shards) const;

 private:
  std::vector<sort::U128> order_;       ///< staged (hi, lo) sort records
  std::vector<sort::U128> scratch_;     ///< radix ping-pong buffer
  std::vector<std::uint32_t> weights_;  ///< sequence -> weight (stage 1)
  std::uint64_t hi_or_ = 0;             ///< OR of all staged hi words
  std::uint64_t hi_and_ = ~std::uint64_t{0};  ///< AND of all staged hi words
  std::uint64_t grouped_runs_ = 0;      ///< runs counted by group_prepare
  std::uint64_t grouped_keys_ = 0;      ///< post-dedup keys counted
  bool dedup_ = false;                  ///< prepare's dedup, reused by emit
};

/// Per-(vertex, bucket) chain lengths observed by stage 3, in slabs — the
/// low-cost §III maintenance metric. Runs that stayed in their base slab
/// (the overwhelming majority at the paper's load factors) cost one
/// predictable branch: only chains of >= 2 slabs are histogrammed
/// (`hist[min(len, kHistBuckets + 1) - 2]`) and their vertices listed in
/// `candidates` — the only tables targeted rehashing must revisit, since
/// chains never shrink outside rehash/flush/clear. Base-slab-only runs are
/// `runs_observed - sum(hist)`.
struct ChainFeedback {
  static constexpr std::uint32_t kHistBuckets = 8;
  /// Cap on the candidate list (duplicates included — a hub reappears once
  /// per long run). A graph mutated forever without ever calling
  /// rehash_long_chains must not leak: past the cap the list saturates,
  /// recording stops, and the next rehash falls back to the full sweep.
  static constexpr std::size_t kMaxCandidates = std::size_t{1} << 20;
  std::uint64_t runs_observed = 0;
  std::array<std::uint64_t, kHistBuckets> hist{};
  std::vector<VertexId> candidates;
  bool saturated = false;

  /// Records one run whose walk went past the base slab (chain_slabs >= 2).
  void note_long(VertexId src, std::uint32_t chain_slabs) {
    const std::uint32_t bin = chain_slabs - 2 < kHistBuckets - 1
                                  ? chain_slabs - 2
                                  : kHistBuckets - 1;
    ++hist[bin];
    candidates.push_back(src);
  }
  bool empty() const noexcept { return candidates.empty(); }
  void merge_from(ChainFeedback& other) {
    runs_observed += other.runs_observed;
    for (std::uint32_t b = 0; b < kHistBuckets; ++b) hist[b] += other.hist[b];
    saturated = saturated || other.saturated ||
                candidates.size() + other.candidates.size() > kMaxCandidates;
    if (saturated) {
      // Completeness lost: targeted rehash must not run, and there is no
      // point holding (or re-growing) the list until a full sweep resets.
      candidates.clear();
      candidates.shrink_to_fit();
    } else {
      candidates.insert(candidates.end(), other.candidates.begin(),
                        other.candidates.end());
    }
    other.runs_observed = 0;
    other.hist = {};
    other.candidates.clear();
    other.saturated = false;
  }
  void clear() {
    runs_observed = 0;
    hist = {};
    candidates.clear();
    saturated = false;
  }
};

/// One double-buffer half of the pipelined engine: per-shard staging areas
/// plus the global run list stage 3 consumes. The shard-ownership
/// partition — every run of shard s must satisfy
/// shard_of_vertex(run.src, shards) == s — is the invariant that makes
/// per-shard dedup exhaustive and runs bucket-exclusive; finalize() guards
/// it with a debug assertion (validate_partition()).
class ShardedStaging {
 public:
  void resize(std::uint32_t num_shards) {
    if (shards_.size() != num_shards) shards_.resize(num_shards);
  }
  std::uint32_t shard_count() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }
  BatchStaging& shard(std::uint32_t s) { return shards_[s]; }

  /// Emits the prepared shards (each past group_prepare) into the one run
  /// list front() exposes. A lone shard emits into its own arrays
  /// (emit_self). Several shards prefix-sum their run/key counts into
  /// disjoint slices of the presized global arrays and each EMITS ITS OWN
  /// OUTPUT directly into its slice, in parallel, with no driver-side
  /// copy. Runs keep shard-major, source-ascending-within-shard order:
  /// deterministic, and consecutive runs still share sources for the apply
  /// counter batching. Debug builds re-validate the shard partition.
  void finalize(bool gather_values, bool gather_seqs);

  /// The partition guard behind finalize()'s debug assertion, callable
  /// directly (tests, paranoid callers): throws std::logic_error if any
  /// shard staged a vertex it does not own.
  void validate_partition() const;

  /// The staging stage 3 applies: the lone shard, or the merged view.
  const BatchStaging& front() const {
    return shards_.size() == 1 ? shards_[0] : merged_;
  }

  std::uint64_t total_staged() const;
  std::uint64_t total_dropped() const;
  std::uint64_t total_duplicates() const;

  // ---- stage-window bookkeeping (pipeline overlap accounting) ----------
  /// Execution window of this buffer's last staging pass: recorded once
  /// by the (single) staging job after its shard fan-out joins, read by
  /// the pipeline driver after the epoch fence — the fence's pool
  /// handshake orders the accesses, so plain fields suffice. The driver
  /// intersects it with the apply window to measure the overlap the
  /// double buffer actually achieved.
  void window_note(std::int64_t begin_ns, std::int64_t end_ns) {
    window_begin_ns_ = begin_ns;
    window_end_ns_ = end_ns;
  }
  std::int64_t window_begin_ns() const { return window_begin_ns_; }
  std::int64_t window_end_ns() const { return window_end_ns_; }

 private:
  std::vector<BatchStaging> shards_;
  BatchStaging merged_;
  std::int64_t window_begin_ns_ = 0;
  std::int64_t window_end_ns_ = 0;
};

/// Wall-clock profile of the last pipelined batch (docs/PERF.md). The same
/// struct profiles query batches (edges_exist / edge_weights), where
/// `apply_seconds` is the bulk-search window.
struct BatchPipelineStats {
  std::uint32_t epochs = 0;
  std::uint32_t shards = 0;
  double stage_seconds = 0.0;    ///< summed stage+group+finalize windows
  double apply_seconds = 0.0;    ///< summed apply (or bulk-search) windows
  double overlap_seconds = 0.0;  ///< stage(e+1) ∩ apply(e) window overlap
  /// Input items per epoch of the last batch's epoch plan (== the batch
  /// size when it ran as one epoch). With epochs_applied below, failure
  /// paths reconstruct which raw input items never reached the apply stage.
  std::uint64_t epoch_items = 0;
  /// Epochs whose apply stage COMMITTED (completed without abort). Equals
  /// `epochs` after a clean batch.
  std::uint32_t epochs_applied = 0;
  /// Keys applied (new-unique inserted or erased) by the committed epochs —
  /// the running total failure paths report when a later stage dies.
  std::uint64_t applied_total = 0;
};

/// Stage-1 helpers shared by DynGraph's batched paths. `table_of(src)`
/// returns the source's table — creating it for insertions, returning an
/// invalid ref to drop the query for erase/search on unknown sources. The
/// sharded variants filter by vertex ownership, so `table_of` is only ever
/// invoked from the one shard owning `src`: dictionary writes stay
/// exclusive per vertex and need no lock even though shards run in
/// parallel.

template <typename TableFn>
void stage_weighted_edges_shard(std::span<const WeightedEdge> edges,
                                bool undirected, bool keep_weights,
                                std::uint64_t seed, std::uint32_t shard,
                                std::uint32_t num_shards, TableFn&& table_of,
                                BatchStaging& st) {
  st.clear();
  st.reserve(edges.size() * (undirected ? 2 : 1) / num_shards + 16,
             keep_weights);
  if (num_shards == 1) {  // unsharded: keep the filter off the hot loop
    for (const WeightedEdge& e : edges) {
      if (e.src == e.dst) {  // self-loops drop (Algorithm 1 line 3)
        ++st.dropped;
        continue;
      }
      const slabhash::TableRef fwd = table_of(e.src);
      if (fwd.valid()) {
        st.push_weighted(e.src, e.dst, e.weight, fwd, seed, keep_weights);
      } else {
        ++st.dropped;
      }
      if (undirected) {  // mirror staged in place: no doubled temp batch
        const slabhash::TableRef rev = table_of(e.dst);
        if (rev.valid()) {
          st.push_weighted(e.dst, e.src, e.weight, rev, seed, keep_weights);
        } else {
          ++st.dropped;
        }
      }
    }
    return;
  }
  for (const WeightedEdge& e : edges) {
    if (e.src == e.dst) {  // self-loops drop (Algorithm 1 line 3)
      if (shard_of_vertex(e.src, num_shards) == shard) ++st.dropped;
      continue;
    }
    if (shard_of_vertex(e.src, num_shards) == shard) {
      const slabhash::TableRef fwd = table_of(e.src);
      if (fwd.valid()) {
        st.push_weighted(e.src, e.dst, e.weight, fwd, seed, keep_weights);
      } else {
        ++st.dropped;
      }
    }
    if (undirected && shard_of_vertex(e.dst, num_shards) == shard) {
      // Mirror staged in place by the shard owning the reverse source.
      const slabhash::TableRef rev = table_of(e.dst);
      if (rev.valid()) {
        st.push_weighted(e.dst, e.src, e.weight, rev, seed, keep_weights);
      } else {
        ++st.dropped;
      }
    }
  }
}

template <typename TableFn>
void stage_weighted_edges(std::span<const WeightedEdge> edges, bool undirected,
                          bool keep_weights, std::uint64_t seed,
                          TableFn&& table_of, BatchStaging& st) {
  stage_weighted_edges_shard(edges, undirected, keep_weights, seed, 0, 1,
                             std::forward<TableFn>(table_of), st);
}

template <typename TableFn>
void stage_edges_shard(std::span<const Edge> edges, bool undirected,
                       std::uint64_t seed, std::uint32_t shard,
                       std::uint32_t num_shards, TableFn&& table_of,
                       BatchStaging& st) {
  st.clear();
  st.reserve(edges.size() * (undirected ? 2 : 1) / num_shards + 16, false);
  if (num_shards == 1) {  // unsharded fast path
    for (const Edge& e : edges) {
      const slabhash::TableRef fwd = table_of(e.src);
      if (fwd.valid()) {
        st.push(e.src, e.dst, fwd, seed);
      } else {
        ++st.dropped;
      }
      if (undirected) {
        const slabhash::TableRef rev = table_of(e.dst);
        if (rev.valid()) {
          st.push(e.dst, e.src, rev, seed);
        } else {
          ++st.dropped;
        }
      }
    }
    return;
  }
  for (const Edge& e : edges) {
    if (shard_of_vertex(e.src, num_shards) == shard) {
      const slabhash::TableRef fwd = table_of(e.src);
      if (fwd.valid()) {
        st.push(e.src, e.dst, fwd, seed);
      } else {
        ++st.dropped;
      }
    }
    if (undirected && shard_of_vertex(e.dst, num_shards) == shard) {
      const slabhash::TableRef rev = table_of(e.dst);
      if (rev.valid()) {
        st.push(e.dst, e.src, rev, seed);
      } else {
        ++st.dropped;
      }
    }
  }
}

template <typename TableFn>
void stage_edges(std::span<const Edge> edges, bool undirected,
                 std::uint64_t seed, TableFn&& table_of, BatchStaging& st) {
  stage_edges_shard(edges, undirected, seed, 0, 1,
                    std::forward<TableFn>(table_of), st);
}

/// Stage queries that must scatter results back to their input position:
/// the staged sequence number IS the original index of the query (one
/// staged query per input at most; dropped inputs simply have no staged
/// query, so the caller's output stays 0 there). Sharded: each query is
/// staged by the shard owning its source. `seq_base` offsets the staged
/// sequence numbers — epoch-pipelined query batches stage sub-spans, and
/// results must still scatter to GLOBAL input positions.
template <typename TableFn>
void stage_queries_shard(std::span<const Edge> queries, std::uint64_t seed,
                         std::uint32_t shard, std::uint32_t num_shards,
                         TableFn&& table_of, BatchStaging& st,
                         std::uint32_t seq_base = 0) {
  st.clear();
  st.reserve(queries.size() / num_shards + 16, false);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Edge& q = queries[i];
    if (num_shards != 1 && shard_of_vertex(q.src, num_shards) != shard) {
      continue;
    }
    const slabhash::TableRef table = table_of(q.src);
    if (table.valid()) {
      st.push_seq(q.src, q.dst, table, seed,
                  seq_base + static_cast<std::uint32_t>(i));
    } else {
      ++st.dropped;  // unknown source: the caller's output stays 0
    }
  }
}

template <typename TableFn>
void stage_queries(std::span<const Edge> queries, std::uint64_t seed,
                   TableFn&& table_of, BatchStaging& st) {
  stage_queries_shard(queries, seed, 0, 1, std::forward<TableFn>(table_of),
                      st);
}

}  // namespace sg::core
