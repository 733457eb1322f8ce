// Method bodies of DynGraph<Policy>; included by dyn_graph_map.cpp and
// dyn_graph_set.cpp which explicitly instantiate the two variants.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "src/core/batch_engine.hpp"
#include "src/core/batch_utils.hpp"
#include "src/core/dyn_graph.hpp"
#include "src/core/errors.hpp"
#include "src/persist/journal.hpp"
#include "src/persist/snapshot.hpp"
#include "src/simt/atomics.hpp"
#include "src/simt/grid.hpp"
#include "src/simt/thread_pool.hpp"
#include "src/util/fault_injection.hpp"

namespace sg::core {

inline std::uint64_t edge_key(VertexId src, VertexId dst);

// --------------------------------------------------------------------------
// EdgeSlabIterator
// --------------------------------------------------------------------------

template <class Policy>
bool EdgeSlabIterator<Policy>::next() {
  if (!table_.valid()) return false;
  if (started_) {
    // Follow the current slab's next pointer; fall through to the next
    // bucket when the chain ends.
    const memory::SlabHandle nxt = simt::atomic_load(
        arena_->resolve(current_).words[slabhash::kNextPtrWord]);
    if (nxt != memory::kNullSlab) {
      current_ = nxt;
      on_base_ = false;
      return true;
    }
  }
  if (next_bucket_ >= table_.num_buckets) return false;
  current_ = table_.bucket_head(next_bucket_++);
  on_base_ = true;
  started_ = true;
  return true;
}

// --------------------------------------------------------------------------
// Construction & vertex-table management
// --------------------------------------------------------------------------

template <class Policy>
DynGraph<Policy>::DynGraph(GraphConfig config)
    : config_(config), dict_(config.vertex_capacity) {
  if (config_.load_factor <= 0.0) {
    throw std::invalid_argument("load_factor must be positive");
  }
  if (config_.auto_rehash_tail_frac <= 0.0 ||
      config_.auto_rehash_tail_frac > 1.0) {
    throw std::invalid_argument("auto_rehash_tail_frac must be in (0, 1]");
  }
  if (config_.compact_occupancy < 0.0 || config_.compact_occupancy > 1.0) {
    throw std::invalid_argument("compact_occupancy must be in [0, 1]");
  }
  if (config_.max_arena_chunks != 0) {
    arena_.set_chunk_limit(config_.max_arena_chunks);
  }
  arena_.set_checks(config_.arena_checks);
  if (!config_.journal_path.empty()) {
    attach_journal(config_.journal_path);
  }
}

template <class Policy>
DynGraph<Policy>::~DynGraph() {
  // The scheduler dies first (it is also the LAST member, but the shutdown
  // snapshot below must run after it): queued submissions reject with
  // SubmitRejected{kShutdown} and the conductor joins, so no Ops callback
  // can mutate during the snapshot write or member teardown.
  scheduler_ptr_.store(nullptr, std::memory_order_release);
  scheduler_.reset();
  if (!config_.snapshot_on_shutdown.empty()) {
    try {
      persist::snapshot(*this, config_.snapshot_on_shutdown);
    } catch (...) {
      // Best-effort by contract (GraphConfig::snapshot_on_shutdown):
      // destructors must not throw, and write-to-temp + rename means a
      // failed write leaves any previous snapshot intact.
    }
  }
}

// --------------------------------------------------------------------------
// Durability hooks (src/persist/): the write-ahead journal records every
// committed mutation batch; snapshots ride the analytics phase machinery.
// --------------------------------------------------------------------------

template <class Policy>
void DynGraph<Policy>::attach_journal(const std::string& path) {
  if (journal_) {
    throw std::logic_error("a journal is already attached to this graph");
  }
  journal_ = std::make_unique<persist::Journal>(
      path, config_.journal_sync, journal_seq());
  advance_journal_seq(journal_->last_seq());
  config_.journal_path = path;
}

template <class Policy>
std::uint64_t DynGraph<Policy>::journal_truncated_on_attach() const noexcept {
  return journal_ ? journal_->truncated_on_open() : 0;
}

template <class Policy>
void DynGraph<Policy>::ensure_journal_usable() const {
  if (journal_) journal_->ensure_usable();
}

template <class Policy>
void DynGraph<Policy>::journal_insert(std::span<const WeightedEdge> edges) {
  if (!journal_) return;
  advance_journal_seq(journal_->append_insert(edges));
}

template <class Policy>
void DynGraph<Policy>::journal_erase(std::span<const Edge> edges) {
  if (!journal_) return;
  advance_journal_seq(journal_->append_erase(edges));
}

template <class Policy>
void DynGraph<Policy>::journal_insert_committed(
    std::span<const WeightedEdge> edges,
    const std::vector<Edge>& unapplied) noexcept {
  if (!journal_) return;
  try {
    std::unordered_set<std::uint64_t> skip;
    skip.reserve(unapplied.size());
    for (const Edge& e : unapplied) skip.insert(edge_key(e.src, e.dst));
    std::vector<WeightedEdge> committed;
    committed.reserve(edges.size());
    for (const WeightedEdge& e : edges) {
      if (!skip.contains(edge_key(e.src, e.dst))) committed.push_back(e);
    }
    journal_insert(committed);
  } catch (...) {
    // Best-effort (see the declaration): the journal poisoned itself, and
    // the caller's PartialBatchError already reports the abort.
  }
}

template <class Policy>
void DynGraph<Policy>::journal_erase_committed(
    std::span<const Edge> edges, const std::vector<Edge>& unapplied) noexcept {
  if (!journal_) return;
  try {
    std::unordered_set<std::uint64_t> skip;
    skip.reserve(unapplied.size());
    for (const Edge& e : unapplied) skip.insert(edge_key(e.src, e.dst));
    std::vector<Edge> committed;
    committed.reserve(edges.size());
    for (const Edge& e : edges) {
      if (!skip.contains(edge_key(e.src, e.dst))) committed.push_back(e);
    }
    journal_erase(committed);
  } catch (...) {
    // Best-effort, as above.
  }
}

template <class Policy>
std::future<void> DynGraph<Policy>::submit_snapshot(std::string path) {
  if (!config_.phase_scheduler) {
    // Inline reference mode: write synchronously (same future surface).
    std::promise<void> done;
    std::future<void> f = done.get_future();
    try {
      persist::snapshot(*this, path);
      done.set_value();
    } catch (...) {
      done.set_exception(std::current_exception());
    }
    return f;
  }
  return ensure_scheduler().submit_snapshot(
      [this, path = std::move(path)] { persist::snapshot(*this, path); });
}

template <class Policy>
void DynGraph<Policy>::ensure_vertex(VertexId u, std::uint32_t degree_hint) {
  if (u >= dict_.capacity()) dict_.grow(u + 1);
  if (!dict_.has_table(u)) {
    // "If the connectivity information for a vertex is not available, we
    // construct a hash table with a single bucket" (§III-b).
    const std::uint32_t buckets =
        degree_hint == 0
            ? 1
            : slabhash::buckets_for(degree_hint, config_.load_factor,
                                    Policy::kSlotCapacity);
    const memory::SlabHandle base =
        arena_.allocate_contiguous(buckets, slabhash::kEmptyKey);
    dict_.set_table(u, {base, buckets});
    dict_.set_edge_count(u, 0);
  }
  dict_.set_deleted(u, false);
}

template <class Policy>
void DynGraph<Policy>::prepare_batch(std::span<const WeightedEdge> edges) {
  VertexId max_id = 0;
  for (const auto& e : edges) {
    if (e.src > max_id) max_id = e.src;
    if (e.dst > max_id) max_id = e.dst;
  }
  if (max_id > kMaxVertexId) {
    throw std::invalid_argument("edge batch contains an out-of-range vertex id");
  }
  if (max_id >= dict_.capacity()) dict_.grow(max_id + 1);
}

template <class Policy>
void DynGraph<Policy>::insert_vertices(
    std::span<const VertexId> ids, std::span<const std::uint32_t> degree_hints) {
  if (!degree_hints.empty() && degree_hints.size() != ids.size()) {
    throw std::invalid_argument("degree_hints size mismatch");
  }
  if (ids.empty()) return;
  ensure_journal_usable();
  VertexId max_id = 0;
  for (VertexId id : ids) {
    if (id > kMaxVertexId) {
      throw std::invalid_argument("vertex id out of range");
    }
    if (id > max_id) max_id = id;
  }
  if (max_id >= dict_.capacity()) dict_.grow(max_id + 1);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ensure_vertex(ids[i], degree_hints.empty() ? 0 : degree_hints[i]);
  }
  if (journal_) {
    advance_journal_seq(journal_->append_insert_vertices(ids, degree_hints));
  }
}

template <class Policy>
void DynGraph<Policy>::bulk_build(std::span<const WeightedEdge> edges) {
  ensure_journal_usable();
  validate_batch(edges);
  // Degrees are known a priori in the bulk-build workload: size each table
  // for its true degree and the configured load factor (§V-B1). Undirected
  // edges count toward both endpoints — no mirrored temp batch is built.
  const VertexId max_id = edges.empty() ? 0 : max_vertex_id(edges);
  if (max_id >= dict_.capacity()) dict_.grow(max_id + 1);
  std::vector<std::uint32_t> degrees(dict_.capacity(), 0);
  std::vector<std::uint8_t> referenced(dict_.capacity(), 0);
  for (const auto& e : edges) {
    if (e.src != e.dst) {
      ++degrees[e.src];
      if (config_.undirected) ++degrees[e.dst];
    }
    referenced[e.src] = 1;
    referenced[e.dst] = 1;
  }
  for (VertexId u = 0; u < dict_.capacity(); ++u) {
    if (referenced[u]) ensure_vertex(u, degrees[u]);
  }
  if (journal_) {
    // Journal the vertex pre-pass so replay reproduces vertex_live for
    // dst-only vertices of a directed build (the edge record alone would
    // only revive sources) — and re-creates the right-sized tables.
    std::vector<VertexId> ref_ids;
    std::vector<std::uint32_t> hints;
    for (VertexId u = 0; u < dict_.capacity(); ++u) {
      if (referenced[u]) {
        ref_ids.push_back(u);
        hints.push_back(degrees[u]);
      }
    }
    advance_journal_seq(journal_->append_insert_vertices(ref_ids, hints));
  }
  insert_batched(edges);  // stages the mirror direction in place
}

template <class Policy>
std::uint64_t DynGraph<Policy>::insert_edges(std::span<const WeightedEdge> edges) {
  if (edges.empty()) return 0;
  ensure_journal_usable();
  prepare_batch(edges);
  return insert_batched(edges);
}

// --------------------------------------------------------------------------
// Batch engine (src/core/batch_engine.hpp): stage sharded, group into
// per-(vertex, bucket) runs, walk each run's chain once with the bulk slab
// operations — large batches split into double-buffered epochs whose
// staging overlaps the previous epoch's apply on the shared thread pool.
// --------------------------------------------------------------------------

template <class Policy>
std::uint32_t DynGraph<Policy>::stage_shard_count(std::uint64_t items) const {
  std::uint32_t shards = config_.stage_shards;
  if (shards == 0) {
    const unsigned workers = simt::ThreadPool::instance().size();
    shards = workers > 1 ? std::bit_ceil(workers) : 1u;
    // Auto mode: each shard re-scans the whole input, so don't slice a
    // batch thinner than ~16K staged queries per shard.
    constexpr std::uint64_t kMinItemsPerShard = 16384;
    while (shards > 1 && items / shards < kMinItemsPerShard) shards /= 2;
  } else {
    shards = std::bit_ceil(shards);
  }
  return shards > kMaxStageShards ? kMaxStageShards : shards;
}

/// Packs a directed pair for the unapplied-set membership tests below.
inline std::uint64_t edge_key(VertexId src, VertexId dst) {
  return (static_cast<std::uint64_t>(src) << 32) | dst;
}

/// Builds a PartialBatchError's unapplied list from a PipelineAbort: the
/// raw input items of the failing epoch whose staged pair (or its mirror,
/// when undirected) went unapplied — reported in input order and input
/// orientation, deduplicated — followed by every raw input item of the
/// epochs that never reached the apply stage.
template <typename EdgeT>
std::vector<Edge> unapplied_from_abort(std::span<const EdgeT> edges,
                                       bool undirected,
                                       const PipelineAbort& abort) {
  std::unordered_set<std::uint64_t> missed;
  missed.reserve(abort.epoch.unapplied.size());
  for (const Edge& e : abort.epoch.unapplied) {
    missed.insert(edge_key(e.src, e.dst));
  }
  std::vector<Edge> unapplied;
  std::unordered_set<std::uint64_t> reported;
  for (std::uint64_t i = abort.epoch_begin_item;
       i < abort.epoch_end_item && i < edges.size(); ++i) {
    const VertexId src = edges[i].src;
    const VertexId dst = edges[i].dst;
    if (src == dst) continue;  // self-loops are dropped, never staged
    const bool hit = missed.count(edge_key(src, dst)) != 0 ||
                     (undirected && missed.count(edge_key(dst, src)) != 0);
    if (hit && reported.insert(edge_key(src, dst)).second) {
      unapplied.push_back(Edge{src, dst});
    }
  }
  for (std::uint64_t i = abort.epoch_end_item; i < edges.size(); ++i) {
    unapplied.push_back(Edge{edges[i].src, edges[i].dst});
  }
  return unapplied;
}

/// Fallback unapplied list for failures carrying no per-pair detail (a
/// staging job died): every raw input item from the first epoch that did
/// not commit its apply stage.
template <typename EdgeT>
std::vector<Edge> unapplied_from_epoch(std::span<const EdgeT> edges,
                                       const BatchPipelineStats& stats) {
  std::uint64_t begin =
      static_cast<std::uint64_t>(stats.epochs_applied) * stats.epoch_items;
  if (begin > edges.size()) begin = edges.size();
  std::vector<Edge> unapplied;
  unapplied.reserve(edges.size() - begin);
  for (std::uint64_t i = begin; i < edges.size(); ++i) {
    unapplied.push_back(Edge{edges[i].src, edges[i].dst});
  }
  return unapplied;
}

/// Steady-clock nanoseconds (the pipeline window timestamps).
inline std::int64_t pipeline_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <class Policy>
template <typename StageEpochFn, typename ApplyFn>
std::uint64_t DynGraph<Policy>::run_epoch_pipeline(
    std::uint64_t num_items, std::uint32_t stage_items_factor,
    ShardedStaging* cur, ShardedStaging* nxt, BatchPipelineStats& stats,
    StageEpochFn&& stage_epoch, ApplyFn&& apply) const {
  stats = {};
  if (num_items == 0) return 0;
  auto& pool = simt::ThreadPool::instance();

  // Epoch plan: auto mode pipelines only when spare threads exist and the
  // batch is large enough to amortize the split; an explicit epoch size
  // always splits (tests drive the degenerate inline pipeline through it).
  std::uint64_t epoch_items;
  bool split;
  if (config_.pipeline_epoch_edges != 0) {
    epoch_items = config_.pipeline_epoch_edges;
    split = config_.double_buffer && num_items > epoch_items;
  } else {
    epoch_items = std::uint64_t{1} << 15;
    split = config_.double_buffer && pool.size() > 0 &&
            num_items > epoch_items + epoch_items / 2;
  }
  if (!split) epoch_items = num_items;
  const std::uint64_t num_epochs = (num_items + epoch_items - 1) / epoch_items;
  // Shards sized to one epoch's staged queries (each epoch stages anew).
  const std::uint32_t shards =
      stage_shard_count(epoch_items * stage_items_factor);

  stats.epochs = static_cast<std::uint32_t>(num_epochs);
  stats.shards = shards;
  stats.epoch_items = epoch_items;
  cur->resize(shards);
  nxt->resize(shards);

  // Epoch 0 stages synchronously (nothing to overlap with yet). Later
  // epochs stage as a single-chunk background job whose nested
  // parallel_for shares the pool with apply — staging an epoch early is
  // safe because apply never changes what staging reads: bucket counts,
  // table handles, and liveness of vertices the earlier epoch did not
  // create. A pool with no workers runs the job inline at submit: the
  // degenerate (serial) pipeline.
  {
    const std::int64_t t0 = pipeline_now_ns();
    stage_epoch(cur, 0, epoch_items < num_items ? epoch_items : num_items,
                shards);
    stats.stage_seconds +=
        static_cast<double>(pipeline_now_ns() - t0) * 1e-9;
  }

  std::uint64_t total = 0;
  for (std::uint64_t e = 0; e < num_epochs; ++e) {
    simt::ThreadPool::JobHandle job;
    const std::uint64_t next_begin = (e + 1) * epoch_items;
    if (next_begin < num_items) {
      const std::uint64_t next_end =
          next_begin + epoch_items < num_items ? next_begin + epoch_items
                                               : num_items;
      job = pool.submit(1, [&stage_epoch, nxt, next_begin, next_end,
                            shards](std::uint64_t) {
        stage_epoch(nxt, next_begin, next_end, shards);
      });
    }
    const std::int64_t apply_begin = pipeline_now_ns();
    try {
      total += apply(cur->front(), /*overlapped=*/job != nullptr);
    } catch (MutationAbort& abort) {
      // The apply stage died mid-epoch (arena exhaustion / injected
      // fault). Wait out the staging job, then hand the caller the failing
      // epoch's exact outcome plus its input bounds so it can extend the
      // unapplied set with every later epoch's raw input.
      if (job) {
        try {
          pool.wait(job);
        } catch (...) {
        }
      }
      const std::uint64_t end_item =
          next_begin < num_items ? next_begin : num_items;
      throw PipelineAbort{std::move(abort), e * epoch_items, end_item, total};
    } catch (...) {
      if (job) {
        try {
          pool.wait(job);  // never unwind past an in-flight staging job
        } catch (...) {
        }
      }
      throw;
    }
    const std::int64_t apply_end = pipeline_now_ns();
    ++stats.epochs_applied;
    stats.applied_total = total;
    stats.apply_seconds +=
        static_cast<double>(apply_end - apply_begin) * 1e-9;
    if (job) {
      pool.wait(job);  // the epoch fence: stage(e+1) committed, apply(e) done
      const std::int64_t stage_begin = nxt->window_begin_ns();
      const std::int64_t stage_end = nxt->window_end_ns();
      if (stage_end > stage_begin) {
        stats.stage_seconds +=
            static_cast<double>(stage_end - stage_begin) * 1e-9;
        const std::int64_t lo =
            stage_begin > apply_begin ? stage_begin : apply_begin;
        const std::int64_t hi = stage_end < apply_end ? stage_end : apply_end;
        if (hi > lo) {
          stats.overlap_seconds += static_cast<double>(hi - lo) * 1e-9;
        }
      }
      std::swap(cur, nxt);
    }
  }
  return total;
}

template <class Policy>
template <typename StageShardFn>
std::uint64_t DynGraph<Policy>::run_mutation_pipeline(
    std::uint64_t num_edges, bool gather_values, bool erase,
    StageShardFn&& stage_shard) {
  auto& pool = simt::ThreadPool::instance();
  // One epoch's full staging pass: stage + count every shard of the
  // epoch's input sub-span in parallel, then finalize places the shard
  // outputs into the one run list apply consumes, so NO work is left for
  // the fence bubble.
  const auto stage_epoch = [&, gather_values](ShardedStaging* buf,
                                              std::uint64_t begin,
                                              std::uint64_t end,
                                              std::uint32_t shards) {
    SG_FAULT_DELAY(kStageJob);
    if (SG_FAULT_FIRE(kStageJob)) {
      throw std::runtime_error("slabgraph: injected stage-job fault");
    }
    const std::int64_t t0 = pipeline_now_ns();
    pool.parallel_for(shards, [&, buf, begin, end, shards](std::uint64_t s) {
      BatchStaging& st = buf->shard(static_cast<std::uint32_t>(s));
      stage_shard(begin, end, static_cast<std::uint32_t>(s), shards, st);
      st.group_prepare(/*dedup=*/true);
    });
    buf->finalize(gather_values, /*gather_seqs=*/false);
    buf->window_note(t0, pipeline_now_ns());
  };
  return run_epoch_pipeline(
      num_edges, config_.undirected ? 2u : 1u, &staging_bufs_[0],
      &staging_bufs_[1], pipeline_stats_, stage_epoch,
      [&](const BatchStaging& front, bool overlapped) {
        return apply_mutation_runs(front, erase, overlapped);
      });
}

template <class Policy>
std::uint64_t DynGraph<Policy>::insert_batched(
    std::span<const WeightedEdge> edges) {
  std::lock_guard<std::mutex> batch_lock(batch_mutex_);
  // First-touch table creation needs no lazy-creation mutex even though
  // shards stage in parallel: the shard owning a vertex is the only one
  // that ever calls table_of for it.
  const auto table_of = [this](VertexId u) {
    if (!dict_.has_table(u)) {
      const memory::SlabHandle base =
          arena_.allocate_contiguous(1, slabhash::kEmptyKey);
      dict_.set_table(u, {base, 1});
      dict_.set_edge_count(u, 0);
    }
    if (dict_.deleted(u)) dict_.set_deleted(u, false);  // source revival
    return dict_.table(u);
  };
  std::uint64_t added = 0;
  try {
    added = run_mutation_pipeline(
        edges.size(), /*gather_values=*/Policy::kHasValues, /*erase=*/false,
        [&](std::uint64_t begin, std::uint64_t end, std::uint32_t shard,
            std::uint32_t num_shards, BatchStaging& st) {
          stage_weighted_edges_shard(edges.subspan(begin, end - begin),
                                     config_.undirected, Policy::kHasValues,
                                     config_.hash_seed, shard, num_shards,
                                     table_of, st);
        });
  } catch (PipelineAbort& abort) {
    // Arena exhaustion mid-apply: committed epochs stay applied, counters
    // are exact, and the caller gets the precise unapplied remainder.
    // maybe_auto_rehash is skipped on purpose — rebuilding tables allocates,
    // the one thing the arena just refused to do.
    if (config_.on_pressure) config_.on_pressure();
    std::vector<Edge> unapplied =
        unapplied_from_abort(edges, config_.undirected, abort);
    journal_insert_committed(edges, unapplied);  // the exact committed prefix
    throw PartialBatchError(
        abort.applied_before + abort.epoch.applied, std::move(unapplied),
        std::make_exception_ptr(memory::ArenaExhausted(
            "SlabArena: dynamic slab allocation failed mid-batch")),
        "insert_edges aborted: arena exhausted");
  } catch (const memory::ArenaExhausted&) {
    // Exhaustion outside the bulk path (first-touch table creation during
    // staging): only epoch granularity is known.
    if (config_.on_pressure) config_.on_pressure();
    std::vector<Edge> unapplied = unapplied_from_epoch(edges, pipeline_stats_);
    journal_insert_committed(edges, unapplied);
    throw PartialBatchError(pipeline_stats_.applied_total,
                            std::move(unapplied), std::current_exception(),
                            "insert_edges aborted: arena exhausted");
  } catch (const std::bad_alloc&) {
    throw;  // host heap exhausted: building a partial report could too
  } catch (...) {
    // A staging job died (e.g. injected fault): committed epochs stand,
    // everything from the first uncommitted epoch on is unapplied.
    std::vector<Edge> unapplied = unapplied_from_epoch(edges, pipeline_stats_);
    journal_insert_committed(edges, unapplied);
    throw PartialBatchError(pipeline_stats_.applied_total,
                            std::move(unapplied), std::current_exception(),
                            "insert_edges aborted");
  }
  journal_insert(edges);  // write-behind: committed in memory, now durable
  maybe_auto_rehash();
  return added;
}

template <class Policy>
std::uint64_t DynGraph<Policy>::delete_batched(std::span<const Edge> edges) {
  std::lock_guard<std::mutex> batch_lock(batch_mutex_);
  const std::uint32_t capacity = dict_.capacity();
  const auto table_of = [this, capacity](VertexId u) {
    return u < capacity && dict_.has_table(u) ? dict_.table(u)
                                              : slabhash::TableRef{};
  };
  std::uint64_t removed = 0;
  try {
    removed = run_mutation_pipeline(
        edges.size(), /*gather_values=*/false, /*erase=*/true,
        [&](std::uint64_t begin, std::uint64_t end, std::uint32_t shard,
            std::uint32_t num_shards, BatchStaging& st) {
          stage_edges_shard(edges.subspan(begin, end - begin),
                            config_.undirected, config_.hash_seed, shard,
                            num_shards, table_of, st);
        });
  } catch (const std::bad_alloc&) {
    throw;  // host heap exhausted: building a partial report could too
  } catch (...) {
    // Deletion never allocates slabs, so only a dying staging job lands
    // here; committed epochs stand, the rest is unapplied.
    std::vector<Edge> unapplied = unapplied_from_epoch(edges, pipeline_stats_);
    journal_erase_committed(edges, unapplied);
    throw PartialBatchError(pipeline_stats_.applied_total,
                            std::move(unapplied), std::current_exception(),
                            "delete_edges aborted");
  }
  journal_erase(edges);  // write-behind: committed in memory, now durable
  maybe_auto_rehash();
  return removed;
}

// The §III auto-rehash policy: "maintain low-cost metrics per vertex ...
// and periodically perform rehashing if it exceeds a given threshold". The
// bulk operations already histogram every run's chain length for free
// (ChainFeedback); after a mutation batch commits, fire rehash_long_chains
// when the tail at/above the configured chain threshold exceeds
// auto_rehash_tail_frac of the runs observed since the last rehash — at
// the default 0.01, when the p99 chain length crossed it. Runs under
// batch_mutex_, after apply: the accumulated feedback is stable, and the
// phase-concurrent model keeps queries out of the phase.
template <class Policy>
void DynGraph<Policy>::maybe_auto_rehash() {
  const double threshold = config_.auto_rehash_p99_slabs;
  if (threshold <= 0.0) return;
  if (feedback_.runs_observed == 0) return;
  // hist bin b counts chains of b + 2 slabs (last bin saturating): chains
  // below 2 slabs are never histogrammed, so thresholds clamp to 2, and
  // thresholds past the last bin degrade to its ">= kHistBuckets + 1"
  // tail — the policy may fire earlier than such a threshold asks, never
  // later (GraphConfig::auto_rehash_p99_slabs documents this).
  const std::uint32_t min_chain =
      threshold < 2.0 ? 2u
                      : static_cast<std::uint32_t>(std::ceil(threshold));
  std::uint32_t first_bin = min_chain - 2;
  if (first_bin > ChainFeedback::kHistBuckets - 1) {
    first_bin = ChainFeedback::kHistBuckets - 1;
  }
  std::uint64_t tail = 0;
  for (std::uint32_t b = first_bin; b < ChainFeedback::kHistBuckets; ++b) {
    tail += feedback_.hist[b];
  }
  // Tail fraction crossed (p99 at the default 0.01): integer-exact at the
  // default, and any frac in (0, 1] compares without overflow.
  if (static_cast<double>(tail) >
      static_cast<double>(feedback_.runs_observed) *
          config_.auto_rehash_tail_frac) {
    ++auto_rehash_count_;
    try {
      rehash_long_chains(1.0);  // targeted: consumes the candidate list
    } catch (const memory::ArenaExhausted&) {
      // Opportunistic maintenance must never fail a batch that already
      // committed: report the pressure and leave the long chains for a
      // roomier moment. A table caught mid-move stays on its old (intact)
      // table — only the abandoned fresh slabs are lost until then.
      if (config_.on_pressure) config_.on_pressure();
    }
  }
}

template <class Policy>
std::uint64_t DynGraph<Policy>::apply_mutation_runs(const BatchStaging& staged,
                                                    bool erase,
                                                    bool overlapped) {
  if (staged.runs.empty()) return 0;
  std::atomic<std::uint64_t> total{0};
  // Abort machinery (inserts only — erase never allocates): the first
  // chunk whose bulk op hits arena exhaustion flips the flag; every chunk
  // then stops applying and records its remaining staged pairs instead, so
  // the MutationAbort thrown after the launch carries exactly the pairs
  // that were NOT applied. Counters stay exact throughout: the bulk ops
  // return the precise applied count even on the failing call.
  std::atomic<bool> abort_flag{false};
  std::mutex abort_mutex;
  std::vector<Edge> abort_unapplied;
  simt::LaunchConfig launch_cfg;
  // While a staging job shares the pool, smaller chunks let the scheduler
  // interleave the two jobs instead of parking workers on one of them.
  if (overlapped) launch_cfg.chunks_per_worker = 8;
  simt::launch_runs(
      staged.run_offsets,
      [&](std::uint64_t first, std::uint64_t last) {
        std::uint64_t chunk_total = 0;
        VertexId counter_src = 0;
        std::uint32_t counter_delta = 0;
        bool counting = false;
        std::vector<Edge> chunk_unapplied;
        ChainFeedback chunk_feedback;
        // Runs are sorted by source (within a shard's range), so one atomic
        // counter update covers every consecutive run of the same vertex.
        const auto flush_counter = [&] {
          if (counting && counter_delta != 0) {
            if (erase) {
              simt::atomic_sub(dict_.edge_count_word(counter_src),
                               counter_delta);
            } else {
              simt::atomic_add(dict_.edge_count_word(counter_src),
                               counter_delta);
            }
            chunk_total += counter_delta;
          }
          counter_delta = 0;
        };
        simt::pipeline(
            last - first, kRunPrefetchDepth,
            [&](std::uint64_t i) {
              const QueryRun& run = staged.runs[first + i];
              simt::prefetch(&arena_.resolve(
                  dict_.table(run.src).bucket_head(run.bucket)));
            },
            [&](std::uint64_t i) {
              const QueryRun& run = staged.runs[first + i];
              const std::uint64_t begin = staged.run_offsets[first + i];
              const std::uint64_t end = staged.run_offsets[first + i + 1];
              if (abort_flag.load(std::memory_order_relaxed)) {
                // A peer chunk aborted: record this run untouched.
                for (std::uint64_t k = begin; k < end; ++k) {
                  chunk_unapplied.push_back(Edge{run.src, staged.keys[k]});
                }
                return;
              }
              if (!counting || run.src != counter_src) {
                flush_counter();
                counter_src = run.src;
                counting = true;
              }
              const auto count = static_cast<std::uint32_t>(end - begin);
              const slabhash::TableRef table = dict_.table(run.src);
              std::uint32_t chain_slabs = 0;
              if (erase) {
                counter_delta += Policy::bulk_erase(
                    arena_, table, run.bucket, staged.keys.data() + begin,
                    count, &chain_slabs);
              } else {
                slabhash::BulkStatus status;
                counter_delta += Policy::bulk_insert(
                    arena_, table, run.bucket, staged.keys.data() + begin,
                    staged.values.empty() ? nullptr
                                          : staged.values.data() + begin,
                    count, run.src, &chain_slabs, &status);
                if (!status.ok) {
                  // Arena ran dry mid-run. The failure is not a prefix of
                  // the run (see BulkStatus): the failing wave's
                  // still-pending lanes plus every later key went
                  // unapplied.
                  for (std::uint32_t m = status.fail_pending; m; m &= m - 1) {
                    const std::uint64_t k =
                        begin + status.fail_base +
                        static_cast<std::uint32_t>(std::countr_zero(m));
                    chunk_unapplied.push_back(Edge{run.src, staged.keys[k]});
                  }
                  for (std::uint64_t k = begin + status.fail_base +
                                         simt::kWarpSize;
                       k < end; ++k) {
                    chunk_unapplied.push_back(Edge{run.src, staged.keys[k]});
                  }
                  abort_flag.store(true, std::memory_order_relaxed);
                }
              }
              if (chain_slabs > 1) {
                chunk_feedback.note_long(run.src, chain_slabs);
              }
            });
        flush_counter();
        chunk_feedback.runs_observed += last - first;
        if (chunk_total != 0) {
          total.fetch_add(chunk_total, std::memory_order_relaxed);
        }
        {
          std::lock_guard<std::mutex> lock(feedback_mutex_);
          feedback_.merge_from(chunk_feedback);
        }
        if (!chunk_unapplied.empty()) {
          std::lock_guard<std::mutex> lock(abort_mutex);
          abort_unapplied.insert(abort_unapplied.end(),
                                 chunk_unapplied.begin(),
                                 chunk_unapplied.end());
        }
      },
      launch_cfg);
  if (abort_flag.load(std::memory_order_relaxed)) {
    MutationAbort abort;
    abort.applied = total.load(std::memory_order_relaxed);
    abort.unapplied = std::move(abort_unapplied);
    throw abort;
  }
  return total.load(std::memory_order_relaxed);
}

template <class Policy>
void DynGraph<Policy>::search_apply_runs(const BatchStaging& staged,
                                         std::uint8_t* found_out,
                                         Weight* weights_out,
                                         bool overlapped) const {
  if (staged.runs.empty()) return;
  simt::LaunchConfig launch_cfg;
  // While a staging job shares the pool, smaller chunks let the scheduler
  // interleave the two jobs instead of parking workers on one of them.
  if (overlapped) launch_cfg.chunks_per_worker = 8;
  // Slice-local scratch; chunks write disjoint [run_offsets[first],
  // run_offsets[last]) ranges, so the shared vectors need no locks.
  std::vector<std::uint8_t> found(staged.keys.size());
  std::vector<std::uint32_t> values;
  if (weights_out != nullptr) values.resize(staged.keys.size());
  simt::launch_runs(
      staged.run_offsets,
      [&](std::uint64_t first, std::uint64_t last) {
        ChainFeedback chunk_feedback;
        simt::pipeline(
            last - first, kRunPrefetchDepth,
            [&](std::uint64_t i) {
              const QueryRun& run = staged.runs[first + i];
              simt::prefetch(&arena_.resolve(
                  dict_.table(run.src).bucket_head(run.bucket)));
            },
            [&](std::uint64_t i) {
              const QueryRun& run = staged.runs[first + i];
              const std::uint64_t begin = staged.run_offsets[first + i];
              const std::uint64_t end = staged.run_offsets[first + i + 1];
              const auto count = static_cast<std::uint32_t>(end - begin);
              std::uint32_t chain_slabs = 0;
              if constexpr (Policy::kHasValues) {
                if (weights_out != nullptr) {
                  Policy::bulk_search_values(arena_, dict_.table(run.src),
                                             run.bucket,
                                             staged.keys.data() + begin, count,
                                             found.data() + begin,
                                             values.data() + begin,
                                             &chain_slabs);
                } else {
                  Policy::bulk_contains(arena_, dict_.table(run.src),
                                        run.bucket, staged.keys.data() + begin,
                                        count, found.data() + begin,
                                        &chain_slabs);
                }
              } else {
                Policy::bulk_contains(arena_, dict_.table(run.src), run.bucket,
                                      staged.keys.data() + begin, count,
                                      found.data() + begin, &chain_slabs);
              }
              // Queries observe chain lengths for free, exactly as the bulk
              // mutations do — search-heavy phases keep the §III metric and
              // the auto-rehash policy's histogram warm.
              if (chain_slabs > 1) {
                chunk_feedback.note_long(run.src, chain_slabs);
              }
              for (std::uint64_t q = begin; q < end; ++q) {
                // Scatter to the input position through the staged sequence.
                if (found_out != nullptr) found_out[staged.seqs[q]] = found[q];
                if (weights_out != nullptr && found[q] != 0) {
                  weights_out[staged.seqs[q]] = values[q];
                }
              }
            });
        chunk_feedback.runs_observed += last - first;
        {
          std::lock_guard<std::mutex> lock(feedback_mutex_);
          feedback_.merge_from(chunk_feedback);
        }
      },
      launch_cfg);
}

template <class Policy>
void DynGraph<Policy>::search_batched(std::span<const Edge> queries,
                                      std::uint8_t* found_out,
                                      Weight* weights_out) const {
  if (found_out != nullptr) {
    std::fill(found_out, found_out + queries.size(), std::uint8_t{0});
  }
  if (weights_out != nullptr) {
    std::fill(weights_out, weights_out + queries.size(), Weight{0});
  }
  auto& pool = simt::ThreadPool::instance();
  if (queries.empty()) return;

  // Queries are phase-concurrent with each other, so each batch pipelines
  // independently through LOCAL staging buffers (the double-buffered
  // members belong to the mutation phase).
  ShardedStaging bufs[2];
  const std::uint32_t capacity = dict_.capacity();
  const auto table_of = [this, capacity](VertexId u) {
    return u < capacity && dict_.has_table(u) ? dict_.table(u)
                                              : slabhash::TableRef{};
  };
  // One query slice's staging pass, with the staged sequence numbers
  // offset to GLOBAL input positions so scatter lands correctly. Safe to
  // run ahead of the current slice's searches: queries never mutate what
  // staging reads.
  const auto stage_epoch = [&](ShardedStaging* buf, std::uint64_t begin,
                               std::uint64_t end, std::uint32_t shards) {
    const std::int64_t t0 = pipeline_now_ns();
    pool.parallel_for(shards, [&, buf, begin, end, shards](std::uint64_t s) {
      BatchStaging& st = buf->shard(static_cast<std::uint32_t>(s));
      stage_queries_shard(queries.subspan(begin, end - begin),
                          config_.hash_seed, static_cast<std::uint32_t>(s),
                          shards, table_of, st,
                          static_cast<std::uint32_t>(begin));
      st.group_prepare(/*dedup=*/false);
    });
    buf->finalize(/*gather_values=*/false, /*gather_seqs=*/true);
    buf->window_note(t0, pipeline_now_ns());
  };

  BatchPipelineStats stats;
  run_epoch_pipeline(queries.size(), 1u, &bufs[0], &bufs[1], stats,
                     stage_epoch,
                     [&](const BatchStaging& front, bool overlapped) {
                       search_apply_runs(front, found_out, weights_out,
                                         overlapped);
                       return std::uint64_t{0};
                     });
  {
    std::lock_guard<std::mutex> lock(query_stats_mutex_);
    query_stats_ = stats;
  }
}

// --------------------------------------------------------------------------
// Bulk adjacency gather: the analytics engine's data path. Count pass is
// free (exact Alg. 1/2 degree counters), prefix-sum sizes ONE output
// buffer, and the emit pass walks each requested vertex's chains once with
// one snapshot + SIMD mask per slab — launch_runs chunks the vertices by
// total degree so skewed frontiers balance across the pool.
// --------------------------------------------------------------------------

template <class Policy>
void DynGraph<Policy>::gather_neighbors(std::span<const VertexId> vertices,
                                        std::vector<std::uint64_t>& offsets,
                                        std::vector<VertexId>& neighbors) const {
  const std::uint32_t capacity = dict_.capacity();
  offsets.resize(vertices.size() + 1);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    offsets[i] = total;
    const VertexId u = vertices[i];
    if (u < capacity && dict_.has_table(u)) total += dict_.edge_count(u);
  }
  offsets[vertices.size()] = total;
  neighbors.resize(total);
  if (vertices.empty()) return;
  VertexId* out = neighbors.data();

  simt::launch_runs(offsets, [&](std::uint64_t first, std::uint64_t last) {
    // Chain depths observed per vertex accumulate locally and merge once
    // per chunk — inform-only, like query phases: gathers enrich the
    // histogram but NEVER fire the auto-rehash policy (that stays a
    // mutation-batch decision; see maybe_auto_rehash).
    ChainFeedback chunk_feedback;
    simt::pipeline(
        last - first, kRunPrefetchDepth,
        [&](std::uint64_t i) {
          const VertexId u = vertices[first + i];
          if (u < capacity && dict_.has_table(u)) {
            simt::prefetch(&arena_.resolve(dict_.table(u).bucket_head(0)));
          }
        },
        [&](std::uint64_t i) {
          const std::uint64_t slot = first + i;
          const std::uint64_t expect = offsets[slot + 1] - offsets[slot];
          if (expect == 0) return;  // unknown / deleted / isolated vertex
          const VertexId u = vertices[slot];
          std::uint32_t chain_slabs = 0;
          Policy::gather(arena_, dict_.table(u), out + offsets[slot],
                         static_cast<std::uint32_t>(expect), &chain_slabs);
          if (chain_slabs > 1) chunk_feedback.note_long(u, chain_slabs);
        });
    chunk_feedback.runs_observed += last - first;
    if (config_.gather_feedback) {
      std::lock_guard<std::mutex> lock(feedback_mutex_);
      feedback_.merge_from(chunk_feedback);
    }
  });
}

template <class Policy>
GatherResult DynGraph<Policy>::gather_neighbors(
    std::span<const VertexId> vertices) const {
  GatherResult result;
  gather_neighbors(vertices, result.offsets, result.neighbors);
  return result;
}

// --------------------------------------------------------------------------
// Scheduled mode (src/core/phase_scheduler.hpp): the async submit_* entry
// points route through a per-graph conductor that fences mutation phases
// from query phases and coalesces same-kind submissions. The conductor is
// the serialization point for scheduled mutations; batch_mutex_ stays
// armed for direct synchronous calls and is uncontended under the
// scheduler.
// --------------------------------------------------------------------------

/// Ready-future wrapper of the inline reference mode (phase_scheduler =
/// false): runs `op` synchronously on the calling thread, capturing its
/// result or exception — the same future surface as scheduled mode, with
/// none of its cross-thread phase safety.
template <typename T, typename Fn>
std::future<T> inline_submit(Fn&& op) {
  std::promise<T> done;
  std::future<T> f = done.get_future();
  try {
    done.set_value(op());
  } catch (...) {
    done.set_exception(std::current_exception());
  }
  return f;
}

template <class Policy>
PhaseScheduler& DynGraph<Policy>::ensure_scheduler() {
  std::call_once(scheduler_once_, [this] {
    PhaseScheduler::Ops ops;
    ops.insert_edges = [this](std::span<const WeightedEdge> edges) {
      return insert_edges(edges);
    };
    ops.delete_edges = [this](std::span<const Edge> edges) {
      return delete_edges(edges);
    };
    ops.edges_exist = [this](std::span<const Edge> queries,
                             std::uint8_t* out) { edges_exist(queries, out); };
    if constexpr (Policy::kHasValues) {
      ops.edge_weights = [this](std::span<const Edge> queries, Weight* weights,
                                std::uint8_t* found) {
        edge_weights(queries, weights, found);
      };
    }
    PhaseScheduler::Limits limits;
    limits.max_pending_submissions = config_.max_pending_submissions;
    limits.max_pending_edges = config_.max_pending_edges;
    limits.backpressure = config_.backpressure;
    limits.submit_timeout_ms = config_.submit_timeout_ms;
    scheduler_ = std::make_unique<PhaseScheduler>(std::move(ops), limits);
    scheduler_ptr_.store(scheduler_.get(), std::memory_order_release);
  });
  return *scheduler_ptr_.load(std::memory_order_acquire);
}

template <class Policy>
std::future<std::uint64_t> DynGraph<Policy>::submit_insert(
    std::vector<WeightedEdge> edges) {
  if (!config_.phase_scheduler) {
    return inline_submit<std::uint64_t>([&] { return insert_edges(edges); });
  }
  return ensure_scheduler().submit_insert(std::move(edges));
}

template <class Policy>
std::future<std::uint64_t> DynGraph<Policy>::submit_erase(
    std::vector<Edge> edges) {
  if (!config_.phase_scheduler) {
    return inline_submit<std::uint64_t>([&] { return delete_edges(edges); });
  }
  return ensure_scheduler().submit_erase(std::move(edges));
}

template <class Policy>
std::future<std::vector<std::uint8_t>> DynGraph<Policy>::submit_edges_exist(
    std::vector<Edge> queries, std::uint32_t deadline_ms) {
  if (!config_.phase_scheduler) {
    // Inline mode runs the query immediately: a deadline cannot expire.
    return inline_submit<std::vector<std::uint8_t>>([&] {
      std::vector<std::uint8_t> out(queries.size(), 0);
      edges_exist(queries, out.data());
      return out;
    });
  }
  return ensure_scheduler().submit_edges_exist(std::move(queries),
                                               deadline_ms);
}

template <class Policy>
std::future<EdgeWeightBatch> DynGraph<Policy>::submit_edge_weights(
    std::vector<Edge> queries, std::uint32_t deadline_ms)
    requires Policy::kHasValues {
  if (!config_.phase_scheduler) {
    return inline_submit<EdgeWeightBatch>([&] {
      EdgeWeightBatch result;
      result.weights.assign(queries.size(), Weight{0});
      result.found.assign(queries.size(), 0);
      edge_weights(queries, result.weights.data(), result.found.data());
      return result;
    });
  }
  return ensure_scheduler().submit_edge_weights(std::move(queries),
                                                deadline_ms);
}

template <class Policy>
std::future<void> DynGraph<Policy>::submit_analytics(
    std::function<void()> task) {
  if (!config_.phase_scheduler) {
    // Inline reference mode: run the task synchronously (inline_submit<T>
    // cannot carry void through set_value).
    std::promise<void> done;
    std::future<void> f = done.get_future();
    try {
      task();
      done.set_value();
    } catch (...) {
      done.set_exception(std::current_exception());
    }
    return f;
  }
  return ensure_scheduler().submit_analytics(std::move(task));
}

template <class Policy>
void DynGraph<Policy>::schedule_drain() {
  if (PhaseScheduler* s = scheduler_ptr_.load(std::memory_order_acquire)) {
    s->drain();
  }
}

template <class Policy>
PhaseScheduleStats DynGraph<Policy>::last_schedule_stats() const {
  if (PhaseScheduler* s = scheduler_ptr_.load(std::memory_order_acquire)) {
    return s->stats();
  }
  return {};
}

// --------------------------------------------------------------------------
// Batched edge deletion (§IV-C2): Algorithm 1 with delete instead of
// replace; the bulk erases' counts decrement the exact edge counters.
// --------------------------------------------------------------------------

template <class Policy>
std::uint64_t DynGraph<Policy>::delete_edges(std::span<const Edge> edges) {
  if (edges.empty()) return 0;
  ensure_journal_usable();
  validate_batch(edges);
  return delete_batched(edges);
}

// --------------------------------------------------------------------------
// Algorithm 2: vertex deletion
// --------------------------------------------------------------------------

template <class Policy>
void DynGraph<Policy>::delete_vertices(std::span<const VertexId> ids) {
  if (ids.empty()) return;
  ensure_journal_usable();
  const std::uint64_t seed = config_.hash_seed;
  const std::uint32_t count = static_cast<std::uint32_t>(ids.size());

  // Serial pre-pass: mark the batch. The `doomed` bitmap (this batch only)
  // drives the cleanup so that stale liveness flags from earlier deletions
  // can never widen it; the persistent flags feed vertex_live().
  std::vector<std::uint8_t> doomed(dict_.capacity(), 0);
  for (VertexId v : ids) {
    if (v < dict_.capacity()) {
      doomed[v] = 1;
      dict_.set_deleted(v, true);
    }
  }

  // Phase 1 — remove the deleted vertices from *other* adjacency lists.
  if (config_.undirected) {
    // Undirected: a vertex's own adjacency list names exactly the tables
    // that reference it (Algorithm 2 lines 11-17). One warp per vertex,
    // claimed from an atomic work queue (lines 2-9) for load balance.
    std::uint32_t queue = 0;
    // One warp per vertex, capped so small batches do not oversubscribe.
    const std::uint32_t num_warps = count < 256u ? count : 256u;
    simt::launch_warps(num_warps, [&](const simt::WarpId&) {
      for (;;) {
        // Lines 3-6: lane 0 claims a queue slot; broadcast to the warp.
        const std::uint32_t queue_id = simt::atomic_add(queue, 1u);
        if (queue_id >= count) return;  // line 7-8
        const VertexId warp_vertex = ids[queue_id];  // line 10
        if (warp_vertex >= dict_.capacity() || !dict_.has_table(warp_vertex)) {
          continue;
        }
        // Lines 11-17: iterate the vertex's slabs; every lane takes one
        // destination and deletes warp_vertex from that neighbour's table.
        auto it = edge_iterator(warp_vertex);
        while (it.next()) {
          for (int lane = 0; lane < it.slots(); ++lane) {
            const std::uint32_t dst = it.key(lane);
            // Empties exist only at the tail of a slab's used region, so
            // the first EMPTY ends this slab (the §IV-C2 invariant).
            if (dst == slabhash::kEmptyKey) break;
            if (dst == slabhash::kTombstoneKey) continue;
            if (dst >= dict_.capacity() || doomed[dst] ||
                !dict_.has_table(dst)) {
              continue;  // neighbour is being deleted too: its table dies anyway
            }
            if (Policy::erase(arena_, dict_.table(dst), warp_vertex, seed)) {
              simt::atomic_sub(dict_.edge_count_word(dst), 1u);
            }
          }
        }
        // Lines 18-22, same warp pass: free this vertex's dynamically
        // allocated slabs (base slabs stay), zero its edge count. Safe here
        // because no other warp touches a doomed vertex's table.
        Policy::clear(arena_, dict_.table(warp_vertex));
        dict_.set_edge_count(warp_vertex, 0);
      }
    });
  } else {
    // Directed: incoming edges are unknown, so run the paper's follow-up
    // sweep — "a follow-up lookup and delete all of the deleted vertices in
    // all of the hash tables" — over every live vertex.
    std::uint32_t queue = 0;
    const std::uint32_t capacity = dict_.capacity();
    simt::launch_warps(256, [&](const simt::WarpId&) {
      for (;;) {
        const std::uint32_t u = simt::atomic_add(queue, 1u);
        if (u >= capacity) return;
        if (!dict_.has_table(u) || doomed[u]) continue;
        const slabhash::TableRef table = dict_.table(u);
        auto it = EdgeSlabIterator<Policy>(arena_, table);
        while (it.next()) {
          for (int lane = 0; lane < it.slots(); ++lane) {
            const std::uint32_t dst = it.key(lane);
            if (dst == slabhash::kEmptyKey) break;  // empties only at tail
            if (dst == slabhash::kTombstoneKey) continue;
            if (dst < capacity && doomed[dst]) {
              if (Policy::erase(arena_, table, dst, seed)) {
                simt::atomic_sub(dict_.edge_count_word(u), 1u);
              }
            }
          }
        }
      }
    });
  }

  // Phase 2 (directed only; the undirected pass cleans per-warp above) —
  // dismantle the deleted vertices' own tables: free dynamically allocated
  // slabs (lines 18-20), keep base slabs ("statically allocated memory is
  // not reclaimed"), zero the edge count (line 22).
  if (!config_.undirected) {
    std::uint32_t queue2 = 0;
    simt::launch_warps(64, [&](const simt::WarpId&) {
      for (;;) {
        const std::uint32_t queue_id = simt::atomic_add(queue2, 1u);
        if (queue_id >= count) return;
        const VertexId v = ids[queue_id];
        if (v >= dict_.capacity() || !dict_.has_table(v)) continue;
        Policy::clear(arena_, dict_.table(v));
        dict_.set_edge_count(v, 0);
      }
    });
  }
  if (journal_) {
    advance_journal_seq(journal_->append_delete_vertices(ids));
  }
}

// --------------------------------------------------------------------------
// Queries
// --------------------------------------------------------------------------

template <class Policy>
bool DynGraph<Policy>::edge_exists(VertexId u, VertexId v) const {
  // No liveness flag checks: Algorithm 2's cleanup guarantees deleted
  // vertices appear in no adjacency list and own an empty table, so the
  // table contents alone answer correctly ("no edge query involving u may
  // have a false positive result").
  if (u >= dict_.capacity() || !dict_.has_table(u)) return false;
  return Policy::contains(arena_, dict_.table(u), v, config_.hash_seed);
}

template <class Policy>
void DynGraph<Policy>::edges_exist(std::span<const Edge> queries,
                                   std::uint8_t* out) const {
  if (queries.empty()) return;
  search_batched(queries, out, /*weights_out=*/nullptr);
}

template <class Policy>
slabhash::MapFindResult DynGraph<Policy>::edge_weight(VertexId u, VertexId v) const
    requires Policy::kHasValues {
  if (u >= dict_.capacity() || !dict_.has_table(u)) return {};
  return slabhash::map_search(arena_, dict_.table(u), v, config_.hash_seed);
}

template <class Policy>
void DynGraph<Policy>::edge_weights(std::span<const Edge> queries,
                                    Weight* weights, std::uint8_t* found) const
    requires Policy::kHasValues {
  if (queries.empty()) return;
  search_batched(queries, found, weights);
}

template <class Policy>
void DynGraph<Policy>::for_each_neighbor(
    VertexId u, const std::function<void(VertexId, Weight)>& fn) const {
  if (u >= dict_.capacity() || !dict_.has_table(u)) return;
  Policy::for_each(arena_, dict_.table(u), fn);
}

// --------------------------------------------------------------------------
// Maintenance & accounting
// --------------------------------------------------------------------------

template <class Policy>
void DynGraph<Policy>::flush_all_tombstones() {
  for (VertexId u = 0; u < dict_.capacity(); ++u) {
    if (dict_.has_table(u)) Policy::flush_tombstones(arena_, dict_.table(u));
  }
}

template <class Policy>
std::uint64_t DynGraph<Policy>::delete_edges_older_than(Weight threshold)
    requires Policy::kHasValues {
  // Sweep live vertices in waves: gather each wave's adjacency, read the
  // stored timestamps through the batched weight lookup, and collect every
  // directed edge with ts < threshold (strictly below — the DynoGraph
  // window convention; an edge AT the threshold survives). The expired set
  // then retires as ONE delete_edges batch on the engine pipeline.
  constexpr std::uint32_t kWave = 4096;
  std::vector<VertexId> wave;
  wave.reserve(kWave);
  std::vector<Edge> expired;
  std::vector<Edge> probes;
  std::vector<std::uint64_t> offsets;
  std::vector<VertexId> neighbors;
  std::vector<Weight> weights;
  const auto drain_wave = [&] {
    if (wave.empty()) return;
    gather_neighbors(wave, offsets, neighbors);
    probes.clear();
    for (std::size_t i = 0; i < wave.size(); ++i) {
      for (std::uint64_t k = offsets[i]; k < offsets[i + 1]; ++k) {
        // Undirected graphs store each edge twice with the same timestamp;
        // probing only the src <= dst orientation halves the lookup work,
        // and delete_edges erases the mirror itself.
        if (config_.undirected && wave[i] > neighbors[k]) continue;
        probes.push_back(Edge{wave[i], neighbors[k]});
      }
    }
    weights.assign(probes.size(), Weight{0});
    edge_weights(probes, weights.data());
    for (std::size_t q = 0; q < probes.size(); ++q) {
      if (weights[q] < threshold) expired.push_back(probes[q]);
    }
    wave.clear();
  };
  for (VertexId u = 0; u < dict_.capacity(); ++u) {
    if (!vertex_live(u) || dict_.edge_count(u) == 0) continue;
    wave.push_back(u);
    if (wave.size() == kWave) drain_wave();
  }
  drain_wave();
  if (expired.empty()) return 0;
  return delete_edges(expired);
}

template <class Policy>
typename DynGraph<Policy>::CompactStats DynGraph<Policy>::compact() {
  CompactStats s;
  s.chunks_before = arena_.live_chunks();
  // Dead keys would be migrated byte-for-byte; shed them first so shrink
  // sizes from real occupancy and migration copies only live chains.
  flush_all_tombstones();
  // Table shrink. Growth rehash sizes a table for the live count it sees
  // and nothing ever sizes it back down, so under a sliding window every
  // table settles at its PEAK degree and total base memory ratchets up as
  // running maxima drift. Rebuild any table whose live count warrants at
  // most half its current buckets; post-shrink occupancy lands at
  // load_factor, comfortably under the auto-rehash grow trigger, so the
  // half hysteresis prevents ping-pong.
  for (VertexId u = 0; u < dict_.capacity(); ++u) {
    if (!dict_.has_table(u)) continue;
    const slabhash::TableRef table = dict_.table(u);
    if (dict_.edge_count(u) == 0) {
      // Aging emptied this vertex entirely: drop the table instead of
      // keeping a 1-bucket stub forever. Lazy first-touch creation
      // rebuilds it if the vertex re-enters the window, so total base
      // memory tracks the vertices IN the window, not every vertex the
      // stream ever mentioned. (delete_vertices itself still keeps
      // tables — §IV-D2 — reclamation is compact's job alone.)
      Policy::clear(arena_, table);
      arena_.free_contiguous(table.base, table.num_buckets);
      dict_.set_table(u, {memory::kNullSlab, 0});
      ++s.shrunk_tables;
      continue;
    }
    if (table.num_buckets <= 1) continue;
    const std::uint32_t target = slabhash::buckets_for(
        dict_.edge_count(u), config_.load_factor, Policy::kSlotCapacity);
    if (target * 2 > table.num_buckets) continue;
    rebuild_table(u, table, target);
    ++s.shrunk_tables;
  }
  arena_.drain_free_caches();
  // Victim selection: dynamic chunks below the occupancy threshold.
  // (flag vector indexed by chunk, consumed by allocate_avoiding so a
  // migrated slab never lands in another victim).
  const auto occupancy = arena_.dynamic_chunk_occupancy();
  std::uint32_t max_index = 0;
  for (const auto& o : occupancy) max_index = std::max(max_index, o.index);
  std::vector<std::uint8_t> victim(max_index + 1, 0);
  const auto threshold = static_cast<std::uint32_t>(
      config_.compact_occupancy * memory::SlabArena::kChunkSlabs);
  for (const auto& o : occupancy) {
    if (o.used_slabs > 0 && o.used_slabs < threshold) {
      victim[o.index] = 1;
      ++s.victim_chunks;
    }
  }
  if (s.victim_chunks != 0) {
    // Walk every bucket chain; any overflow slab living in a victim chunk
    // is copied into a non-victim chunk and the owning next pointer is
    // rewritten. Base slabs are bulk (never dynamic), so only chain TAILS
    // move — the table refs themselves are untouched.
    for (VertexId u = 0; u < dict_.capacity(); ++u) {
      if (!dict_.has_table(u)) continue;
      const slabhash::TableRef table = dict_.table(u);
      for (std::uint32_t b = 0; b < table.num_buckets; ++b) {
        memory::SlabHandle prev = table.bucket_head(b);
        for (;;) {
          const memory::SlabHandle next = simt::atomic_load(
              arena_.resolve(prev).words[slabhash::kNextPtrWord]);
          if (next == memory::kNullSlab) break;
          const std::uint32_t ci = memory::SlabArena::chunk_index_of(next);
          if (ci < victim.size() && victim[ci] != 0) {
            const memory::SlabHandle moved =
                arena_.allocate_avoiding(slabhash::kEmptyKey, victim);
            const memory::Slab& src = arena_.resolve(next);
            memory::Slab& dst = arena_.resolve(moved);
            for (int w = 0; w < memory::kWordsPerSlab; ++w) {
              dst.words[w] = src.words[w];
            }
            simt::atomic_store(
                arena_.resolve(prev).words[slabhash::kNextPtrWord], moved);
            arena_.free_direct(next);
            ++s.migrated_slabs;
            prev = moved;
          } else {
            prev = next;
          }
        }
      }
    }
  }
  s.released_chunks =
      arena_.release_empty_chunks(config_.compact_keep_free_chunks);
  s.chunks_after = arena_.live_chunks();
  last_compact_stats_ = s;
  return s;
}

template <class Policy>
std::future<std::uint64_t> DynGraph<Policy>::submit_age_out(Weight threshold)
    requires Policy::kHasValues {
  if (!config_.phase_scheduler) {
    return inline_submit<std::uint64_t>(
        [&] { return delete_edges_older_than(threshold); });
  }
  return ensure_scheduler().submit_maintenance(
      [this, threshold] { return delete_edges_older_than(threshold); });
}

template <class Policy>
std::future<std::uint64_t> DynGraph<Policy>::submit_compact() {
  if (!config_.phase_scheduler) {
    return inline_submit<std::uint64_t>(
        [&] { return std::uint64_t{compact().released_chunks}; });
  }
  return ensure_scheduler().submit_maintenance(
      [this] { return std::uint64_t{compact().released_chunks}; });
}

template <class Policy>
std::future<std::uint64_t> DynGraph<Policy>::submit_maintenance(
    std::function<std::uint64_t()> task) {
  if (!config_.phase_scheduler) {
    return inline_submit<std::uint64_t>([&] { return task(); });
  }
  return ensure_scheduler().submit_maintenance(std::move(task));
}

template <class Policy>
bool DynGraph<Policy>::maybe_rehash_table(VertexId u, double max_chain_slabs) {
  if (u >= dict_.capacity() || !dict_.has_table(u)) return false;
  const slabhash::TableRef old_table = dict_.table(u);
  const std::uint32_t live = dict_.edge_count(u);
  const double expected_chain =
      static_cast<double>(live) /
      (static_cast<double>(old_table.num_buckets) * Policy::kSlotCapacity);
  if (expected_chain <= max_chain_slabs) return false;
  // Build a right-sized table and move the live keys over; the move also
  // sheds tombstones. Only adjacency-list contents move — the dictionary
  // entry is a pointer swap, as in §IV-A1.
  rebuild_table(u, old_table, slabhash::buckets_for(
                                  live, config_.load_factor,
                                  Policy::kSlotCapacity));
  return true;
}

template <class Policy>
void DynGraph<Policy>::rebuild_table(VertexId u,
                                     const slabhash::TableRef& old_table,
                                     std::uint32_t buckets) {
  slabhash::TableRef fresh{
      arena_.allocate_contiguous(buckets, slabhash::kEmptyKey), buckets};
  Policy::for_each(arena_, old_table, [&](VertexId dst, Weight w) {
    Policy::insert(arena_, fresh, dst, w, config_.hash_seed, u);
  });
  Policy::clear(arena_, old_table);  // frees the old overflow chain
  dict_.set_table(u, fresh);
  // The old bucket array has no live references once the dictionary points
  // at the fresh table: return the whole range for reuse. Without this,
  // every rehash leaks one base array and sliding-window churn (aging
  // batches -> tombstoned chains -> auto-rehash) grows bulk memory without
  // bound — the leak micro_stream's steady_chunk_flatness gate watches.
  arena_.free_contiguous(old_table.base, old_table.num_buckets);
}

template <class Policy>
std::uint32_t DynGraph<Policy>::rehash_long_chains(double max_chain_slabs,
                                                   bool full_scan) {
  if (max_chain_slabs <= 0.0) {
    throw std::invalid_argument("max_chain_slabs must be positive");
  }
  last_rehash_stats_ = {};
  // The targeted path is complete for thresholds >= 1 slab: an offender
  // has more live keys than base capacity, so some bulk insert extended
  // (and therefore observed) a chain past the base slab and recorded the
  // vertex. Sub-slab thresholds can flag tables that never chained, and a
  // saturated candidate list has dropped observations — both fall back to
  // the full sweep (which resets the feedback).
  const bool targeted =
      !full_scan && max_chain_slabs >= 1.0 && !feedback_.saturated;
  last_rehash_stats_.targeted = targeted;
  std::uint32_t rehashed = 0;
  if (targeted) {
    std::vector<VertexId>& candidates = feedback_.candidates;
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    std::vector<VertexId> survivors;
    for (const VertexId u : candidates) {
      ++last_rehash_stats_.scanned;
      if (maybe_rehash_table(u, max_chain_slabs)) {
        ++rehashed;
      } else if (u < dict_.capacity() && dict_.has_table(u)) {
        // Observed past its base slab but under this threshold: keep the
        // observation for a future, stricter call.
        survivors.push_back(u);
      }
    }
    feedback_.candidates = std::move(survivors);
    feedback_.hist = {};  // the histogram described the consumed interval
    feedback_.runs_observed = 0;
  } else {
    feedback_.clear();  // the full sweep subsumes every observation
    for (VertexId u = 0; u < dict_.capacity(); ++u) {
      if (!dict_.has_table(u)) continue;
      ++last_rehash_stats_.scanned;
      if (maybe_rehash_table(u, max_chain_slabs)) ++rehashed;
    }
  }
  last_rehash_stats_.rehashed = rehashed;
  return rehashed;
}

template <class Policy>
GraphMemoryStats DynGraph<Policy>::memory_stats() const {
  GraphMemoryStats stats;
  for (VertexId u = 0; u < dict_.capacity(); ++u) {
    if (!dict_.has_table(u)) continue;
    const slabhash::TableOccupancy occ = Policy::occupancy(arena_, dict_.table(u));
    stats.live_edges += occ.live_keys;
    stats.tombstones += occ.tombstones;
    stats.slots += occ.slots;
    stats.base_slabs += occ.base_slabs;
    stats.overflow_slabs += occ.overflow_slabs;
  }
  stats.bytes = (stats.base_slabs + stats.overflow_slabs) * sizeof(memory::Slab);
  return stats;
}

}  // namespace sg::core
