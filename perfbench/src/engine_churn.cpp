// engine_churn: one directed DynGraphMap on the synchronous batched API at
// pool width 4. Set-up bulk-builds 2^24 live edges (19 bytes each after
// the build, about 35 after the churn: larger than a 300 MiB L3). An
// untimed warm-up then turns the live set over once (256 rounds of insert
// + erase), and every measured round inserts 2^16 fresh edges, erases the
// 2^16 oldest (so the live size stays constant) and runs edges_exist on
// 2^16 queries, half of them hits. Nearly all time is in the engine's
// stage/apply, slab probes, arena recycling and the pool; the scheduler,
// shard, stream and persist layers are bypassed.
//
// Edges come from EdgeCodec: sequence index i maps to a distinct edge, so
// the live set is always the index window [lo, hi) and decode() answers
// any query independently of the graph. A std::map reference over a
// sampled 1/64 of the sources follows every update and checks the final
// adjacency of those vertices.
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <vector>

#include "perfbench/src/common.hpp"
#include "perfbench/src/layers.hpp"
#include "src/core/dyn_graph.hpp"
#include "src/memory/slab_arena.hpp"
#include "src/persist/recovery.hpp"
#include "src/persist/snapshot.hpp"
#include "src/simt/thread_pool.hpp"

namespace perfbench {
namespace {

using sg::core::DynGraphMap;
using sg::core::Edge;
using sg::core::VertexId;
using sg::core::Weight;
using sg::core::WeightedEdge;

struct Sizes {
  std::uint32_t vertex_bits;
  std::uint64_t live;
  std::uint32_t batch;
  std::uint32_t setups;
  std::uint32_t sample_mod;  ///< 1 in sample_mod sources is in the reference
  double rounds_per_second;
};

constexpr Sizes kFull{20, std::uint64_t{1} << 24, 1u << 16, 5, 64, 30.0};
constexpr Sizes kTiny{12, std::uint64_t{1} << 15, 1u << 10, 2, 4, 2.0};
/// Pool width 4: three workers plus the calling thread, which runs chunks
/// while it waits, so the busy threads never exceed the 4 vCPUs. (Four
/// workers plus the caller oversubscribe the box; measured here, that made
/// the p90 tails about 10% longer.)
constexpr unsigned kPoolThreads = 4;
constexpr std::uint32_t kRecoveries = 3;
/// Tails are the median of the p90s of the run's thirds (100 rounds each at
/// --seconds 10, so 10 beyond each p90): an episode of interference from
/// other tenants that covers one third does not move them.
constexpr std::size_t kTailSegments = 3;

/// The seeded edge source and the live index window [lo, hi).
class Window {
 public:
  Window(std::uint32_t bits, std::uint64_t seed) : codec_(bits, seed) {}

  WeightedEdge edge(std::uint64_t i) const {
    const auto [u, v] = codec_.encode(i);
    return {u, v, static_cast<Weight>(i)};
  }
  /// Appends the next `n` fresh edges and advances hi.
  void take_fresh(std::uint64_t n, std::vector<WeightedEdge>& out) {
    out.clear();
    while (out.size() < n) {
      if (!codec_.is_loop(hi_)) out.push_back(edge(hi_));
      ++hi_;
    }
  }
  /// The `n` oldest live edges; advances lo.
  void take_oldest(std::uint64_t n, std::vector<Edge>& out) {
    out.clear();
    while (out.size() < n) {
      if (!codec_.is_loop(lo_)) {
        const WeightedEdge e = edge(lo_);
        out.push_back({e.src, e.dst});
      }
      ++lo_;
    }
  }
  /// Half live hits; the misses alternate between never-inserted indices
  /// and indices already erased.
  void queries(Rng& rng, std::uint32_t n, std::vector<Edge>& out) const {
    out.clear();
    const std::uint64_t future = codec_.index_limit() / 2;
    for (std::uint32_t q = 0; q < n; ++q) {
      std::uint64_t i;
      do {
        if (q % 2 == 0) {
          i = lo_ + rng.below(hi_ - lo_);
        } else if (q % 4 == 1 || lo_ == 0) {
          i = future + rng.below(future);
        } else {
          i = rng.below(lo_);
        }
      } while (codec_.is_loop(i));
      const WeightedEdge e = edge(i);
      out.push_back({e.src, e.dst});
    }
  }
  /// The oracle: is (u, v) live in the current window?
  bool live(VertexId u, VertexId v) const {
    if (u == v) return false;
    const std::uint64_t i = codec_.decode(u, v);
    return i >= lo_ && i < hi_;
  }
  std::uint64_t lo() const { return lo_; }
  std::uint64_t hi() const { return hi_; }

 private:
  EdgeCodec codec_;
  std::uint64_t lo_ = 0;
  std::uint64_t hi_ = 0;
};

/// DynoGraph reference_impl shape: src -> (dst -> weight), restricted to
/// the sampled sources.
class SampledReference {
 public:
  SampledReference(std::uint64_t seed, std::uint32_t mod)
      : seed_(seed), mod_(mod) {}
  bool sampled(VertexId u) const { return splitmix64(u ^ seed_) % mod_ == 0; }
  void insert(const std::vector<WeightedEdge>& batch) {
    for (const WeightedEdge& e : batch) {
      if (sampled(e.src)) adj_[e.src][e.dst] = e.weight;
    }
  }
  void erase(const std::vector<Edge>& batch) {
    for (const Edge& e : batch) {
      if (sampled(e.src)) adj_[e.src].erase(e.dst);
    }
  }
  bool contains(VertexId u, VertexId v) const {
    const auto it = adj_.find(u);
    return it != adj_.end() && it->second.count(v) != 0;
  }
  /// Compares every sampled vertex's degree and adjacency (with weights).
  void check_graph(const DynGraphMap& g, Result& r) const {
    for (const auto& [u, nbrs] : adj_) {
      r.check(g.degree(u) == nbrs.size(), "sampled degree differs");
      std::map<VertexId, Weight> seen;
      g.for_each_neighbor(u, [&seen](VertexId v, Weight w) { seen[v] = w; });
      r.check(seen == nbrs, "sampled adjacency differs");
    }
  }
  std::size_t vertices() const { return adj_.size(); }

 private:
  std::uint64_t seed_;
  std::uint32_t mod_;
  std::map<VertexId, std::map<VertexId, Weight>> adj_;
};

struct RoundTimes {
  double insert_s = 0, erase_s = 0, query_s = 0, round_s = 0;
};

}  // namespace

void run_engine_churn(const Options& opt, Result& r) {
  const Sizes& sz = opt.tiny ? kTiny : kFull;
  const std::uint32_t rounds = std::max<std::uint32_t>(
      8, static_cast<std::uint32_t>(std::llround(opt.seconds * sz.rounds_per_second)));
  sg::simt::ThreadPool& pool = sg::simt::ThreadPool::instance();
  pool.resize(kPoolThreads - 1);

  Window win(sz.vertex_bits, opt.seed);
  SampledReference ref(opt.seed, sz.sample_mod);
  Rng rng(splitmix64(opt.seed ^ 0xC4u));
  Digest digest;
  double gen_s = 0.0;

  // ---- set-up: bulk_build of the initial window, repeated ----------------
  std::vector<WeightedEdge> initial;
  {
    const auto t0 = Clock::now();
    win.take_fresh(sz.live, initial);
    for (const WeightedEdge& e : initial) digest.add(std::uint64_t{e.src} << 32 | e.dst);
    gen_s += seconds_since(t0);
  }
  ref.insert(initial);
  sg::core::GraphConfig cfg;
  cfg.vertex_capacity = 1u << sz.vertex_bits;
  std::unique_ptr<DynGraphMap> g;
  std::vector<double> setup_s;
  for (std::uint32_t s = 0; s < sz.setups; ++s) {
    g.reset();
    const auto t0 = Clock::now();
    g = std::make_unique<DynGraphMap>(cfg);
    g->bulk_build(initial);
    setup_s.push_back(seconds_since(t0));
    ++r.attempted;
    r.check(g->num_edges() == sz.live, "bulk_build live count");
  }
  initial.clear();
  initial.shrink_to_fit();
  std::fprintf(stderr, "engine_churn: set-up %.3f s (median of %zu)\n",
               median(setup_s), setup_s.size());

  // ---- churn rounds -------------------------------------------------------
  Trace trace(false);
  std::vector<WeightedEdge> ins;
  std::vector<Edge> era, qry;
  std::vector<std::uint8_t> found;
  std::vector<double> insert_s, erase_s, query_ms, update_ms, epoch_ms, rss, chunks,
      traced_units, untraced_units;
  double stage_s = 0, apply_s = 0, overlap_s = 0, residual_s = 0;
  double erase_stage_s = 0, erase_apply_s = 0;
  std::uint64_t new_edges = 0, attempted_edges = 0;

  const auto round = [&](bool measured, bool traced, bool queries) -> RoundTimes {
    {
      const auto t0 = Clock::now();
      win.take_fresh(sz.batch, ins);
      win.take_oldest(sz.batch, era);
      // Queries see the window after this round's insert and erase.
      qry.clear();
      if (queries) win.queries(rng, sz.batch, qry);
      for (const Edge& e : qry) digest.add(std::uint64_t{e.src} << 32 | e.dst);
      gen_s += seconds_since(t0);
    }
    trace.set_enabled(traced);
    RoundTimes t;
    const auto unit0 = Clock::now();
    {
      Scoped unit(trace, "unit.round");
      const auto call = [&](const char* name, auto&& fn) {
        Scoped span(trace, name);
        const auto c0 = Clock::now();
        ++r.attempted;
        try {
          fn();
        } catch (const std::exception& e) {
          ++r.failed;
          std::fprintf(stderr, "engine_churn: %s failed: %s\n", name, e.what());
        }
        return seconds_since(c0);
      };
      std::uint64_t added = 0, removed = 0;
      t.insert_s = call("core.engine.insert_call",
                        [&] { added = g->insert_edges(ins); });
      const sg::core::BatchPipelineStats is = g->last_batch_stats();
      t.erase_s = call("core.engine.erase_call",
                       [&] { removed = g->delete_edges(era); });
      const sg::core::BatchPipelineStats es = g->last_batch_stats();
      found.assign(qry.size(), 0);
      if (queries) {
        t.query_s = call("core.engine.query_call",
                         [&] { g->edges_exist(qry, found.data()); });
      }
      if (measured) {
        new_edges += added;
        attempted_edges += ins.size();
        stage_s += is.stage_seconds;
        apply_s += is.apply_seconds;
        overlap_s += is.overlap_seconds;
        residual_s += t.insert_s - (is.stage_seconds + is.apply_seconds -
                                    is.overlap_seconds);
        erase_stage_s += es.stage_seconds;
        erase_apply_s += es.apply_seconds;
      }
      r.check(added == ins.size(), "insert did not add every fresh edge");
      r.check(removed == era.size(), "erase did not remove every oldest edge");
    }
    t.round_s = seconds_since(unit0);
    trace.set_enabled(false);
    if (measured) (traced ? traced_units : untraced_units).push_back(t.round_s);
    ref.insert(ins);
    ref.erase(era);
    for (std::size_t q = 0; q < qry.size(); ++q) {
      const bool want = win.live(qry[q].src, qry[q].dst);
      r.check((found[q] != 0) == want, "edges_exist answer differs from oracle");
      if (ref.sampled(qry[q].src)) {
        r.check(ref.contains(qry[q].src, qry[q].dst) == want,
                "sampled reference differs from oracle");
      }
    }
    return t;
  };

  // Warm-up: one full turnover of the live set, insert and erase only.
  // Erased slots stay tombstones, so until every bulk-built edge has been
  // erased once the arena grows and the insert rate falls (it halves over
  // the first turnover); after it the measured rounds run at a settled rate.
  const std::uint32_t warmup_rounds = static_cast<std::uint32_t>(sz.live / sz.batch);
  for (std::uint32_t w = 0; w < warmup_rounds; ++w) round(false, false, false);
  const auto loop0 = Clock::now();
  for (std::uint32_t k = 0; k < rounds; ++k) {
    const RoundTimes t = round(true, opt.trace && k % 2 == 0, true);
    insert_s.push_back(t.insert_s);
    erase_s.push_back(t.erase_s);
    query_ms.push_back(t.query_s * 1e3);
    update_ms.push_back((t.insert_s + t.erase_s) * 1e3);
    epoch_ms.push_back(t.round_s * 1e3);
    rss.push_back(static_cast<double>(process_rss_bytes()) / (1 << 20));
    chunks.push_back(static_cast<double>(g->arena_stats().reserved_slabs /
                                         sg::memory::SlabArena::kChunkSlabs));
  }
  const double loop_s = seconds_since(loop0);
  // Rates are per call, from the median call: a noisy-neighbour episode on
  // a shared box then moves the run's figure only if it covers half of it.
  const double insert_rate = sz.batch / median(insert_s) / 1e6;
  const double round_s = median(epoch_ms) / 1e3;
  const auto arena = g->arena_stats();
  const double bytes_per_edge =
      static_cast<double>(reserved_bytes(*g)) / static_cast<double>(g->num_edges());

  r.e2e("setup_s", median(setup_s), "s");
  r.e2e("insert_medges_s", insert_rate, "Medges/s");
  r.e2e("erase_medges_s", sz.batch / median(erase_s) / 1e6, "Medges/s");
  r.e2e("query_p50_ms", percentile(query_ms, 0.5), "ms");
  r.e2e("query_p90_ms", segmented_percentile(query_ms, 0.9, kTailSegments), "ms");
  r.e2e("update_p50_ms", percentile(update_ms, 0.5), "ms");
  r.e2e("update_p90_ms", segmented_percentile(update_ms, 0.9, kTailSegments), "ms");
  r.e2e("epoch_p50_ms", percentile(epoch_ms, 0.5), "ms");
  r.e2e("epoch_p90_ms", segmented_percentile(epoch_ms, 0.9, kTailSegments), "ms");
  r.e2e("served_ops_s", 3.0 / round_s, "1/s");
  r.e2e("replay_medges_s", 3.0 * sz.batch / round_s / 1e6, "Medges/s");
  r.e2e("bytes_per_edge", bytes_per_edge, "B/edge");
  r.e2e("steady_rss_mib", median(rss), "MiB");

  // The traced run repeats the churn at pool width 1 for the scaling ratio.
  double w1_rate = 0.0;
  if (opt.trace) {
    const std::uint32_t r1_rounds = std::max<std::uint32_t>(4, rounds / 4);
    pool.resize(1);
    double w1_insert_s = 0.0;
    for (std::uint32_t k = 0; k < r1_rounds; ++k) {
      w1_insert_s += round(false, false, true).insert_s;
    }
    pool.resize(kPoolThreads - 1);
    w1_rate = static_cast<double>(r1_rounds) * sz.batch / w1_insert_s / 1e6;
  }

  // ---- checks on the final state -----------------------------------------
  const std::uint64_t live_final = g->num_edges();
  r.check(live_final == sz.live, "final live-edge count");
  ref.check_graph(*g, r);
  const sg::core::GraphMemoryStats ms =
      opt.trace ? g->memory_stats() : sg::core::GraphMemoryStats{};
  const std::uint64_t rehash = g->auto_rehash_triggers();
  const std::uint32_t growths = g->dictionary_growths();

  // ---- crash and restart from a snapshot (this workload has no journal) ---
  const std::filesystem::path dir = std::filesystem::path(opt.work_dir) /
                                    ("engine_churn." + std::to_string(opt.seed));
  std::filesystem::create_directories(dir);
  const std::string snap = (dir / "graph.snap").string();
  const auto snap0 = Clock::now();
  const sg::persist::SnapshotStats snap_stats = sg::persist::snapshot(*g, snap);
  const double snapshot_s = seconds_since(snap0);
  ++r.attempted;
  g.reset();
  std::vector<double> recover_runs;
  for (std::uint32_t k = 0; k < kRecoveries; ++k) {
    g.reset();
    const auto rec0 = Clock::now();
    g = sg::persist::recover<sg::core::MapPolicy>(cfg, snap).graph;
    recover_runs.push_back(seconds_since(rec0));
    ++r.attempted;
  }
  std::filesystem::remove_all(dir);
  r.check(g->num_edges() == sz.live, "recovered live-edge count");
  ref.check_graph(*g, r);
  const double recover_s = median(recover_runs);
  r.e2e("recover_s", recover_s, "s");

  // ---- per-layer metrics -------------------------------------------------
  if (opt.trace) {
    SpanTotals totals;
    totals.add(trace);
    r.layer("core.engine.insert_call_s", totals.mean_self("core.engine.insert_call"), "s");
    r.layer("core.engine.erase_call_s", totals.mean_self("core.engine.erase_call"), "s");
    r.layer("core.engine.query_call_s", totals.mean_self("core.engine.query_call"), "s");
    r.layer("core.engine.stage_s", stage_s / rounds, "s");
    r.layer("core.engine.apply_s", apply_s / rounds, "s");
    r.layer("core.engine.overlap_frac", stage_s > 0 ? overlap_s / stage_s : 0.0, "frac");
    r.layer("core.engine.residual_s", residual_s / rounds, "s");
    r.layer("core.engine.erase_stage_s", erase_stage_s / rounds, "s");
    r.layer("core.engine.erase_apply_s", erase_apply_s / rounds, "s");
    r.layer("core.engine.w4_insert_medges_s", insert_rate, "Medges/s");
    r.layer("core.engine.w1_insert_medges_s", w1_rate, "Medges/s");
    r.layer("core.engine.scaling_4v1", insert_rate / w1_rate, "ratio");
    r.layer("core.engine.new_edge_ratio",
            static_cast<double>(new_edges) / static_cast<double>(attempted_edges), "ratio");
    r.layer("core.engine.rehash_triggers", static_cast<double>(rehash), "count");
    r.layer("core.dictionary.growths", static_cast<double>(growths), "count");
    report_slabs(r, ms);
    r.layer("memory.bytes_reserved", static_cast<double>(arena.bytes_reserved()), "bytes");
    r.layer("memory.chunks_max_over_min",
            percentile(chunks, 1.0) / percentile(chunks, 0.0), "ratio");
    r.layer("persist.snapshot_s", snapshot_s, "s");
    r.layer("persist.snapshot_bytes", static_cast<double>(snap_stats.file_bytes), "bytes");
    r.layer("persist.restore_s", recover_s, "s");
    r.layer("client.attempted", static_cast<double>(r.attempted), "count");
    r.layer("client.failed", static_cast<double>(r.failed), "count");
    r.layer("datasets.gen_s", gen_s, "s");
    finish_trace(r, totals, traced_units, untraced_units);
  }

  r.note_u("seed", opt.seed);
  r.note_u("pool_threads", kPoolThreads);
  r.note_u("pool_workers", kPoolThreads - 1);
  r.note_u("client_threads", 1);
  r.note_u("live_edges", sz.live);
  r.note_u("batch_edges", sz.batch);
  r.note_u("rounds", rounds);
  r.note_u("tail_segments", kTailSegments);
  r.note_u("warmup_rounds", warmup_rounds);
  r.note_u("setups", sz.setups);
  r.note_u("query_samples", query_ms.size());
  r.note_u("update_samples", update_ms.size());
  r.note_u("epoch_samples", epoch_ms.size());
  r.note_u("sampled_reference_vertices", ref.vertices());
  r.note("loop_s", loop_s);
  r.note("datasets_gen_s", gen_s);
  r.note("input_digest", std::to_string(digest.value()));
  r.note_u("exact.final_live_edges", live_final);
  r.note_u("exact.arena_reserved_slabs", arena.reserved_slabs);
  r.note("exact.bytes_per_edge", bytes_per_edge);
}

}  // namespace perfbench
