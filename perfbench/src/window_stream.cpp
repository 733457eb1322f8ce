// window_stream: stream::Harness replaying a seeded timestamped RMAT stream
// of 136 x 2^16 edges (about 8.9M) over 2^17 vertices in 2^16-edge epochs
// at pool width 4,
// with a sliding window of a quarter of the stream, compaction every 4
// slides, bfs_bulk from a seeded source in every epoch's analytics phase,
// and a write-ahead journal (journal_sync = kNone: records reach the page
// cache, never fsync). Set-up runs from harness construction until the
// window first fills; the remaining three quarters are measured. One
// submit_snapshot lands after three quarters of the stream. After the last
// epoch the graph is dropped without a shutdown snapshot and
// persist::recover rebuilds it from the snapshot plus the journal suffix.
// It is the only workload with aging as bulk erase, compaction, analytics
// fences and the journal on the hot path, and where memory must stay flat.
// The vertex space is 2^17, not 2^20: with 2^20 vertices most vertices fall
// back to degree 0 between epochs, and re-creating their tables makes an
// epoch take 0.4-0.6 s, which does not fit a run's time budget.
//
// Reference: the live window is, by DynoGraph's reference_impl semantics
// (insert newest-wins, delete_edges_older_than the window threshold), the
// stream suffix at or after the final threshold, deduplicated keeping the
// newest timestamp. It is computed from the generated stream alone.
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <vector>

#include <malloc.h>

#include "perfbench/src/common.hpp"
#include "perfbench/src/layers.hpp"
#include "src/analytics/bfs.hpp"
#include "src/analytics/frontier.hpp"
#include "src/memory/slab_arena.hpp"
#include "src/persist/recovery.hpp"
#include "src/persist/snapshot.hpp"
#include "src/simt/thread_pool.hpp"
#include "src/stream/harness.hpp"

namespace perfbench {
namespace {

using sg::core::DynGraphMap;
using sg::core::Edge;
using sg::core::Weight;
using sg::stream::TemporalEdge;

struct Sizes {
  std::uint32_t scale;  ///< 2^scale vertices
  std::uint32_t batch;
  std::uint32_t setups;
  double quarters_per_second;  ///< window-sized quarters of the stream
};

constexpr Sizes kFull{17, 1u << 16, 3, 3.4};
constexpr Sizes kTiny{10, 1u << 9, 2, 0.8};
/// Pool width 4: three workers plus the graph's conductor thread, which
/// runs chunks of the phases it drives, so the busy threads never exceed
/// the 4 vCPUs.
constexpr unsigned kPoolThreads = 4;
constexpr std::uint32_t kCompactEvery = 4;
constexpr std::uint32_t kRecoveries = 3;
/// Measured epochs are traced in alternating blocks of kCompactEvery, so
/// traced and untraced blocks hold the same share of compactions.
constexpr std::uint32_t kTraceBlock = kCompactEvery;

/// Seeded RMAT stream (a = 0.57, b = c = 0.19, d = 0.05; each level draws
/// 16 bits of a 64-bit word), vertex ids scrambled by an odd multiplier,
/// timestamp = arrival position + 1.
std::vector<TemporalEdge> make_stream(std::uint32_t scale, std::uint64_t edges,
                                      std::uint64_t seed, Digest& digest) {
  constexpr std::uint32_t kA = 37355, kAB = 49807, kABC = 62259;  // x 2^-16
  Rng rng(splitmix64(seed ^ 0x57AEu));
  const std::uint32_t mask = (1u << scale) - 1;
  const std::uint32_t mul = static_cast<std::uint32_t>(splitmix64(seed) | 1);
  std::vector<TemporalEdge> out;
  out.reserve(edges);
  for (std::uint64_t i = 0; i < edges; ++i) {
    std::uint32_t u = 0, v = 0;
    std::uint64_t bits = 0;
    for (std::uint32_t level = 0; level < scale; ++level) {
      if (level % 4 == 0) bits = rng.next();
      const auto p = static_cast<std::uint32_t>(bits & 0xFFFF);
      bits >>= 16;
      u = u << 1 | (p >= kAB ? 1u : 0u);
      v = v << 1 | ((p >= kA && p < kAB) || p >= kABC ? 1u : 0u);
    }
    u = (u * mul) & mask;
    v = (v * mul) & mask;
    out.push_back({u, v, static_cast<Weight>(i + 1)});
    digest.add(std::uint64_t{u} << 32 | v);
  }
  return out;
}

/// The reference window: (src, dst) -> newest timestamp over stream
/// positions [first, end), self-loops dropped; sorted by key.
std::vector<std::pair<std::uint64_t, Weight>> reference_window(
    const std::vector<TemporalEdge>& stream, std::size_t first) {
  std::vector<std::pair<std::uint64_t, Weight>> ref;
  ref.reserve(stream.size() - first);
  for (std::size_t i = first; i < stream.size(); ++i) {
    const TemporalEdge& e = stream[i];
    if (e.src != e.dst) ref.push_back({std::uint64_t{e.src} << 32 | e.dst, e.ts});
  }
  std::sort(ref.begin(), ref.end());
  std::vector<std::pair<std::uint64_t, Weight>> out;
  out.reserve(ref.size());
  for (const auto& kv : ref) {
    if (!out.empty() && out.back().first == kv.first) {
      out.back().second = std::max(out.back().second, kv.second);
    } else {
      out.push_back(kv);
    }
  }
  return out;
}

/// Exact equality of `g` with the reference window, weights included.
void check_against(const DynGraphMap& g,
                   const std::vector<std::pair<std::uint64_t, Weight>>& ref,
                   const char* which, Result& r) {
  r.check(g.num_edges() == ref.size(), std::string(which) + ": live count differs");
  std::vector<Edge> q;
  q.reserve(ref.size());
  for (const auto& kv : ref) {
    q.push_back({static_cast<std::uint32_t>(kv.first >> 32),
                 static_cast<std::uint32_t>(kv.first)});
  }
  std::vector<Weight> w(q.size(), 0);
  std::vector<std::uint8_t> found(q.size(), 0);
  g.edge_weights(q, w.data(), found.data());
  for (std::size_t i = 0; i < q.size(); ++i) {
    if (found[i] == 0 || w[i] != ref[i].second) {
      r.check(false, std::string(which) + ": edge or timestamp differs");
      break;
    }
  }
}

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

}  // namespace

void run_window_stream(const Options& opt, Result& r) {
  const Sizes& sz = opt.tiny ? kTiny : kFull;
  const std::uint32_t quarter = std::max<std::uint32_t>(
      4, static_cast<std::uint32_t>(std::llround(opt.seconds * sz.quarters_per_second)));
  const std::uint32_t fill_epochs = quarter;
  const std::uint32_t total_epochs = 4 * quarter;
  const std::uint32_t snapshot_after = 3 * quarter - 1;
  const std::uint64_t stream_edges = std::uint64_t{total_epochs} * sz.batch;
  const double window_frac = 0.25;
  sg::simt::ThreadPool::instance().resize(kPoolThreads - 1);

  Digest digest;
  double gen_s = 0.0;
  const auto gen0 = Clock::now();
  const sg::stream::Dataset dataset(
      make_stream(sz.scale, stream_edges, opt.seed, digest), sz.batch);
  gen_s += seconds_since(gen0);
  const std::vector<TemporalEdge>& stream = dataset.edges();

  const std::filesystem::path dir = std::filesystem::path(opt.work_dir) /
                                    ("window_stream." + std::to_string(opt.seed));
  std::filesystem::create_directories(dir);
  const std::string journal = (dir / "journal.wal").string();
  const std::string snap = (dir / "graph.snap").string();

  sg::stream::HarnessConfig hc;
  hc.sort_mode = sg::stream::SortMode::kPresort;
  hc.window_frac = window_frac;
  hc.compact_every = kCompactEvery;
  hc.graph.vertex_capacity = 1u << sz.scale;
  hc.graph.journal_path = journal;
  hc.graph.journal_sync = sg::core::JournalSyncPolicy::kNone;

  Trace trace(false);
  Rng source_rng(splitmix64(opt.seed ^ 0xBF5u));
  std::atomic<std::uint64_t> gathered{0};
  double bfs_s = 0.0;
  std::uint64_t bfs_runs = 0;
  sg::core::VertexId source = 0;
  bool bfs_ok = true;
  const sg::stream::Harness::AnalyticsHook hook = [&](const DynGraphMap& g) {
    Scoped span(trace, "analytics.bfs");
    const sg::analytics::BulkNeighborFn gather =
        [&g, &gathered](std::span<const sg::core::VertexId> sources,
                        std::vector<std::uint64_t>& offsets,
                        std::vector<sg::core::VertexId>& neighbors) {
          g.gather_neighbors(sources, offsets, neighbors);
          gathered.fetch_add(neighbors.size(), std::memory_order_relaxed);
        };
    const auto t0 = Clock::now();
    const std::vector<std::uint32_t> dist =
        sg::analytics::bfs_bulk(g.vertex_capacity(), gather, source);
    bfs_s += seconds_since(t0);
    ++bfs_runs;
    bfs_ok = bfs_ok && dist[source] == 0;
  };
  const auto pick_source = [&](std::size_t epoch) {
    source = stream[epoch * sz.batch + source_rng.below(sz.batch)].src;
  };

  // ---- set-up: construction until the window first fills ------------------
  // The measured harness is the first one built, so the RSS baseline taken
  // just before it (inputs in place, no harness alive) holds no memory left
  // behind by an earlier harness. The other set-up timings come from extra
  // harnesses built at the end of the run.
  std::vector<double> setup_s;
  const auto set_up = [&](sg::stream::Dataset input) {
    std::filesystem::remove(journal);
    source_rng = Rng(splitmix64(opt.seed ^ 0xBF5u));
    const auto t0 = Clock::now();
    auto harness = std::make_unique<sg::stream::Harness>(std::move(input), hc);
    for (std::uint32_t e = 0; e < fill_epochs; ++e) {
      pick_source(e);
      ++r.attempted;
      harness->run_epoch(e, hook);
    }
    setup_s.push_back(seconds_since(t0));
    return harness;
  };
  sg::stream::Dataset input = dataset;
  malloc_trim(0);
  const std::uint64_t rss_base = process_rss_bytes();
  std::unique_ptr<sg::stream::Harness> h = set_up(std::move(input));
  gathered = 0;
  bfs_s = 0.0;
  bfs_runs = 0;

  // ---- measured epochs ----------------------------------------------------
  std::vector<double> epoch_ms, query_ms, update_ms, rss_mib, chunks, traced_units,
      untraced_units, insert_rate, erase_rate, ops_rate;
  double insert_s = 0, age_s = 0, compact_s = 0, erase_stage_s = 0, erase_apply_s = 0;
  std::uint64_t aged = 0, live_sum = 0, released = 0, compactions = 0;
  std::uint64_t inserted = 0, offered = 0;
  double snapshot_s = 0.0;
  for (std::uint32_t k = 0; k + fill_epochs < total_epochs; ++k) {
    const std::uint32_t id = fill_epochs + k;
    const bool traced = opt.trace && (k / kTraceBlock) % 2 == 0;
    pick_source(id);
    trace.set_enabled(traced);
    sg::stream::EpochStats es;
    double epoch_s = 0.0;
    ++r.attempted;
    {
      Scoped unit(trace, "unit.epoch", id);
      if (traced) {
        Scoped s(trace, "stream.prepare", id);
        (void)dataset.batch(id, sg::stream::SortMode::kPresort);
      }
      Scoped s(trace, "stream.run_epoch", id);
      const auto t0 = Clock::now();
      try {
        es = h->run_epoch(id, hook);
      } catch (const std::exception& e) {
        ++r.failed;
        std::fprintf(stderr, "window_stream: epoch %u failed: %s\n", id, e.what());
      }
      epoch_s = seconds_since(t0);
    }
    trace.set_enabled(false);
    (traced ? traced_units : untraced_units).push_back(epoch_s);
    const sg::core::BatchPipelineStats bs = h->graph().last_batch_stats();
    erase_stage_s += bs.stage_seconds;
    erase_apply_s += bs.apply_seconds;
    epoch_ms.push_back(epoch_s * 1e3);
    rss_mib.push_back((static_cast<double>(es.rss_bytes) - static_cast<double>(rss_base)) /
                      (1 << 20));
    chunks.push_back(static_cast<double>(es.arena_chunks));
    query_ms.push_back(es.analytics_seconds * 1e3);
    // One update sample per epoch: its ingest, age-out and compaction.
    update_ms.push_back((es.insert_seconds + es.age_seconds + es.compact_seconds) * 1e3);
    const std::uint64_t epoch_edges =
        std::min<std::uint64_t>(sz.batch, stream_edges - std::uint64_t{id} * sz.batch);
    insert_rate.push_back(static_cast<double>(epoch_edges) / es.insert_seconds / 1e6);
    if (es.age_seconds > 0.0) {
      erase_rate.push_back(static_cast<double>(es.aged_out) / es.age_seconds / 1e6);
    }
    ops_rate.push_back((es.compact_seconds > 0.0 ? 4.0 : 3.0) / epoch_s);
    insert_s += es.insert_seconds;
    age_s += es.age_seconds;
    compact_s += es.compact_seconds;
    compactions += es.compact_seconds > 0.0 ? 1 : 0;
    aged += es.aged_out;
    live_sum += es.live_edges;
    released += es.released_chunks;
    inserted += es.inserted;
    offered += epoch_edges;
    if (id == snapshot_after) {
      trace.set_enabled(opt.trace);
      {
        Scoped unit(trace, "unit.snapshot");
        Scoped s(trace, "persist.snapshot");
        const auto t0 = Clock::now();
        ++r.attempted;
        try {
          h->graph().submit_snapshot(snap).get();
        } catch (const std::exception& e) {
          ++r.failed;
          std::fprintf(stderr, "window_stream: snapshot failed: %s\n", e.what());
        }
        snapshot_s = seconds_since(t0);
      }
      trace.set_enabled(false);
    }
  }
  const std::uint32_t measured = total_epochs - fill_epochs;

  // ---- checks, crash and recovery ----------------------------------------
  const auto window_edges =
      static_cast<std::size_t>(window_frac * static_cast<double>(stream_edges));
  const auto ref = reference_window(stream, stream_edges - window_edges);
  const DynGraphMap& live = h->graph();
  check_against(live, ref, "live graph vs reference window", r);
  r.check(bfs_ok, "bfs distance of the source is not 0");
  const std::uint64_t live_final = live.num_edges();
  const auto arena = live.arena_stats();
  const double bytes_per_edge =
      static_cast<double>(reserved_bytes(live)) / static_cast<double>(live_final);
  const sg::core::PhaseScheduleStats ps = live.last_schedule_stats();
  const std::uint64_t rehash = live.auto_rehash_triggers();
  const std::uint32_t growths = live.dictionary_growths();
  const sg::core::GraphMemoryStats ms =
      opt.trace ? live.memory_stats() : sg::core::GraphMemoryStats{};
  const std::uint64_t journal_bytes = file_bytes(journal);
  const std::uint64_t snapshot_bytes = file_bytes(snap);

  h.reset();  // the crash: no shutdown snapshot, the journal stays as written
  std::vector<double> recover_runs;
  std::uint64_t replayed = 0;
  for (std::uint32_t k = 0; k < kRecoveries; ++k) {
    sg::core::GraphConfig rc = hc.graph;
    rc.vertex_capacity = std::max(rc.vertex_capacity, dataset.max_vertex_id() + 1);
    trace.set_enabled(opt.trace);
    sg::persist::RecoveredMap rec;
    {
      Scoped unit(trace, "unit.recover");
      Scoped s(trace, "persist.recover");
      const auto t0 = Clock::now();
      ++r.attempted;
      rec = sg::persist::recover<sg::core::MapPolicy>(rc, snap);
      recover_runs.push_back(seconds_since(t0));
    }
    trace.set_enabled(false);
    replayed = rec.stats.replayed_records;
    r.check(rec.stats.snapshot_loaded, "recovery did not load the snapshot");
    check_against(*rec.graph, ref, "recovered graph vs pre-crash graph", r);
  }
  const double recover_s = median(recover_runs);

  // Rates come from per-epoch medians: a noisy-neighbour episode on a
  // shared box moves them only if it covers half the measured epochs.
  r.e2e("insert_medges_s", median(insert_rate), "Medges/s");
  r.e2e("erase_medges_s", median(erase_rate), "Medges/s");
  r.e2e("update_p50_ms", percentile(update_ms, 0.5), "ms");
  r.e2e("update_p90_ms", percentile(update_ms, 0.9), "ms");
  r.e2e("query_p50_ms", percentile(query_ms, 0.5), "ms");
  r.e2e("query_p90_ms", percentile(query_ms, 0.9), "ms");
  r.e2e("served_ops_s", median(ops_rate), "1/s");
  r.e2e("replay_medges_s", sz.batch / (median(epoch_ms) / 1e3) / 1e6, "Medges/s");
  r.e2e("epoch_p50_ms", percentile(epoch_ms, 0.5), "ms");
  r.e2e("epoch_p90_ms", percentile(epoch_ms, 0.9), "ms");
  r.e2e("recover_s", recover_s, "s");
  r.e2e("bytes_per_edge", bytes_per_edge, "B/edge");
  r.e2e("steady_rss_mib", median(rss_mib), "MiB");

  if (opt.trace) {
    // Standalone re-run of recovery's two steps, for the per-layer split.
    sg::core::GraphConfig rc = hc.graph;
    rc.journal_path.clear();
    rc.vertex_capacity = std::max(rc.vertex_capacity, dataset.max_vertex_id() + 1);
    DynGraphMap g2(rc);
    const auto t0 = Clock::now();
    sg::persist::restore_into(g2, snap);
    const double restore_s = seconds_since(t0);
    const auto t1 = Clock::now();
    sg::persist::replay_journal(g2, journal);
    const double replay_journal_s = seconds_since(t1);
    check_against(g2, ref, "standalone restore + replay vs reference", r);

    SpanTotals totals;
    totals.add(trace);
    r.layer("core.engine.erase_stage_s", erase_stage_s / measured, "s");
    r.layer("core.engine.erase_apply_s", erase_apply_s / measured, "s");
    r.layer("core.engine.new_edge_ratio",
            static_cast<double>(inserted) / static_cast<double>(offered), "ratio");
    r.layer("core.engine.rehash_triggers", static_cast<double>(rehash), "count");
    r.layer("core.dictionary.growths", static_cast<double>(growths), "count");
    report_slabs(r, ms);
    r.layer("memory.bytes_reserved", static_cast<double>(arena.bytes_reserved()), "bytes");
    r.layer("memory.chunks_max_over_min",
            percentile(chunks, 1.0) / percentile(chunks, 0.0), "ratio");
    r.layer("memory.released_chunks", static_cast<double>(released), "count");
    r.layer("memory.compact_s", compactions ? compact_s / compactions : 0.0, "s");
    report_scheduler(r, ps);
    r.layer("stream.prepare_s", totals.mean_self("stream.prepare"), "s");
    r.layer("stream.insert_s", insert_s / measured, "s");
    r.layer("stream.age_s", age_s / measured, "s");
    r.layer("stream.aged_over_live",
            static_cast<double>(aged) / (static_cast<double>(live_sum) / measured), "ratio");
    r.layer("analytics.bfs_s", bfs_runs ? bfs_s / bfs_runs : 0.0, "s");
    r.layer("analytics.gathered_edges_per_s",
            bfs_s > 0 ? static_cast<double>(gathered.load()) / bfs_s : 0.0, "1/s");
    r.layer("persist.journal_bytes_per_user_byte",
            static_cast<double>(journal_bytes) /
                (static_cast<double>(stream_edges) * sizeof(sg::core::WeightedEdge)),
            "ratio");
    r.layer("persist.snapshot_s", snapshot_s, "s");
    r.layer("persist.snapshot_bytes", static_cast<double>(snapshot_bytes), "bytes");
    r.layer("persist.restore_s", restore_s, "s");
    r.layer("persist.replay_s", replay_journal_s, "s");
    r.layer("persist.replayed_records", static_cast<double>(replayed), "count");
    r.layer("client.attempted", static_cast<double>(r.attempted), "count");
    r.layer("client.failed", static_cast<double>(r.failed), "count");
    r.layer("datasets.gen_s", gen_s, "s");
    finish_trace(r, totals, traced_units, untraced_units);
  }
  for (std::uint32_t k = 1; k < sz.setups; ++k) set_up(dataset);
  std::filesystem::remove_all(dir);
  std::fprintf(stderr, "window_stream: set-up %.3f s (median of %zu)\n",
               median(setup_s), setup_s.size());
  r.e2e("setup_s", median(setup_s), "s");

  r.note_u("seed", opt.seed);
  r.note_u("pool_threads", kPoolThreads);
  r.note_u("pool_workers", kPoolThreads - 1);
  r.note_u("client_threads", 1);
  r.note_u("stream_edges", stream_edges);
  r.note_u("epoch_edges", sz.batch);
  r.note_u("fill_epochs", fill_epochs);
  r.note_u("measured_epochs", measured);
  r.note_u("snapshot_after_epoch", snapshot_after);
  r.note("window_frac", window_frac);
  r.note_u("compact_every", kCompactEvery);
  r.note("journal_sync", std::string("kNone"));
  r.note_u("setups", sz.setups);
  r.note_u("epoch_samples", epoch_ms.size());
  r.note_u("query_samples", query_ms.size());
  r.note_u("update_samples", update_ms.size());
  r.note("datasets_gen_s", gen_s);
  r.note("input_digest", std::to_string(digest.value()));
  r.note_u("exact.final_live_edges", live_final);
  r.note("exact.bytes_per_edge", bytes_per_edge);
  r.note_u("exact.replayed_records", replayed);
  r.note_u("exact.journal_bytes", journal_bytes);
}

}  // namespace perfbench
