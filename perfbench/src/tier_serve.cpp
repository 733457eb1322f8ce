// tier_serve: a 4-shard ShardedGraphMap on the scheduled API at pool width
// 2, preloaded with 2^21 edges (about 60 MB, inside a 300 MiB L3). Two
// client threads run a closed loop, each waiting on its future before the
// next request, for a fixed number of requests:
//   - 512-edge updates: insert fresh edges, or erase the client's oldest
//     inserted batch;
//   - 2048-edge submit_edges_exist queries, half on the never-mutated
//     preload and half on guaranteed misses, so every answer is known
//     under any interleaving;
//   - one submit_analytics edge-count cut every 1000 requests.
// Small batches stay below one pipeline epoch, so time goes to routing,
// admission, phase switching and fences rather than the engine's
// pipelining. Closed rather than open loop: on a shared 4-vCPU box an
// open-loop generator's own lateness swamps the program's latency.
#include <cstdio>
#include <deque>
#include <filesystem>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "perfbench/src/common.hpp"
#include "perfbench/src/layers.hpp"
#include "src/core/errors.hpp"
#include "src/persist/snapshot.hpp"
#include "src/shard/batch_router.hpp"
#include "src/shard/sharded_graph.hpp"
#include "src/simt/thread_pool.hpp"

namespace perfbench {
namespace {

using sg::core::Edge;
using sg::core::Weight;
using sg::core::WeightedEdge;
using Tier = sg::shard::ShardedGraphMap;

struct Sizes {
  std::uint32_t vertex_bits;
  std::uint64_t preload;
  std::uint32_t update;
  std::uint32_t query;
  std::uint32_t cut_every;
  std::uint32_t setups;
  double requests_per_second;  ///< per client
};

constexpr Sizes kFull{18, std::uint64_t{1} << 21, 512, 2048, 1000, 5, 2000.0};
constexpr Sizes kTiny{10, std::uint64_t{1} << 12, 64, 256, 50, 2, 20.0};
constexpr unsigned kPoolWidth = 2;
constexpr unsigned kClients = 2;
constexpr std::uint32_t kShards = 4;
constexpr std::uint32_t kRecoveries = 3;
/// Outstanding inserted batches a client keeps: below kMinHeld it always
/// inserts, above kMaxHeld it always erases, in between it flips a coin.
constexpr std::size_t kMinHeld = 8;
constexpr std::size_t kMaxHeld = 24;
/// An "epoch" of this workload: a block of consecutive requests of one
/// client. Its time is the sum of those requests' latencies (submit to
/// resolved future), so input generation, answer checks and RSS sampling
/// between requests stay out of it.
constexpr std::uint32_t kEpochRequests = 32;
/// Tails are the median of the p90s of the run's nine time slices (about
/// 140 blocks or 2200 requests each at --seconds 10, so at least 10 beyond
/// each p90). A block's p90 tracks how many blocks hold a descheduling
/// stall, so an episode of interference from other tenants moves a
/// whole-run p90 by up to 40%; one that covers fewer than half the slices
/// does not move this one.
constexpr std::size_t kTailSegments = 9;

struct Client {
  explicit Client(std::uint64_t seed) : rng(seed), trace(false) {}
  Rng rng;
  Trace trace;
  Digest digest;
  std::uint64_t next_fresh = 0;
  std::deque<std::vector<WeightedEdge>> held;
  std::deque<std::vector<WeightedEdge>> recently_erased;
  std::vector<double> update_ms, query_ms, insert_s, erase_s, traced_units, untraced_units,
      rss_mib;
  std::vector<double> epoch_ms;      ///< summed request latency of each block
  std::vector<double> epoch_medges;  ///< edges carried per block, per second
  std::uint64_t attempted = 0, failed = 0, inserted = 0, erased = 0, block_edges = 0;
  double block_s = 0.0;
  double gen_s = 0.0;
  double end_s = 0.0;
  std::vector<std::string> mismatches;
};

}  // namespace

void run_tier_serve(const Options& opt, Result& r) {
  const Sizes& sz = opt.tiny ? kTiny : kFull;
  const std::uint32_t requests = std::max<std::uint32_t>(
      100, static_cast<std::uint32_t>(std::llround(opt.seconds * sz.requests_per_second)));
  sg::simt::ThreadPool::instance().resize(kPoolWidth);

  const EdgeCodec codec(sz.vertex_bits, opt.seed);
  const std::uint64_t limit = codec.index_limit();
  const auto edge = [&codec](std::uint64_t i) {
    const auto [u, v] = codec.encode(i);
    return WeightedEdge{u, v, static_cast<Weight>(i)};
  };

  // ---- set-up: a fresh tier preloaded through the sync path, repeated -----
  double gen_s = 0.0;
  std::vector<WeightedEdge> preload;
  Digest preload_digest;
  {
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < sz.preload; ++i) {
      if (codec.is_loop(i)) continue;
      preload.push_back(edge(i));
      preload_digest.add(std::uint64_t{preload.back().src} << 32 | preload.back().dst);
    }
    gen_s += seconds_since(t0);
  }
  const std::uint64_t preload_live = preload.size();
  sg::shard::ShardConfig cfg;
  cfg.shard_count = kShards;
  cfg.graph.vertex_capacity = 1u << sz.vertex_bits;
  std::unique_ptr<Tier> tier;
  std::vector<double> setup_s;
  for (std::uint32_t s = 0; s < sz.setups; ++s) {
    tier.reset();
    const auto t0 = Clock::now();
    tier = std::make_unique<Tier>(cfg);
    tier->insert_edges(preload);
    setup_s.push_back(seconds_since(t0));
    ++r.attempted;
    r.check(tier->num_edges() == preload_live, "preload live count");
  }
  preload.clear();
  preload.shrink_to_fit();
  std::fprintf(stderr, "tier_serve: set-up %.3f s (median of %zu)\n",
               median(setup_s), setup_s.size());

  // ---- closed loop --------------------------------------------------------
  std::vector<std::unique_ptr<Client>> clients;
  for (unsigned c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<Client>(splitmix64(opt.seed * 31 + c + 1)));
    clients.back()->next_fresh = limit / 4 + c * (limit / 16);
  }
  std::latch start(kClients + 1);
  Clock::time_point loop0;

  // A scheduled mutation resolves to the count of its coalesced group on
  // each shard, summed over shards. Every edge of an update is applied (fresh
  // on insert, held on erase), and at most one same-kind update per client
  // can share its groups, so the count lies in [update, clients x update].
  const auto group_count_ok = [&sz](std::uint64_t n) {
    return n >= sz.update && n <= std::uint64_t{kClients} * sz.update;
  };
  const auto client_main = [&](unsigned c) {
    Client& cl = *clients[c];
    const bool traced_run = opt.trace;
    std::vector<WeightedEdge> batch;
    std::vector<Edge> probes;
    std::vector<std::uint8_t> found;
    start.arrive_and_wait();
    for (std::uint32_t k = 0; k < requests; ++k) {
      const std::uint64_t request_id = (std::uint64_t{c} << 32) | k;
      const bool cut = k % sz.cut_every == sz.cut_every - 1;
      const bool traced = traced_run && (cut || k % 2 == 0);
      // Generate this request's input outside every timed span.
      const auto g0 = Clock::now();
      enum class Kind { kInsert, kErase, kQuery, kCut } kind = Kind::kCut;
      if (!cut) {
        if (cl.rng.below(2) == 0) {
          kind = Kind::kQuery;
        } else if (cl.held.size() < kMinHeld) {
          kind = Kind::kInsert;
        } else if (cl.held.size() > kMaxHeld) {
          kind = Kind::kErase;
        } else {
          kind = cl.rng.below(2) == 0 ? Kind::kInsert : Kind::kErase;
        }
      }
      if (kind == Kind::kInsert) {
        batch.clear();
        while (batch.size() < sz.update) {
          if (!codec.is_loop(cl.next_fresh)) batch.push_back(edge(cl.next_fresh));
          ++cl.next_fresh;
        }
        for (const WeightedEdge& e : batch) cl.digest.add(std::uint64_t{e.src} << 32 | e.dst);
      } else if (kind == Kind::kErase) {
        probes.clear();
        for (const WeightedEdge& e : cl.held.front()) probes.push_back({e.src, e.dst});
        cl.digest.add(0xE7A5Eull);
      } else if (kind == Kind::kQuery) {
        probes.clear();
        for (std::uint32_t q = 0; q < sz.query; ++q) {
          std::uint64_t i;
          do {
            i = q % 2 == 0 ? cl.rng.below(sz.preload)
                           : limit / 2 + cl.rng.below(limit / 2);
          } while (codec.is_loop(i));
          const WeightedEdge e = edge(i);
          probes.push_back({e.src, e.dst});
          cl.digest.add(std::uint64_t{e.src} << 32 | e.dst);
        }
      } else {
        cl.digest.add(0xC07ull);
      }
      cl.gen_s += seconds_since(g0);

      cl.trace.set_enabled(traced);
      ++cl.attempted;
      double latency_s = 0.0;
      bool ok = true;
      found.clear();
      {
        Scoped unit(cl.trace, "unit.request", request_id);
        try {
          if (kind == Kind::kInsert) {
            if (traced) {
              Scoped s(cl.trace, "shard.route", request_id);
              (void)sg::shard::route_inserts(batch, kShards, false);
            }
            const auto t0 = Clock::now();
            std::future<std::uint64_t> f;
            {
              Scoped s(cl.trace, "shard.submit_call", request_id);
              f = tier->submit_insert(batch);
            }
            std::uint64_t added = 0;
            {
              Scoped s(cl.trace, "shard.resolve_wait", request_id);
              added = f.get();
            }
            latency_s = seconds_since(t0);
            if (!group_count_ok(added)) {
              cl.mismatches.push_back("insert group count " + std::to_string(added) +
                                      " is not every fresh edge");
            }
            cl.held.push_back(batch);
            ++cl.inserted;
          } else if (kind == Kind::kErase) {
            if (traced) {
              Scoped s(cl.trace, "shard.route", request_id);
              (void)sg::shard::route_erases(probes, kShards, false);
            }
            const auto t0 = Clock::now();
            std::future<std::uint64_t> f;
            {
              Scoped s(cl.trace, "shard.submit_call", request_id);
              f = tier->submit_erase(probes);
            }
            std::uint64_t removed = 0;
            {
              Scoped s(cl.trace, "shard.resolve_wait", request_id);
              removed = f.get();
            }
            latency_s = seconds_since(t0);
            if (!group_count_ok(removed)) {
              cl.mismatches.push_back("erase group count " + std::to_string(removed) +
                                      " is not the held batch");
            }
            cl.recently_erased.push_back(std::move(cl.held.front()));
            cl.held.pop_front();
            if (cl.recently_erased.size() > 4) cl.recently_erased.pop_front();
            ++cl.erased;
          } else if (kind == Kind::kQuery) {
            if (traced) {
              Scoped s(cl.trace, "shard.route", request_id);
              (void)sg::shard::route_queries(probes, kShards);
            }
            const auto t0 = Clock::now();
            std::future<std::vector<std::uint8_t>> f;
            {
              Scoped s(cl.trace, "shard.submit_call", request_id);
              f = tier->submit_edges_exist(probes);
            }
            {
              Scoped s(cl.trace, "shard.resolve_wait", request_id);
              found = f.get();
            }
            latency_s = seconds_since(t0);
          } else {
            std::uint64_t live = 0;
            const auto t0 = Clock::now();
            {
              Scoped s(cl.trace, "shard.fence", request_id);
              tier->submit_analytics([&tier, &live] {
                    for (std::uint32_t i = 0; i < kShards; ++i) live += tier->shard(i).num_edges();
                  }).get();
            }
            latency_s = seconds_since(t0);
            if (live < preload_live || (live - preload_live) % sz.update != 0) {
              cl.mismatches.push_back("fenced cut is not preload + whole batches");
            }
          }
        } catch (const std::exception& e) {
          ok = false;
          ++cl.failed;
          std::fprintf(stderr, "tier_serve: request failed: %s\n", e.what());
        }
      }
      cl.trace.set_enabled(false);
      if (kind == Kind::kQuery && ok) {
        if (found.size() != probes.size()) {
          cl.mismatches.push_back("query answered a different number of probes");
          found.clear();
        }
        for (std::size_t q = 0; q < found.size(); ++q) {
          const bool want = probes[q].src != probes[q].dst &&
                            codec.decode(probes[q].src, probes[q].dst) < sz.preload;
          if ((found[q] != 0) != want && cl.mismatches.size() < 4) {
            cl.mismatches.push_back("query answer differs from oracle");
          }
        }
      }
      if (kind == Kind::kInsert || kind == Kind::kErase) {
        cl.update_ms.push_back(latency_s * 1e3);
        (kind == Kind::kInsert ? cl.insert_s : cl.erase_s).push_back(latency_s);
        cl.block_edges += sz.update;
      } else if (kind == Kind::kQuery) {
        cl.query_ms.push_back(latency_s * 1e3);
        cl.block_edges += sz.query;
      }
      cl.block_s += latency_s;
      if (k % kEpochRequests == kEpochRequests - 1) {
        cl.epoch_ms.push_back(cl.block_s * 1e3);
        cl.epoch_medges.push_back(static_cast<double>(cl.block_edges) / cl.block_s / 1e6);
        cl.block_edges = 0;
        cl.block_s = 0.0;
      }
      if (kind != Kind::kCut) {
        (traced ? cl.traced_units : cl.untraced_units).push_back(latency_s);
      }
      if (c == 0 && k % 256 == 0) {
        cl.rss_mib.push_back(static_cast<double>(process_rss_bytes()) / (1 << 20));
      }
    }
    cl.end_s = seconds_since(loop0);
  };

  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kClients; ++c) threads.emplace_back(client_main, c);
  loop0 = Clock::now();
  start.arrive_and_wait();
  for (std::thread& t : threads) t.join();
  double loop_s = 0.0;
  for (const auto& cl : clients) loop_s = std::max(loop_s, cl->end_s);
  tier->drain();

  // ---- aggregate ----------------------------------------------------------
  std::vector<double> update_ms, query_ms, insert_s, erase_s, epoch_ms, epoch_medges, rss_mib,
      traced_units, untraced_units;
  // Per-client streams in request order, for the time-sliced tails.
  std::vector<std::vector<double>> update_streams, query_streams, epoch_streams;
  std::uint64_t inserted = 0, erased = 0, held_batches = 0;
  Digest digest;
  digest.add(preload_digest.value());
  for (const auto& cl : clients) {
    update_ms.insert(update_ms.end(), cl->update_ms.begin(), cl->update_ms.end());
    query_ms.insert(query_ms.end(), cl->query_ms.begin(), cl->query_ms.end());
    epoch_ms.insert(epoch_ms.end(), cl->epoch_ms.begin(), cl->epoch_ms.end());
    epoch_medges.insert(epoch_medges.end(), cl->epoch_medges.begin(), cl->epoch_medges.end());
    update_streams.push_back(cl->update_ms);
    query_streams.push_back(cl->query_ms);
    epoch_streams.push_back(cl->epoch_ms);
    insert_s.insert(insert_s.end(), cl->insert_s.begin(), cl->insert_s.end());
    erase_s.insert(erase_s.end(), cl->erase_s.begin(), cl->erase_s.end());
    rss_mib.insert(rss_mib.end(), cl->rss_mib.begin(), cl->rss_mib.end());
    traced_units.insert(traced_units.end(), cl->traced_units.begin(), cl->traced_units.end());
    untraced_units.insert(untraced_units.end(), cl->untraced_units.begin(),
                          cl->untraced_units.end());
    inserted += cl->inserted;
    erased += cl->erased;
    held_batches += cl->held.size();
    r.attempted += cl->attempted;
    r.failed += cl->failed;
    gen_s += cl->gen_s;
    digest.add(cl->digest.value());
    for (const std::string& m : cl->mismatches) r.check(false, m);
  }
  rss_mib.push_back(static_cast<double>(process_rss_bytes()) / (1 << 20));

  // ---- checks on the drained tier ----------------------------------------
  const std::uint64_t live_final = tier->num_edges();
  r.check(live_final == preload_live + held_batches * sz.update,
          "final live count is not preload + held batches");
  std::uint64_t reserved = 0, arena_bytes = 0, rehash = 0, growths = 0;
  sg::core::GraphMemoryStats ms;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    const Tier::Graph& shard = tier->shard(s);
    reserved += reserved_bytes(shard);
    arena_bytes += shard.arena_stats().bytes_reserved();
    rehash += shard.auto_rehash_triggers();
    growths += shard.dictionary_growths();
    if (opt.trace) {
      const sg::core::GraphMemoryStats m = shard.memory_stats();
      ms.live_edges += m.live_edges;
      ms.slots += m.slots;
      ms.base_slabs += m.base_slabs;
      ms.overflow_slabs += m.overflow_slabs;
    }
  }
  const double bytes_per_edge =
      static_cast<double>(reserved) / static_cast<double>(live_final);
  const sg::shard::TierStats ts = tier->tier_stats();
  const sg::shard::RouterStats rs = tier->router_stats();

  // ---- crash and restart from a tier snapshot (no journal here) -----------
  const std::filesystem::path dir = std::filesystem::path(opt.work_dir) /
                                    ("tier_serve." + std::to_string(opt.seed));
  std::filesystem::create_directories(dir);
  const std::string prefix = (dir / "tier.snap").string();
  const auto snap0 = Clock::now();
  ++r.attempted;
  tier->submit_snapshot(prefix).get();
  const double snapshot_s = seconds_since(snap0);
  std::uint64_t snapshot_bytes = 0;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    snapshot_bytes += std::filesystem::file_size(Tier::shard_snapshot_path(prefix, s));
  }
  std::vector<double> recover_runs;
  for (std::uint32_t k = 0; k < kRecoveries; ++k) {
    tier.reset();
    const auto rec0 = Clock::now();
    ++r.attempted;
    tier = std::make_unique<Tier>(cfg);
    for (std::uint32_t s = 0; s < kShards; ++s) {
      sg::persist::restore_into(tier->shard(s), Tier::shard_snapshot_path(prefix, s));
    }
    recover_runs.push_back(seconds_since(rec0));
  }
  const double recover_s = median(recover_runs);
  std::filesystem::remove_all(dir);
  r.check(tier->num_edges() == live_final, "recovered live count differs");
  for (const auto& cl : clients) {
    for (const auto* list : {&cl->held, &cl->recently_erased}) {
      const bool want = list == &cl->held;
      for (const auto& b : *list) {
        std::vector<Edge> q;
        for (const WeightedEdge& e : b) q.push_back({e.src, e.dst});
        for (std::uint8_t f : tier->edges_exist(q)) {
          r.check((f != 0) == want, want ? "held batch edge missing"
                                         : "erased batch edge still present");
        }
      }
    }
  }

  r.e2e("setup_s", median(setup_s), "s");
  // Rates come from medians (per request, per block): a noisy-neighbour
  // episode on a shared box moves them only if it covers half the run.
  r.e2e("insert_medges_s", sz.update / median(insert_s) / 1e6, "Medges/s");
  r.e2e("erase_medges_s", sz.update / median(erase_s) / 1e6, "Medges/s");
  r.e2e("update_p50_ms", percentile(update_ms, 0.5), "ms");
  r.e2e("update_p90_ms", segmented_percentile(update_streams, 0.9, kTailSegments), "ms");
  r.e2e("query_p50_ms", percentile(query_ms, 0.5), "ms");
  r.e2e("query_p90_ms", segmented_percentile(query_streams, 0.9, kTailSegments), "ms");
  r.e2e("epoch_p50_ms", percentile(epoch_ms, 0.5), "ms");
  r.e2e("epoch_p90_ms", segmented_percentile(epoch_streams, 0.9, kTailSegments), "ms");
  r.e2e("served_ops_s", kClients * kEpochRequests / (median(epoch_ms) / 1e3), "1/s");
  r.e2e("replay_medges_s", kClients * median(epoch_medges), "Medges/s");
  r.e2e("recover_s", recover_s, "s");
  r.e2e("bytes_per_edge", bytes_per_edge, "B/edge");
  r.e2e("steady_rss_mib", median(rss_mib), "MiB");

  if (opt.trace) {
    SpanTotals totals;
    for (const auto& cl : clients) totals.add(cl->trace);
    report_scheduler(r, ts.shard_totals);
    r.layer("shard.route_s", totals.mean_self("shard.route"), "s");
    r.layer("shard.submit_call_s", totals.mean_self("shard.submit_call"), "s");
    r.layer("shard.resolve_wait_s", totals.mean_self("shard.resolve_wait"), "s");
    r.layer("shard.fence_s", totals.mean_self("shard.fence"), "s");
    const auto [lo_it, hi_it] =
        std::minmax_element(rs.per_shard_items.begin(), rs.per_shard_items.end());
    r.layer("shard.load_max_over_min",
            static_cast<double>(*hi_it) / static_cast<double>(std::max<std::uint64_t>(1, *lo_it)),
            "ratio");
    r.layer("core.engine.new_edge_ratio",
            static_cast<double>(live_final - preload_live + erased * sz.update) /
                static_cast<double>(inserted * sz.update), "ratio");
    r.layer("core.engine.rehash_triggers", static_cast<double>(rehash), "count");
    r.layer("core.dictionary.growths", static_cast<double>(growths), "count");
    report_slabs(r, ms);
    r.layer("memory.bytes_reserved",
            static_cast<double>(arena_bytes), "bytes");
    r.layer("persist.snapshot_s", snapshot_s, "s");
    r.layer("persist.snapshot_bytes", static_cast<double>(snapshot_bytes), "bytes");
    r.layer("persist.restore_s", recover_s, "s");
    r.layer("client.attempted", static_cast<double>(r.attempted), "count");
    r.layer("client.failed", static_cast<double>(r.failed), "count");
    r.layer("datasets.gen_s", gen_s, "s");
    finish_trace(r, totals, traced_units, untraced_units);
  }

  r.note_u("seed", opt.seed);
  r.note_u("pool_workers", kPoolWidth);
  r.note_u("client_threads", kClients);
  r.note_u("shards", kShards);
  r.note_u("preload_edges", preload_live);
  r.note_u("update_edges", sz.update);
  r.note_u("query_edges", sz.query);
  r.note_u("requests_per_client", requests);
  r.note_u("setups", sz.setups);
  r.note_u("update_samples", update_ms.size());
  r.note_u("query_samples", query_ms.size());
  r.note_u("epoch_samples", epoch_ms.size());
  r.note_u("epoch_requests", kEpochRequests);
  r.note_u("tail_segments", kTailSegments);
  r.note("loop_s", loop_s);
  r.note("datasets_gen_s", gen_s);
  r.note("input_digest", std::to_string(digest.value()));
  r.note_u("exact.final_live_edges", live_final);
  r.note_u("exact.inserted_batches", inserted);
  r.note_u("exact.erased_batches", erased);
  r.note("bytes_per_edge", bytes_per_edge);
}

}  // namespace perfbench
