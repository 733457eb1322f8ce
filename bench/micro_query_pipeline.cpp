// micro_query_pipeline: phase-concurrent query pipelining and the
// automatic rehash policy.
//
// Two sections:
//
//   overlap   builds a graph once, then streams edges_exist / edge_weights
//             batches through the engine at several pool widths, once with
//             the double buffer off (stage-then-search) and once on
//             (stage of query slice N+1 overlaps the bulk searches of
//             slice N), reporting query throughput, the measured
//             stage/search overlap window, and the fraction of staging
//             hidden behind the searches. At >= 2 threads the overlap must
//             be > 0; at 1 thread the pipeline degenerates and the two
//             configurations should tie.
//
//   rehash    streams a hub-skewed insert/query mix with the p99 auto-
//             rehash policy on vs off, reporting trigger count, final mean
//             chain length, and the query rate on the maintained graph.
//
// JSON metrics (tracked by bench/compare_bench.py):
//   query_rate{threads=T}        MQuery/s through the pipelined engine
//   query_overlap{threads=T}     overlap seconds / stage seconds
//   auto_rehash_triggers         policy firings on the skewed stream
//
//   ./build/micro_query_pipeline --json=BENCH_query.json
//   flags: --batches=N --batch_exp=E --vertices_exp=E --threads=1,2,4 --quick
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/simt/thread_pool.hpp"
#include "src/util/prng.hpp"

namespace sg {
namespace {

std::vector<core::WeightedEdge> random_edges(std::uint64_t seed,
                                             std::size_t count,
                                             std::uint32_t num_vertices) {
  util::Xoshiro256 rng(seed);
  std::vector<core::WeightedEdge> batch(count);
  for (auto& e : batch) {
    e = {static_cast<core::VertexId>(rng.below(num_vertices)),
         static_cast<core::VertexId>(rng.below(num_vertices)),
         static_cast<core::Weight>(rng.below(1u << 16))};
  }
  return batch;
}

/// Query batch with ~50% hit rate: half the probes redraw the insert
/// distribution, half land outside it.
std::vector<core::Edge> query_probes(std::uint64_t seed, std::size_t count,
                                     std::uint32_t num_vertices) {
  util::Xoshiro256 rng(seed);
  std::vector<core::Edge> queries(count);
  for (auto& q : queries) {
    q = {static_cast<core::VertexId>(rng.below(num_vertices)),
         static_cast<core::VertexId>(rng.below(num_vertices * 2))};
  }
  return queries;
}

std::vector<unsigned> parse_thread_list(const util::Cli& cli) {
  std::vector<unsigned> threads;
  const std::string raw = cli.get("threads", "1,2,4");
  std::size_t pos = 0;
  while (pos < raw.size()) {
    const std::size_t comma = raw.find(',', pos);
    const std::string tok =
        raw.substr(pos, comma == std::string::npos ? raw.size() - pos
                                                   : comma - pos);
    if (!tok.empty()) {
      const long n = std::strtol(tok.c_str(), nullptr, 10);
      if (n > 0) threads.push_back(static_cast<unsigned>(n));
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return threads;
}

struct QueryRun {
  double mqueries_per_s = 0.0;
  core::BatchPipelineStats stats;  // summed over batches
};

QueryRun stream_queries(const core::DynGraphMap& g,
                        const std::vector<std::vector<core::Edge>>& batches,
                        bool weighted) {
  QueryRun run;
  std::uint64_t total = 0;
  std::vector<std::uint8_t> found;
  std::vector<core::Weight> weights;
  util::Timer timer;
  for (const auto& batch : batches) {
    found.assign(batch.size(), 0);
    if (weighted) {
      weights.assign(batch.size(), 0);
      g.edge_weights(batch, weights.data(), found.data());
    } else {
      g.edges_exist(batch, found.data());
    }
    const core::BatchPipelineStats s = g.last_query_stats();
    run.stats.epochs += s.epochs;
    run.stats.shards = s.shards;
    run.stats.stage_seconds += s.stage_seconds;
    run.stats.apply_seconds += s.apply_seconds;
    run.stats.overlap_seconds += s.overlap_seconds;
    total += batch.size();
  }
  run.mqueries_per_s =
      util::mitems_per_second(double(total), timer.seconds());
  return run;
}

void run_overlap(const bench::BenchContext& ctx,
                 const std::vector<unsigned>& threads, int vertices_exp,
                 int batch_exp, int num_batches) {
  const std::uint32_t num_vertices = 1u << vertices_exp;
  const std::size_t batch_size = std::size_t{1} << batch_exp;
  const auto edges =
      random_edges(ctx.seed, batch_size * 2, num_vertices);
  std::vector<std::vector<core::Edge>> batches;
  for (int b = 0; b < num_batches; ++b) {
    batches.push_back(
        query_probes(ctx.seed + 100 + b, batch_size, num_vertices));
  }

  util::Table table({"Threads", "Mode", "Single-buf (MQuery/s)",
                     "Pipelined (MQuery/s)", "Stage (ms)", "Search (ms)",
                     "Overlap (ms)", "Overlap frac"});
  for (const unsigned t : threads) {
    simt::ThreadPool::instance().resize(t);
    for (const bool weighted : {false, true}) {
      // Pin four query slices per batch so the quick grid pipelines too.
      core::GraphConfig cfg;
      cfg.vertex_capacity = num_vertices;
      cfg.pipeline_epoch_edges =
          static_cast<std::uint32_t>(batch_size / 4);
      cfg.double_buffer = false;
      core::DynGraphMap single(cfg);
      single.insert_edges(edges);
      cfg.double_buffer = true;
      core::DynGraphMap piped(cfg);
      piped.insert_edges(edges);

      const QueryRun sb = stream_queries(single, batches, weighted);
      const QueryRun pp = stream_queries(piped, batches, weighted);
      const double overlap_frac =
          pp.stats.stage_seconds > 0.0
              ? pp.stats.overlap_seconds / pp.stats.stage_seconds
              : 0.0;
      const char* mode = weighted ? "edge_weights" : "edges_exist";
      table.add_row({std::to_string(t), mode,
                     util::Table::fmt(sb.mqueries_per_s),
                     util::Table::fmt(pp.mqueries_per_s),
                     util::Table::fmt(pp.stats.stage_seconds * 1e3),
                     util::Table::fmt(pp.stats.apply_seconds * 1e3),
                     util::Table::fmt(pp.stats.overlap_seconds * 1e3),
                     util::Table::fmt(overlap_frac)});
      if (!weighted) {
        ctx.record("query_rate", pp.mqueries_per_s, "MQuery/s",
                   {{"threads", std::to_string(t)},
                    {"batch", "2^" + std::to_string(batch_exp)}});
        ctx.record("query_overlap", overlap_frac, "fraction",
                   {{"threads", std::to_string(t)},
                    {"batch", "2^" + std::to_string(batch_exp)}});
      }
    }
  }
  simt::ThreadPool::instance().resize(0);
  ctx.emit(table, "Query stage/search overlap: " +
                      std::to_string(num_batches) + " batches of 2^" +
                      std::to_string(batch_exp) + " probes, V = 2^" +
                      std::to_string(vertices_exp));
  bench::paper_shape_note(
      "query_overlap > 0 at >= 2 threads (staging of slice N+1 hides "
      "behind the bulk searches of slice N); the 1-thread pipeline "
      "degenerates and matches the single-buffer path");
}

void run_auto_rehash(const bench::BenchContext& ctx, int tail_exp,
                     int hub_degree) {
  // Hub-skewed stream: hubs chain heavily while 2^tail_exp vertices stay
  // single-slab. Hubs scale with the tail (1/64th) so the long-run tail
  // fraction sits at ~1.5% — past the policy's 1% trigger at every grid
  // size — and interleaved query batches keep the histogram warm.
  const std::uint32_t tails = 1u << tail_exp;
  const std::uint32_t hubs = tails / 64;
  std::vector<core::WeightedEdge> edges;
  for (core::VertexId hub = 0; hub < hubs; ++hub) {
    for (std::uint32_t k = 0; k < static_cast<std::uint32_t>(hub_degree);
         ++k) {
      edges.push_back({hub, tails + k, k});
    }
  }
  for (core::VertexId u = hubs; u < tails; ++u) {
    edges.push_back({u, u + 1, 1});
  }
  std::vector<core::Edge> probes;
  for (core::VertexId hub = 0; hub < hubs; ++hub) {
    for (std::uint32_t k = 0; k < 64; ++k) probes.push_back({hub, tails + k});
  }

  util::Table table({"Policy", "Triggers", "Mean chain (slabs)",
                     "Query (MQuery/s)"});
  std::uint64_t triggers = 0;
  for (const bool auto_rehash : {false, true}) {
    core::GraphConfig cfg;
    cfg.vertex_capacity = tails + static_cast<std::uint32_t>(hub_degree) + 1;
    cfg.stage_shards = 2;  // deterministic run counts across pool widths
    cfg.auto_rehash_p99_slabs = auto_rehash ? 3.0 : 0.0;
    core::DynGraphMap g(cfg);
    g.insert_edges(edges);
    std::vector<std::uint8_t> found(probes.size());
    util::Timer timer;
    for (int rep = 0; rep < 20; ++rep) g.edges_exist(probes, found.data());
    const double rate = util::mitems_per_second(
        double(probes.size()) * 20.0, timer.seconds());
    if (auto_rehash) triggers = g.auto_rehash_triggers();
    table.add_row({auto_rehash ? "p99 auto (3 slabs)" : "off",
                   std::to_string(g.auto_rehash_triggers()),
                   util::Table::fmt(g.memory_stats().avg_chain_length()),
                   util::Table::fmt(rate)});
  }
  ctx.emit(table, "Auto-rehash policy on a hub-skewed stream: " +
                      std::to_string(tails) + " vertices, " +
                      std::to_string(hubs) + " hubs of degree " +
                      std::to_string(hub_degree));
  ctx.record("auto_rehash_triggers", double(triggers), "count", {});
  bench::paper_shape_note(
      "the p99 policy fires during the skewed inserts without user calls, "
      "flattening the hub chains the query phase then walks");
}

}  // namespace
}  // namespace sg

int main(int argc, char** argv) {
  const sg::util::Cli cli(argc, argv);
  const auto ctx =
      sg::bench::BenchContext::from_cli(cli, 1.0, "micro_query_pipeline");
  ctx.print_header(
      "Query pipeline: stage/search overlap + auto-rehash");
  const int vertices_exp = cli.get_int("vertices_exp", ctx.quick ? 15 : 17);
  const int batch_exp = cli.get_int("batch_exp", ctx.quick ? 14 : 16);
  const int num_batches = cli.get_int("batches", ctx.quick ? 4 : 8);
  sg::run_overlap(ctx, sg::parse_thread_list(cli), vertices_exp, batch_exp,
                  num_batches);
  sg::run_auto_rehash(ctx, ctx.quick ? 12 : 14, ctx.quick ? 400 : 1000);
  ctx.write_json();
  return 0;
}
