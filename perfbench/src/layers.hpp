// Per-layer metrics read from the program's public stats structs, shared
// by the workloads.
#pragma once

#include <cstdint>

#include "perfbench/src/common.hpp"
#include "src/core/dyn_graph.hpp"

namespace perfbench {

/// Graph-reserved bytes: arena chunks plus the vertex dictionary (one
/// 16-byte record per vertex of capacity).
template <class Graph>
std::uint64_t reserved_bytes(const Graph& g) {
  return g.arena_stats().bytes_reserved() + 16ull * g.vertex_capacity();
}

/// core.scheduler.*: ratios per shard-level submission.
inline void report_scheduler(Result& r, const sg::core::PhaseScheduleStats& ps) {
  const double submissions = static_cast<double>(
      ps.submitted_mutations + ps.submitted_queries + ps.submitted_analytics +
      ps.submitted_snapshots + ps.submitted_maintenance);
  r.layer("core.scheduler.switches_per_submission",
          static_cast<double>(ps.phase_switches) / submissions, "ratio");
  r.layer("core.scheduler.coalesced_ratio",
          static_cast<double>(ps.coalesced_batches) / submissions, "ratio");
  r.layer("core.scheduler.max_queue_depth", static_cast<double>(ps.max_queue_depth), "count");
  r.layer("core.scheduler.fence_wait_s", ps.fence_wait_seconds / submissions, "s");
  r.layer("core.scheduler.rejected", static_cast<double>(ps.rejected_submissions), "count");
  r.layer("core.scheduler.expired", static_cast<double>(ps.expired_queries), "count");
}

/// slabhash.*: chain length, overflow share and slot use over all tables.
inline void report_slabs(Result& r, const sg::core::GraphMemoryStats& ms) {
  r.layer("slabhash.chain_slabs_mean", ms.avg_chain_length(), "slabs");
  r.layer("slabhash.overflow_slab_frac",
          static_cast<double>(ms.overflow_slabs) /
              static_cast<double>(ms.base_slabs + ms.overflow_slabs),
          "frac");
  r.layer("slabhash.slot_utilization", ms.utilization(), "frac");
}

}  // namespace perfbench
