// Grid launch: the CUDA kernel-launch substitutes. launch_warps runs a
// fixed number of warps whose lanes pull work from a shared queue;
// launch_runs schedules contiguous ranges of irregular runs balanced by
// item count. Both dispatch onto the shared ThreadPool.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "src/simt/thread_pool.hpp"
#include "src/simt/warp.hpp"

namespace sg::simt {

/// A warp kernel receives the identity of the warp it runs as; per-lane
/// work-item indices come from WarpId::item(lane).
using WarpKernel = std::function<void(const WarpId&)>;

struct LaunchConfig {
  /// Target scheduling chunks per pool worker for launch_runs' auto
  /// chunking. 0 = the default of 4. The batch pipeline
  /// raises this while a staging job shares the pool: more, smaller chunks
  /// let the round-robin scheduler interleave the two jobs finely instead
  /// of parking whole workers on one of them.
  std::uint32_t chunks_per_worker = 0;
  /// Run serially on the calling thread (deterministic debugging).
  bool serial = false;
};

/// Launch exactly `num_warps` full warps; used by persistent-kernel-style
/// code (Algorithm 2's vertex-deletion queue) where lanes pull work from a
/// shared queue rather than being preassigned items.
void launch_warps(std::uint32_t num_warps, const WarpKernel& kernel,
                  const LaunchConfig& config = {});

/// Kernel over a contiguous range of runs [first, last) — see launch_runs.
using RunRangeKernel = std::function<void(std::uint64_t first, std::uint64_t last)>;

/// Launch over irregular segments ("runs"): run r owns items
/// [offsets[r], offsets[r+1]) of some staged array (offsets has
/// num_runs + 1 entries, ascending). Scheduling chunks are contiguous run
/// ranges balanced by total ITEM count, not run count, so one worker ends
/// up with a few giant runs while another takes thousands of singletons —
/// load balance follows bucket skew instead of fighting it. Runs are never
/// split: a run is the unit of exclusive bucket ownership in the batch
/// engine.
void launch_runs(std::span<const std::uint64_t> offsets,
                 const RunRangeKernel& kernel, const LaunchConfig& config = {});

}  // namespace sg::simt
