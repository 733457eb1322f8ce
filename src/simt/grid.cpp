#include "src/simt/grid.hpp"

#include <vector>

namespace sg::simt {

void launch_runs(std::span<const std::uint64_t> offsets,
                 const RunRangeKernel& kernel, const LaunchConfig& config) {
  if (offsets.size() < 2) return;
  const std::uint64_t num_runs = offsets.size() - 1;
  if (config.serial) {
    kernel(0, num_runs);
    return;
  }
  const std::uint64_t total_items = offsets.back() - offsets.front();
  const std::uint64_t workers =
      ThreadPool::instance().size() > 0 ? ThreadPool::instance().size() : 1u;
  // ~4 chunks per worker by default; a chunk closes once it holds its
  // share of ITEMS, so a single skewed run fills a whole chunk while
  // singleton runs pack together.
  const std::uint64_t target_chunks =
      workers * (config.chunks_per_worker != 0 ? config.chunks_per_worker : 4u);
  const std::uint64_t items_per_chunk =
      total_items > target_chunks ? (total_items + target_chunks - 1) / target_chunks
                                  : total_items;
  std::vector<std::uint64_t> chunk_first;  // first run of each chunk
  chunk_first.reserve(target_chunks + 1);
  chunk_first.push_back(0);
  std::uint64_t chunk_start_item = offsets[0];
  for (std::uint64_t r = 1; r < num_runs; ++r) {
    if (offsets[r] - chunk_start_item >= items_per_chunk) {
      chunk_first.push_back(r);
      chunk_start_item = offsets[r];
    }
  }
  chunk_first.push_back(num_runs);
  ThreadPool::instance().parallel_for(
      chunk_first.size() - 1, [&](std::uint64_t c) {
        kernel(chunk_first[c], chunk_first[c + 1]);
      });
}

void launch_warps(std::uint32_t num_warps, const WarpKernel& kernel,
                  const LaunchConfig& config) {
  if (num_warps == 0) return;
  if (config.serial) {
    for (std::uint32_t w = 0; w < num_warps; ++w) {
      WarpId id;
      id.warp = w;
      id.first_item = static_cast<std::uint64_t>(w) * kWarpSize;
      kernel(id);
    }
    return;
  }
  ThreadPool::instance().parallel_for(num_warps, [&](std::uint64_t w) {
    WarpId id;
    id.warp = static_cast<std::uint32_t>(w);
    id.first_item = w * kWarpSize;
    kernel(id);
  });
}

}  // namespace sg::simt
