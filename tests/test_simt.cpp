// Unit tests for the SIMT substrate: warp primitive semantics must match
// the CUDA intrinsics they stand in for, grid launches must run exactly
// the requested warps and runs, and the atomics must behave under real
// contention.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "src/simt/atomics.hpp"
#include "src/simt/grid.hpp"
#include "src/simt/thread_pool.hpp"
#include "src/simt/warp.hpp"

namespace sg::simt {
namespace {

TEST(Warp, BallotAllTrue) {
  LaneArray<bool> pred;
  pred.fill(true);
  EXPECT_EQ(ballot(pred), kFullMask);
}

TEST(Warp, BallotAllFalse) {
  LaneArray<bool> pred;
  pred.fill(false);
  EXPECT_EQ(ballot(pred), 0u);
}

TEST(Warp, BallotSingleLane) {
  LaneArray<bool> pred{};
  pred[5] = true;
  EXPECT_EQ(ballot(pred), 1u << 5);
}

TEST(Warp, BallotRespectsActiveMask) {
  LaneArray<bool> pred;
  pred.fill(true);
  EXPECT_EQ(ballot(pred, 0x0000FFFFu), 0x0000FFFFu);
}

TEST(Warp, BallotLane31) {
  LaneArray<bool> pred{};
  pred[31] = true;
  EXPECT_EQ(ballot(pred), 0x80000000u);
}

TEST(Warp, ShuffleBroadcasts) {
  LaneArray<int> vals;
  std::iota(vals.begin(), vals.end(), 100);
  EXPECT_EQ(shuffle(vals, 0), 100);
  EXPECT_EQ(shuffle(vals, 31), 131);
}

TEST(Warp, ShuffleWrapsLikeCuda) {
  // CUDA's __shfl_sync masks the source lane with warpSize-1.
  LaneArray<int> vals;
  std::iota(vals.begin(), vals.end(), 0);
  EXPECT_EQ(shuffle(vals, 32), 0);
  EXPECT_EQ(shuffle(vals, 33), 1);
}

TEST(Warp, PopcMatchesPopcount) {
  EXPECT_EQ(popc(0u), 0);
  EXPECT_EQ(popc(kFullMask), 32);
  EXPECT_EQ(popc(0b1011u), 3);
}

TEST(Warp, FfsIsOneBasedLikeCuda) {
  EXPECT_EQ(ffs(0u), 0);
  EXPECT_EQ(ffs(1u), 1);
  EXPECT_EQ(ffs(0b1000u), 4);
  EXPECT_EQ(ffs(0x80000000u), 32);
}

TEST(Warp, LanemaskBelow) {
  EXPECT_EQ(lanemask_below(0), 0u);
  EXPECT_EQ(lanemask_below(1), 1u);
  EXPECT_EQ(lanemask_below(32), kFullMask);
  EXPECT_EQ(lanemask_below(16), 0x0000FFFFu);
}

TEST(Warp, WarpIdItemIndexing) {
  WarpId id;
  id.warp = 3;
  id.first_item = 96;
  EXPECT_EQ(id.item(0), 96u);
  EXPECT_EQ(id.item(31), 127u);
  EXPECT_EQ(id.active_count(), 32);
}

TEST(Grid, SerialModeMatchesParallel) {
  constexpr std::uint32_t kWarps = 40;
  std::vector<int> serial_hits(kWarps, 0);
  LaunchConfig serial_cfg;
  serial_cfg.serial = true;
  launch_warps(kWarps, [&](const WarpId& warp) { ++serial_hits[warp.warp]; },
               serial_cfg);
  EXPECT_EQ(serial_hits, std::vector<int>(kWarps, 1));
  std::vector<std::uint64_t> offsets{0, 3, 3, 10};
  std::vector<std::uint64_t> covered;
  launch_runs(offsets, [&](std::uint64_t first, std::uint64_t last) {
    for (std::uint64_t r = first; r < last; ++r) covered.push_back(r);
  }, serial_cfg);
  EXPECT_EQ(covered, (std::vector<std::uint64_t>{0, 1, 2}));
}

TEST(Grid, LaunchWarpsRunsExactCount) {
  std::atomic<int> warps_run{0};
  launch_warps(17, [&](const WarpId&) { warps_run.fetch_add(1); });
  EXPECT_EQ(warps_run.load(), 17);
}

TEST(Grid, WarpIdsAreDistinct) {
  constexpr std::uint32_t kWarps = 64;
  std::vector<std::atomic<int>> seen(kWarps);
  launch_warps(kWarps, [&](const WarpId& warp) {
    seen[warp.warp].fetch_add(1);
  });
  for (std::uint32_t w = 0; w < kWarps; ++w) EXPECT_EQ(seen[w].load(), 1);
}

TEST(ThreadPool, ParallelForRunsAllChunks) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  pool.parallel_for(1000, [&](std::uint64_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 1000ull * 999 / 2);
}

TEST(ThreadPool, ZeroChunksIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [&](std::uint64_t) { FAIL(); });
}

TEST(ThreadPool, ExceptionsPropagate) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::uint64_t i) {
                          if (i == 50) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(3);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(64, [&](std::uint64_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 64);
  }
}

TEST(ThreadPool, DefaultThreadCountPositive) {
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 0u);  // no workers: jobs run on the submitter
  std::uint64_t sum = 0;
  pool.parallel_for(100, [&](std::uint64_t i) { sum += i; });
  EXPECT_EQ(sum, 4950u);
}

TEST(ThreadPool, InlinePoolPropagatesExceptions) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for(10,
                                 [&](std::uint64_t i) {
                                   if (i == 5) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, SubmitRunsAllChunksByWait) {
  ThreadPool pool(3);
  std::atomic<std::uint64_t> sum{0};
  auto job = pool.submit(500, [&](std::uint64_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  pool.wait(job);
  EXPECT_EQ(sum.load(), 500ull * 499 / 2);
  pool.wait(job);  // idempotent
  EXPECT_EQ(sum.load(), 500ull * 499 / 2);
}

TEST(ThreadPool, SubmittedJobOverlapsParallelFor) {
  // A background job and a foreground parallel_for share the pool; both
  // must complete, with the background job's chunks interleaved rather
  // than starved (the batch pipeline's stage-vs-apply arrangement).
  ThreadPool pool(4);
  std::atomic<int> background{0};
  std::atomic<int> foreground{0};
  auto job = pool.submit(64, [&](std::uint64_t) {
    background.fetch_add(1, std::memory_order_relaxed);
  });
  pool.parallel_for(64, [&](std::uint64_t) {
    foreground.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(foreground.load(), 64);
  pool.wait(job);
  EXPECT_EQ(background.load(), 64);
}

TEST(ThreadPool, SubmitOnInlinePoolRunsSynchronously) {
  ThreadPool pool(1);
  int count = 0;
  auto job = pool.submit(8, [&](std::uint64_t) { ++count; });
  EXPECT_EQ(count, 8);  // completed before submit returned
  pool.wait(job);
  EXPECT_EQ(count, 8);
}

TEST(ThreadPool, SubmitExceptionRethrownByWait) {
  for (const unsigned threads : {1u, 3u}) {
    ThreadPool pool(threads);
    auto job = pool.submit(16, [&](std::uint64_t i) {
      if (i == 3) throw std::runtime_error("stage failed");
    });
    EXPECT_THROW(pool.wait(job), std::runtime_error);
  }
}

TEST(ThreadPool, NestedParallelForInsideSubmittedJob) {
  // The epoch pipelines submit ONE chunk per staging pass which fans out
  // again through a nested parallel_for (with a count/place barrier between
  // the passes): chunks must be free to start jobs on their own pool, at
  // every width including the inline pool.
  for (const unsigned width : {1u, 2u, 8u}) {
    ThreadPool pool(width);
    std::atomic<int> inner_total{0};
    std::atomic<int> barrier_order{0};
    const auto job = pool.submit(1, [&](std::uint64_t) {
      pool.parallel_for(16, [&](std::uint64_t) {
        inner_total.fetch_add(1, std::memory_order_relaxed);
      });
      // parallel_for returned: all 16 nested chunks are complete — the
      // barrier the two-pass staging relies on.
      barrier_order.store(inner_total.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
      pool.parallel_for(16, [&](std::uint64_t) {
        inner_total.fetch_add(1, std::memory_order_relaxed);
      });
    });
    // A foreground parallel_for shares the pool with the nested job.
    std::atomic<int> foreground{0};
    pool.parallel_for(64, [&](std::uint64_t) {
      foreground.fetch_add(1, std::memory_order_relaxed);
    });
    pool.wait(job);
    EXPECT_EQ(inner_total.load(), 32) << "width " << width;
    EXPECT_EQ(barrier_order.load(), 16) << "width " << width;
    EXPECT_EQ(foreground.load(), 64) << "width " << width;
  }
}

TEST(ThreadPool, RequestedWidthSurvivesInlineResize) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.requested(), 4u);
  EXPECT_EQ(pool.size(), 4u);
  pool.resize(1);  // inline pool: no workers, but the width is remembered
  EXPECT_EQ(pool.requested(), 1u);
  EXPECT_EQ(pool.size(), 0u);
  pool.resize(4);
  EXPECT_EQ(pool.requested(), 4u);
  EXPECT_EQ(pool.size(), 4u);
}

TEST(ThreadPool, ManyConcurrentSubmittedJobs) {
  ThreadPool pool(4);
  std::vector<ThreadPool::JobHandle> jobs;
  std::atomic<int> total{0};
  for (int j = 0; j < 8; ++j) {
    jobs.push_back(pool.submit(32, [&](std::uint64_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    }));
  }
  for (auto& job : jobs) pool.wait(job);
  EXPECT_EQ(total.load(), 8 * 32);
}

TEST(Atomics, CasReturnsObservedValue) {
  std::uint32_t word = 5;
  EXPECT_EQ(atomic_cas(word, 5u, 9u), 5u);  // success: old value
  EXPECT_EQ(word, 9u);
  EXPECT_EQ(atomic_cas(word, 5u, 7u), 9u);  // failure: current value
  EXPECT_EQ(word, 9u);
}

TEST(Atomics, AddSubExch) {
  std::uint32_t word = 10;
  EXPECT_EQ(atomic_add(word, 5u), 10u);
  EXPECT_EQ(word, 15u);
  EXPECT_EQ(atomic_sub(word, 3u), 15u);
  EXPECT_EQ(word, 12u);
  EXPECT_EQ(atomic_exch(word, 99u), 12u);
  EXPECT_EQ(word, 99u);
}

TEST(Atomics, MinMax) {
  std::uint32_t word = 50;
  atomic_min(word, 20u);
  EXPECT_EQ(word, 20u);
  atomic_min(word, 30u);
  EXPECT_EQ(word, 20u);
  atomic_max(word, 70u);
  EXPECT_EQ(word, 70u);
  atomic_max(word, 60u);
  EXPECT_EQ(word, 70u);
}

TEST(Atomics, OrAnd) {
  std::uint32_t word = 0b0101;
  atomic_or(word, 0b0010u);
  EXPECT_EQ(word, 0b0111u);
  atomic_and(word, 0b0110u);
  EXPECT_EQ(word, 0b0110u);
}

TEST(Atomics, ContendedCounterIsExact) {
  std::uint64_t counter = 0;
  ThreadPool pool(8);
  pool.parallel_for(10000,
                    [&](std::uint64_t) { atomic_add(counter, std::uint64_t{1}); });
  EXPECT_EQ(counter, 10000u);
}

TEST(Atomics, ContendedCasClaimsAreUnique) {
  // Many threads race to claim slots with CAS; each slot must be claimed
  // exactly once — the protocol slab insertion depends on.
  constexpr int kSlots = 128;
  std::vector<std::uint32_t> slots(kSlots, 0xFFFFFFFFu);
  std::atomic<int> claims{0};
  ThreadPool pool(8);
  pool.parallel_for(1024, [&](std::uint64_t task) {
    for (int s = 0; s < kSlots; ++s) {
      if (atomic_cas(slots[s], 0xFFFFFFFFu,
                     static_cast<std::uint32_t>(task)) == 0xFFFFFFFFu) {
        claims.fetch_add(1);
        return;
      }
    }
  });
  EXPECT_EQ(claims.load(), kSlots);
  for (auto slot : slots) EXPECT_NE(slot, 0xFFFFFFFFu);
}

}  // namespace
}  // namespace sg::simt
