#include "src/core/batch_engine.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "src/simt/thread_pool.hpp"

namespace sg::core {

void BatchStaging::group_prepare(bool dedup) {
  dedup_ = dedup;
  // Pass 1a: stable radix sort by the packed (vertex, bucket) word, with
  // the digit-skip masks accumulated during staging (sharded stagings have
  // shard-constant low vertex bits, which vanish from the passes). The low
  // word (key, sequence) is untouched, so within a group the staged order
  // — and with it most-recent-wins — survives.
  sort::radix_sort_hi(std::span<sort::U128>(order_), scratch_, hi_or_, hi_and_);
  const std::size_t n = order_.size();
  grouped_runs_ = 0;
  grouped_keys_ = 0;
  duplicates = 0;
  // Pass 1b: cut groups, sort each group's low word — almost every group
  // is a single query, so this costs a compare, not a sort — and COUNT
  // what the emit pass will produce. The per-group order established here
  // persists in order_, so pass 2 is a pure scan-and-write.
  for (std::size_t begin = 0; begin < n;) {
    const std::uint64_t hi = order_[begin].hi;
    std::size_t end = begin + 1;
    while (end < n && order_[end].hi == hi) ++end;
    if (end - begin > 1) {
      std::sort(order_.begin() + static_cast<std::ptrdiff_t>(begin),
                order_.begin() + static_cast<std::ptrdiff_t>(end),
                [](const sort::U128& a, const sort::U128& b) {
                  return a.lo < b.lo;  // (key, sequence) ascending
                });
    }
    ++grouped_runs_;
    for (std::size_t i = begin; i < end; ++i) {
      if (dedup && i + 1 < end &&
          static_cast<std::uint32_t>(order_[i + 1].lo >> 32) ==
              static_cast<std::uint32_t>(order_[i].lo >> 32)) {
        ++duplicates;  // a later occurrence follows: it wins
        continue;
      }
      ++grouped_keys_;
    }
    begin = end;
  }
}

void BatchStaging::group_emit(bool gather_values, bool gather_seqs,
                              BatchStaging& dst, std::uint64_t key_base,
                              std::uint64_t run_base) const {
  const std::size_t n = order_.size();
  std::uint64_t key = key_base;
  std::uint64_t run = run_base;
  for (std::size_t begin = 0; begin < n;) {
    const std::uint64_t hi = order_[begin].hi;
    std::size_t end = begin + 1;
    while (end < n && order_[end].hi == hi) ++end;
    dst.runs[run] = {static_cast<VertexId>(hi >> kBucketBits),
                     static_cast<std::uint32_t>(hi & ((1u << kBucketBits) - 1u))};
    dst.run_offsets[run] = key;
    ++run;
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t k = static_cast<std::uint32_t>(order_[i].lo >> 32);
      if (dedup_ && i + 1 < end &&
          static_cast<std::uint32_t>(order_[i + 1].lo >> 32) == k) {
        continue;  // a later occurrence follows: it wins
      }
      const std::uint32_t seq = static_cast<std::uint32_t>(order_[i].lo);
      dst.keys[key] = k;
      if (gather_seqs) dst.seqs[key] = seq;
      if (gather_values) dst.values[key] = weights_[seq];
      ++key;
    }
    begin = end;
  }
  assert(run == run_base + grouped_runs_ && key == key_base + grouped_keys_ &&
         "two-pass invariant: emit must place exactly what prepare counted");
}

void BatchStaging::emit_self(bool gather_values, bool gather_seqs) {
  keys.resize(grouped_keys_);
  if (gather_values) values.resize(grouped_keys_);
  if (gather_seqs) seqs.resize(grouped_keys_);
  runs.resize(grouped_runs_);
  run_offsets.resize(grouped_runs_ + 1);
  group_emit(gather_values, gather_seqs, *this, 0, 0);
  run_offsets[grouped_runs_] = grouped_keys_;
}

void BatchStaging::check_partition(std::uint32_t shard,
                                   std::uint32_t num_shards) const {
  for (const sort::U128& rec : order_) {
    const VertexId src = static_cast<VertexId>(rec.hi >> kBucketBits);
    if (shard_of_vertex(src, num_shards) != shard) {
      throw std::logic_error(
          "BatchStaging: staged query crossed its shard's vertex partition "
          "(vertex " +
          std::to_string(src) + " staged by shard " + std::to_string(shard) +
          " of " + std::to_string(num_shards) + ")");
    }
  }
}

std::uint64_t ShardedStaging::total_staged() const {
  std::uint64_t total = 0;
  for (const BatchStaging& st : shards_) total += st.staged;
  return total;
}

std::uint64_t ShardedStaging::total_dropped() const {
  std::uint64_t total = 0;
  for (const BatchStaging& st : shards_) total += st.dropped;
  return total;
}

std::uint64_t ShardedStaging::total_duplicates() const {
  std::uint64_t total = 0;
  for (const BatchStaging& st : shards_) total += st.duplicates;
  return total;
}

void ShardedStaging::validate_partition() const {
  // The dedup-determinism guard: shard s may only stage vertices it owns.
  // A violation means two shards could each hold occurrences of the same
  // (vertex, key) and per-shard dedup would no longer be most-recent-wins
  // across the whole batch — impossible by construction of the staging
  // filters, and checked here (debug builds) so it stays impossible.
  const std::uint32_t num_shards = shard_count();
  if (num_shards <= 1) return;
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    shards_[s].check_partition(s, num_shards);
  }
}

void ShardedStaging::finalize(bool gather_values, bool gather_seqs) {
#ifndef NDEBUG
  validate_partition();
#endif
  const std::uint32_t num_shards = shard_count();
  if (num_shards == 1) {
    shards_[0].emit_self(gather_values, gather_seqs);  // front() aliases it
    return;
  }
  // Prefix-sum the per-shard counts into disjoint slices and let every
  // shard emit its own output directly into its slice, in parallel. Slices
  // are element-disjoint, so the concurrent writes need no
  // synchronization; the pool's job fence publishes them to the reader.
  std::vector<std::uint64_t> key_base(num_shards);
  std::vector<std::uint64_t> run_base(num_shards);
  std::uint64_t total_keys = 0;
  std::uint64_t total_runs = 0;
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    key_base[s] = total_keys;
    run_base[s] = total_runs;
    total_keys += shards_[s].grouped_keys();
    total_runs += shards_[s].grouped_runs();
  }
  merged_.clear();
  merged_.keys.resize(total_keys);
  if (gather_values) merged_.values.resize(total_keys);
  if (gather_seqs) merged_.seqs.resize(total_keys);
  merged_.runs.resize(total_runs);
  merged_.run_offsets.resize(total_runs + 1);
  simt::ThreadPool::instance().parallel_for(num_shards, [&](std::uint64_t s) {
    shards_[s].group_emit(gather_values, gather_seqs, merged_, key_base[s],
                          run_base[s]);
  });
  merged_.run_offsets[total_runs] = total_keys;
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    merged_.staged += shards_[s].staged;
    merged_.dropped += shards_[s].dropped;
    merged_.duplicates += shards_[s].duplicates;
  }
}

}  // namespace sg::core
