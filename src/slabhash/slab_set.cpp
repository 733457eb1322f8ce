#include "src/slabhash/slab_set.hpp"

#include <bit>
#include <cstring>
#include <vector>

#include "src/simt/atomics.hpp"
#include "src/simt/simd.hpp"
#include "src/simt/warp.hpp"

// Hot paths mirror slab_map.cpp: one vectorized compare per slab
// (simt::probe_slab) replaces the per-word atomic-load loop, with CAS kept
// only for the EMPTY slot being claimed or the key being tombstoned (a
// bucket-owning bulk run rewrites a tombstone with a plain atomic store).

namespace sg::slabhash {

using memory::kNullSlab;
using memory::Slab;
using memory::SlabHandle;
using simt::atomic_cas;
using simt::atomic_load;
using simt::atomic_store;

namespace {

/// As in slab_map.cpp: returns the successor, or kNullSlab when the arena
/// is exhausted (chain untouched; callers surface the failure).
SlabHandle extend_chain(memory::SlabArena& arena, Slab& slab,
                        std::uint32_t alloc_seed) {
  const SlabHandle fresh = arena.try_allocate(kEmptyKey, alloc_seed);
  if (fresh == kNullSlab) return kNullSlab;
  const std::uint32_t observed =
      atomic_cas(slab.words[kNextPtrWord], kNullSlab, fresh);
  if (observed == kNullSlab) return fresh;
  arena.free(fresh);
  return observed;
}

/// Scalar paths (status == nullptr) keep the throwing contract.
[[noreturn]] void throw_exhausted() {
  throw memory::ArenaExhausted(
      "slabhash: cannot extend bucket chain: arena exhausted");
}

}  // namespace

namespace {

/// set_insert after hashing: shared by the scalar entry point and the bulk
/// path's singleton runs (which arrive pre-hashed). On arena exhaustion:
/// records into `status` when given (key NOT inserted), else throws.
/// `owns_bucket` (bulk runs only) lets an absent key take the first
/// tombstone of the chain instead of an EMPTY slot or a new slab.
bool insert_in_bucket(memory::SlabArena& arena, TableRef table,
                      std::uint32_t bucket, std::uint32_t key,
                      std::uint32_t alloc_seed,
                      std::uint32_t* chain_slabs = nullptr,
                      BulkStatus* status = nullptr, bool owns_bucket = false) {
  SlabHandle handle = table.bucket_head(bucket);
  // Depth stays in a register and publishes only at the exits: a per-slab
  // store through chain_slabs could alias slab words and force reloads.
  std::uint32_t depth = 0;
  std::uint32_t* tombstone = nullptr;  // first tombstoned slot passed
  for (;;) {
    ++depth;
    Slab& slab = arena.resolve(handle);
    const simt::SlabProbe probe =
        simt::probe_slab(slab.words, key, kEmptyKey, kTombstoneKey);
    if ((probe.match & kSetKeyWordsMask) != 0) {  // already present
      if (chain_slabs != nullptr) *chain_slabs = depth;
      return false;
    }
    std::uint32_t empties = probe.empty & kSetKeyWordsMask;
    if (owns_bucket) {
      const std::uint32_t tombs = probe.tombstone & kSetKeyWordsMask;
      if (tombstone == nullptr && tombs != 0) {
        tombstone = &slab.words[std::countr_zero(tombs)];
      }
      // An EMPTY slot or the chain's end proves the key absent; the
      // earliest tombstone then beats both an EMPTY slot and a new slab.
      // A plain store: the bucket's owner is its only writer.
      if (tombstone != nullptr &&
          (empties != 0 ||
           atomic_load(slab.words[kNextPtrWord]) == kNullSlab)) {
        atomic_store(*tombstone, key);
        if (chain_slabs != nullptr) *chain_slabs = depth;
        return true;
      }
    }
    while (empties != 0) {
      const int slot = std::countr_zero(empties);
      const std::uint32_t observed =
          atomic_cas(slab.words[slot], kEmptyKey, key);
      if (observed == kEmptyKey || observed == key) {
        if (chain_slabs != nullptr) *chain_slabs = depth;
        return observed == kEmptyKey;  // false: lost to an identical key
      }
      empties &= empties - 1;  // a different key won the slot; keep going
    }
    SlabHandle next = atomic_load(slab.words[kNextPtrWord]);
    if (next == kNullSlab) {
      next = extend_chain(arena, slab, alloc_seed + key);
      if (next == kNullSlab) {
        if (chain_slabs != nullptr) *chain_slabs = depth;
        if (status == nullptr) throw_exhausted();
        status->ok = false;
        status->fail_base = 0;
        status->fail_pending = 1u;  // the lone key of this singleton run
        return false;
      }
    }
    handle = next;
  }
}

/// set_erase after hashing (scalar entry point + singleton bulk runs).
bool erase_in_bucket(memory::SlabArena& arena, TableRef table,
                     std::uint32_t bucket, std::uint32_t key,
                     std::uint32_t* chain_slabs = nullptr) {
  SlabHandle handle = table.bucket_head(bucket);
  std::uint32_t depth = 0;  // published at the exits only (aliasing)
  bool removed = false;
  while (handle != kNullSlab) {
    ++depth;
    Slab& slab = arena.resolve(handle);
    const simt::SlabProbe probe =
        simt::probe_slab(slab.words, key, kEmptyKey, kTombstoneKey);
    const std::uint32_t match = probe.match & kSetKeyWordsMask;
    if (match != 0) {
      removed = atomic_cas(slab.words[std::countr_zero(match)], key,
                           kTombstoneKey) == key;
      break;
    }
    if ((probe.empty & kSetKeyWordsMask) != 0) break;
    handle = atomic_load(slab.words[kNextPtrWord]);
  }
  if (chain_slabs != nullptr) *chain_slabs = depth;
  return removed;
}

/// set_contains after hashing (scalar entry point + singleton bulk runs).
/// The edgeExist primitive: a GPU warp compares all 32 slab words in one
/// step; here that is literally one vector compare per slab.
bool contains_in_bucket(const memory::SlabArena& arena, TableRef table,
                        std::uint32_t bucket, std::uint32_t key) {
  SlabHandle handle = table.bucket_head(bucket);
  while (handle != kNullSlab) {
    const Slab& slab = arena.resolve(handle);
    const simt::SlabProbe probe =
        simt::probe_slab(slab.words, key, kEmptyKey, kTombstoneKey);
    if ((probe.match & kSetKeyWordsMask) != 0) return true;
    if ((probe.empty & kSetKeyWordsMask) != 0) return false;
    handle = atomic_load(slab.words[kNextPtrWord]);
  }
  return false;
}

}  // namespace

bool set_insert(memory::SlabArena& arena, TableRef table, std::uint32_t key,
                std::uint64_t seed, std::uint32_t alloc_seed) {
  return insert_in_bucket(arena, table,
                          bucket_of(key, table.num_buckets, seed), key,
                          alloc_seed);
}

bool set_erase(memory::SlabArena& arena, TableRef table, std::uint32_t key,
               std::uint64_t seed) {
  return erase_in_bucket(arena, table, bucket_of(key, table.num_buckets, seed),
                         key);
}

bool set_contains(const memory::SlabArena& arena, TableRef table,
                  std::uint32_t key, std::uint64_t seed) {
  return contains_in_bucket(arena, table,
                            bucket_of(key, table.num_buckets, seed), key);
}

std::uint32_t set_bulk_insert(memory::SlabArena& arena, TableRef table,
                              std::uint32_t bucket, const std::uint32_t* keys,
                              std::uint32_t count, std::uint32_t alloc_seed,
                              std::uint32_t* chain_slabs, BulkStatus* status) {
  if (count == 1) {  // singleton run: sparse batches are mostly these
    return insert_in_bucket(arena, table, bucket, keys[0], alloc_seed,
                            chain_slabs, status, /*owns_bucket=*/true)
               ? 1u
               : 0u;
  }
  std::uint32_t added = 0;
  std::uint32_t max_depth = 0;
  for (std::uint32_t base = 0; base < count; base += simt::kWarpSize) {
    const std::uint32_t wave = count - base < simt::kWarpSize
                                   ? count - base
                                   : static_cast<std::uint32_t>(simt::kWarpSize);
    std::uint32_t pending = simt::lanemask_below(static_cast<int>(wave));
    // Tombstoned slots the walk passed, in chain order (as in the map).
    std::uint32_t* tombstones[simt::kWarpSize];
    std::uint32_t num_tombstones = 0;
    SlabHandle handle = table.bucket_head(bucket);
    std::uint32_t depth = 0;
    while (pending != 0) {
      ++depth;
      Slab& slab = arena.resolve(handle);
      SlabHandle next = atomic_load(slab.words[kNextPtrWord]);
      if (next != kNullSlab) simt::prefetch(&arena.resolve(next));
      // First lane probes all three masks in one pass; the shared EMPTY and
      // tombstone scan serves every claim below (the run owns this bucket
      // for the phase), claimed slots vanishing from the local masks only.
      std::uint32_t empties = 0;
      std::uint32_t tombs = 0;
      bool probed = false;
      for (std::uint32_t m = pending; m != 0; m &= m - 1) {
        const int lane = std::countr_zero(m);
        std::uint32_t match;
        if (!probed) {
          const simt::SlabProbe probe = simt::probe_slab(
              slab.words, keys[base + lane], kEmptyKey, kTombstoneKey);
          match = probe.match & kSetKeyWordsMask;
          empties = probe.empty & kSetKeyWordsMask;
          tombs = probe.tombstone & kSetKeyWordsMask;
          probed = true;
        } else {
          match =
              simt::match_mask(slab.words, keys[base + lane]) & kSetKeyWordsMask;
        }
        if (match != 0) {
          pending &= ~(1u << lane);  // already present: not new
        }
      }
      const auto wanted = static_cast<std::uint32_t>(simt::popc(pending));
      for (; tombs != 0 && num_tombstones < wanted; tombs &= tombs - 1) {
        tombstones[num_tombstones++] = &slab.words[std::countr_zero(tombs)];
      }
      // An EMPTY slot or the chain's end proves every pending key absent:
      // tombstones first (chain order), then EMPTY slots, then a new slab.
      if (num_tombstones != 0 && (empties != 0 || next == kNullSlab)) {
        std::uint32_t used = 0;
        for (std::uint32_t m = pending; m != 0 && used < num_tombstones;
             m &= m - 1) {
          const int lane = std::countr_zero(m);
          atomic_store(*tombstones[used++], keys[base + lane]);
          ++added;
          pending &= ~(1u << lane);
        }
        num_tombstones = 0;  // all used, or nothing is left pending
      }
      for (std::uint32_t m = pending; m != 0 && empties != 0; m &= m - 1) {
        const int lane = std::countr_zero(m);
        const std::uint32_t key = keys[base + lane];
        while (empties != 0) {
          const int slot = std::countr_zero(empties);
          const std::uint32_t observed =
              atomic_cas(slab.words[slot], kEmptyKey, key);
          if (observed == kEmptyKey) {
            ++added;
            pending &= ~(1u << lane);
            empties &= ~(1u << slot);
            break;
          }
          if (observed == key) {  // racing identical key
            pending &= ~(1u << lane);
            break;
          }
          empties &= ~(1u << slot);  // slot taken by a different key
        }
      }
      if (pending == 0) break;
      if (next == kNullSlab) {
        next = extend_chain(arena, slab,
                            alloc_seed + keys[base + std::countr_zero(pending)]);
        if (next == kNullSlab) {
          // Arena exhausted mid-wave: applied keys stay applied and counted;
          // the status reports the failing wave (see BulkStatus).
          if (depth > max_depth) max_depth = depth;
          if (chain_slabs != nullptr) *chain_slabs = max_depth;
          if (status == nullptr) throw_exhausted();
          status->ok = false;
          status->fail_base = base;
          status->fail_pending = pending;
          return added;
        }
      }
      handle = next;
    }
    if (depth > max_depth) max_depth = depth;
  }
  if (chain_slabs != nullptr) *chain_slabs = max_depth;
  return added;
}

std::uint32_t set_bulk_erase(memory::SlabArena& arena, TableRef table,
                             std::uint32_t bucket, const std::uint32_t* keys,
                             std::uint32_t count, std::uint32_t* chain_slabs) {
  if (count == 1) {
    return erase_in_bucket(arena, table, bucket, keys[0], chain_slabs) ? 1u : 0u;
  }
  std::uint32_t removed = 0;
  std::uint32_t max_depth = 0;
  for (std::uint32_t base = 0; base < count; base += simt::kWarpSize) {
    const std::uint32_t wave = count - base < simt::kWarpSize
                                   ? count - base
                                   : static_cast<std::uint32_t>(simt::kWarpSize);
    std::uint32_t pending = simt::lanemask_below(static_cast<int>(wave));
    SlabHandle handle = table.bucket_head(bucket);
    std::uint32_t depth = 0;
    while (pending != 0 && handle != kNullSlab) {
      ++depth;
      Slab& slab = arena.resolve(handle);
      const SlabHandle next = atomic_load(slab.words[kNextPtrWord]);
      if (next != kNullSlab) simt::prefetch(&arena.resolve(next));
      // First lane probes all three masks at once; erase never creates
      // EMPTY slots, so the mask stays valid across the wave.
      std::uint32_t empties = 0;
      bool probed = false;
      for (std::uint32_t m = pending; m != 0; m &= m - 1) {
        const int lane = std::countr_zero(m);
        const std::uint32_t key = keys[base + lane];
        std::uint32_t match;
        if (!probed) {
          const simt::SlabProbe probe =
              simt::probe_slab(slab.words, key, kEmptyKey, kTombstoneKey);
          match = probe.match & kSetKeyWordsMask;
          empties = probe.empty & kSetKeyWordsMask;
          probed = true;
        } else {
          match = simt::match_mask(slab.words, key) & kSetKeyWordsMask;
        }
        if (match != 0) {
          if (atomic_cas(slab.words[std::countr_zero(match)], key,
                         kTombstoneKey) == key) {
            ++removed;
          }
          pending &= ~(1u << lane);
        }
      }
      if (empties != 0) break;  // empties only at the tail: rest are absent
      handle = next;
    }
    if (depth > max_depth) max_depth = depth;
  }
  if (chain_slabs != nullptr) *chain_slabs = max_depth;
  return removed;
}

void set_bulk_contains(const memory::SlabArena& arena, TableRef table,
                       std::uint32_t bucket, const std::uint32_t* keys,
                       std::uint32_t count, std::uint8_t* found,
                       std::uint32_t* chain_slabs) {
  if (count == 1 && chain_slabs == nullptr) {
    found[0] = contains_in_bucket(arena, table, bucket, keys[0]) ? 1 : 0;
    return;
  }
  // Register-held depth, published once at exit (aliasing-safe feedback).
  std::uint32_t deepest = 0;
  for (std::uint32_t base = 0; base < count; base += simt::kWarpSize) {
    const std::uint32_t wave = count - base < simt::kWarpSize
                                   ? count - base
                                   : static_cast<std::uint32_t>(simt::kWarpSize);
    std::uint32_t pending = simt::lanemask_below(static_cast<int>(wave));
    for (std::uint32_t lane = 0; lane < wave; ++lane) found[base + lane] = 0;
    SlabHandle handle = table.bucket_head(bucket);
    std::uint32_t depth = 0;
    while (pending != 0 && handle != kNullSlab) {
      ++depth;
      const Slab& slab = arena.resolve(handle);
      const SlabHandle next = atomic_load(slab.words[kNextPtrWord]);
      if (next != kNullSlab) simt::prefetch(&arena.resolve(next));
      std::uint32_t empties = 0;
      bool probed = false;
      for (std::uint32_t m = pending; m != 0; m &= m - 1) {
        const int lane = std::countr_zero(m);
        std::uint32_t match;
        if (!probed) {
          const simt::SlabProbe probe = simt::probe_slab(
              slab.words, keys[base + lane], kEmptyKey, kTombstoneKey);
          match = probe.match & kSetKeyWordsMask;
          empties = probe.empty & kSetKeyWordsMask;
          probed = true;
        } else {
          match =
              simt::match_mask(slab.words, keys[base + lane]) & kSetKeyWordsMask;
        }
        if (match != 0) {
          found[base + lane] = 1;
          pending &= ~(1u << lane);
        }
      }
      if (empties != 0) break;  // empties only at the tail: rest miss
      handle = next;
    }
    if (depth > deepest) deepest = depth;
  }
  if (chain_slabs != nullptr) *chain_slabs = deepest;
}

void set_for_each(const memory::SlabArena& arena, TableRef table,
                  const std::function<void(std::uint32_t)>& fn) {
  for (std::uint32_t b = 0; b < table.num_buckets; ++b) {
    SlabHandle handle = table.bucket_head(b);
    while (handle != kNullSlab) {
      std::uint32_t snap[memory::kWordsPerSlab];
      simt::snapshot_slab(arena.resolve(handle), snap);
      const std::uint32_t empties =
          simt::empty_mask(snap, kEmptyKey) & kSetKeyWordsMask;
      const std::uint32_t tombs =
          simt::tombstone_mask(snap, kTombstoneKey) & kSetKeyWordsMask;
      std::uint32_t live = kSetKeyWordsMask & ~tombs &
                           simt::bits_below(std::countr_zero(empties));
      while (live != 0) {
        fn(snap[std::countr_zero(live)]);
        live &= live - 1;
      }
      handle = snap[kNextPtrWord];
    }
  }
}

std::uint32_t set_gather(const memory::SlabArena& arena, TableRef table,
                         std::uint32_t* out, std::uint32_t cap,
                         std::uint32_t* chain_slabs) {
  std::uint32_t written = 0;
  std::uint32_t deepest = 0;  // register-held, published once at exit
  for (std::uint32_t b = 0; b < table.num_buckets; ++b) {
    SlabHandle handle = table.bucket_head(b);
    std::uint32_t depth = 0;
    while (handle != kNullSlab) {
      ++depth;
      std::uint32_t snap[memory::kWordsPerSlab];
      simt::snapshot_slab(arena.resolve(handle), snap);
      const SlabHandle next = snap[kNextPtrWord];
      if (next != kNullSlab) simt::prefetch(&arena.resolve(next));
      const std::uint32_t empties =
          simt::empty_mask(snap, kEmptyKey) & kSetKeyWordsMask;
      const std::uint32_t tombs =
          simt::tombstone_mask(snap, kTombstoneKey) & kSetKeyWordsMask;
      std::uint32_t live = kSetKeyWordsMask & ~tombs &
                           simt::bits_below(std::countr_zero(empties));
      while (live != 0 && written < cap) {
        out[written++] = snap[std::countr_zero(live)];
        live &= live - 1;
      }
      handle = next;
    }
    if (depth > deepest) deepest = depth;
  }
  if (chain_slabs != nullptr) *chain_slabs = deepest;
  return written;
}

TableOccupancy set_occupancy(const memory::SlabArena& arena, TableRef table) {
  TableOccupancy occ;
  occ.base_slabs = table.num_buckets;
  for (std::uint32_t b = 0; b < table.num_buckets; ++b) {
    SlabHandle handle = table.bucket_head(b);
    bool base = true;
    while (handle != kNullSlab) {
      const Slab& slab = arena.resolve(handle);
      if (!base) ++occ.overflow_slabs;
      occ.slots += kSetKeysPerSlab;
      // One probe + popcounts per slab instead of a per-slot word loop.
      const simt::SlabProbe probe =
          simt::probe_slab(slab.words, kEmptyKey, kEmptyKey, kTombstoneKey);
      const std::uint32_t empties = probe.empty & kSetKeyWordsMask;
      const std::uint32_t tombs = probe.tombstone & kSetKeyWordsMask;
      occ.tombstones += simt::popc(tombs);
      occ.live_keys += simt::popc(kSetKeyWordsMask & ~empties & ~tombs);
      handle = slab.words[kNextPtrWord];
      base = false;
    }
  }
  return occ;
}

void set_flush_tombstones(memory::SlabArena& arena, TableRef table) {
  for (std::uint32_t b = 0; b < table.num_buckets; ++b) {
    std::vector<std::uint32_t> live;
    std::vector<SlabHandle> chain;
    SlabHandle handle = table.bucket_head(b);
    while (handle != kNullSlab) {
      chain.push_back(handle);
      const Slab& slab = arena.resolve(handle);
      const simt::SlabProbe probe =
          simt::probe_slab(slab.words, kEmptyKey, kEmptyKey, kTombstoneKey);
      std::uint32_t live_mask =
          kSetKeyWordsMask & ~probe.empty & ~probe.tombstone;
      while (live_mask != 0) {
        live.push_back(slab.words[std::countr_zero(live_mask)]);
        live_mask &= live_mask - 1;
      }
      handle = slab.words[kNextPtrWord];
    }
    std::size_t cursor = 0;
    std::size_t keep_slabs = 0;
    for (std::size_t s = 0; s < chain.size(); ++s) {
      Slab& slab = arena.resolve(chain[s]);
      bool any = false;
      for (int slot = 0; slot < kSetKeysPerSlab; ++slot) {
        if (cursor < live.size()) {
          slab.words[slot] = live[cursor++];
          any = true;
        } else {
          slab.words[slot] = kEmptyKey;
        }
      }
      if (any || s == 0) keep_slabs = s + 1;
    }
    if (!chain.empty()) {
      Slab& last_kept = arena.resolve(chain[keep_slabs - 1]);
      last_kept.words[kNextPtrWord] = kNullSlab;
      for (std::size_t s = keep_slabs; s < chain.size(); ++s) arena.free(chain[s]);
    }
  }
}

void set_clear(memory::SlabArena& arena, TableRef table) {
  // kEmptyKey (== kNullSlab) is all-ones: one memset resets the whole slab.
  static_assert(kEmptyKey == 0xFFFFFFFFu && memory::kNullSlab == 0xFFFFFFFFu);
  for (std::uint32_t b = 0; b < table.num_buckets; ++b) {
    Slab& head = arena.resolve(table.bucket_head(b));
    SlabHandle overflow = head.words[kNextPtrWord];
    while (overflow != kNullSlab) {
      const SlabHandle next = arena.resolve(overflow).words[kNextPtrWord];
      arena.free(overflow);
      overflow = next;
    }
    std::memset(head.words, 0xFF, sizeof(head.words));
  }
}

SlabHashSet::SlabHashSet(memory::SlabArena& arena, std::uint32_t num_buckets,
                         std::uint64_t seed)
    : arena_(&arena), seed_(seed) {
  table_.num_buckets = num_buckets == 0 ? 1 : num_buckets;
  table_.base = arena.allocate_contiguous(table_.num_buckets, kEmptyKey);
}

}  // namespace sg::slabhash
