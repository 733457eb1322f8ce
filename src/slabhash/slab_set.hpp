// SlabHash concurrent set: uint32 keys only, 30 per slab — the new set
// variant the paper adds to slab hash ("keys only, and no values",
// footnote 5). Used when edge values are not required, e.g. triangle
// counting (§VI-C). Same uniqueness / tombstone semantics as the map: the
// scalar set_insert never reuses a tombstone, the bucket-owning
// set_bulk_insert does (slab_layout.hpp).
#pragma once

#include <cstdint>
#include <functional>

#include "src/slabhash/slab_layout.hpp"

namespace sg::slabhash {

/// Inserts `key` uniquely; returns true iff it was new.
bool set_insert(memory::SlabArena& arena, TableRef table, std::uint32_t key,
                std::uint64_t seed, std::uint32_t alloc_seed = 0);

/// Tombstones `key`; returns true iff it was present (and live).
bool set_erase(memory::SlabArena& arena, TableRef table, std::uint32_t key,
               std::uint64_t seed);

/// Membership query — the edgeExist primitive of §IV-B.
bool set_contains(const memory::SlabArena& arena, TableRef table,
                  std::uint32_t key, std::uint64_t seed);

// ---- staged bulk entry points (batch engine) -----------------------------
// Same contract as the map's bulk operations (slab_map.hpp): the run's keys
// are pre-hashed to `bucket`, and for mutation the engine guarantees no
// other warp touches this bucket during the phase. The chain is walked once
// per wave of up to 32 keys with one shared EMPTY and tombstone scan per
// slab; new keys reuse the passed tombstones in chain order (one key store
// each) before claiming EMPTY slots or appending a slab.

/// Bulk unique insert of a run (unique, sorted keys); returns the number of
/// NEW keys. `chain_slabs`, when non-null, receives the deepest slab
/// position the walk reached (1 = base slab only, including slabs appended
/// by this call) — the chain-length feedback targeted rehashing consumes.
/// Arena exhaustion: with `status` non-null the call stops, records the
/// failing wave into *status (see BulkStatus), and returns the exact count
/// of keys applied; with `status` null it throws memory::ArenaExhausted.
std::uint32_t set_bulk_insert(memory::SlabArena& arena, TableRef table,
                              std::uint32_t bucket, const std::uint32_t* keys,
                              std::uint32_t count, std::uint32_t alloc_seed = 0,
                              std::uint32_t* chain_slabs = nullptr,
                              BulkStatus* status = nullptr);

/// Bulk erase of a run; returns the number of keys that were present.
/// `chain_slabs` as in set_bulk_insert.
std::uint32_t set_bulk_erase(memory::SlabArena& arena, TableRef table,
                             std::uint32_t bucket, const std::uint32_t* keys,
                             std::uint32_t count,
                             std::uint32_t* chain_slabs = nullptr);

/// Bulk membership of a run: found[i] = 1 iff keys[i] is live.
/// `chain_slabs`, when non-null, receives the deepest slab position the
/// walk reached (1 = base slab only) — the same chain-length feedback the
/// bulk mutations report, observed for free by query phases.
void set_bulk_contains(const memory::SlabArena& arena, TableRef table,
                       std::uint32_t bucket, const std::uint32_t* keys,
                       std::uint32_t count, std::uint8_t* found,
                       std::uint32_t* chain_slabs = nullptr);

/// Calls fn(key) for every live key.
void set_for_each(const memory::SlabArena& arena, TableRef table,
                  const std::function<void(std::uint32_t)>& fn);

/// Gathers every live key into `out` (caller-presized to `cap` slots) with
/// one snapshot + mask extraction per slab; returns the number written
/// (stops at `cap`, so a caller sizing from the exact degree counter never
/// overruns even on misuse). `chain_slabs`, when non-null, receives the
/// deepest slab position the walk reached (1 = base slab only) — the same
/// inform-only chain-depth feedback bulk queries report.
std::uint32_t set_gather(const memory::SlabArena& arena, TableRef table,
                         std::uint32_t* out, std::uint32_t cap,
                         std::uint32_t* chain_slabs = nullptr);

TableOccupancy set_occupancy(const memory::SlabArena& arena, TableRef table);

/// Compaction (tombstone flush); phase-serial per table.
void set_flush_tombstones(memory::SlabArena& arena, TableRef table);

/// Frees overflow slabs, resets base slabs (vertex deletion support).
void set_clear(memory::SlabArena& arena, TableRef table);

/// Owning wrapper for tests / micro-benchmarks.
class SlabHashSet {
 public:
  SlabHashSet(memory::SlabArena& arena, std::uint32_t num_buckets,
              std::uint64_t seed = 0x5EEDULL);

  bool insert(std::uint32_t key) {
    return set_insert(*arena_, table_, key, seed_);
  }
  bool erase(std::uint32_t key) { return set_erase(*arena_, table_, key, seed_); }
  bool contains(std::uint32_t key) const {
    return set_contains(*arena_, table_, key, seed_);
  }
  void for_each(const std::function<void(std::uint32_t)>& fn) const {
    set_for_each(*arena_, table_, fn);
  }
  TableOccupancy occupancy() const { return set_occupancy(*arena_, table_); }
  void flush_tombstones() { set_flush_tombstones(*arena_, table_); }
  TableRef table() const { return table_; }

 private:
  memory::SlabArena* arena_;
  TableRef table_;
  std::uint64_t seed_;
};

}  // namespace sg::slabhash
