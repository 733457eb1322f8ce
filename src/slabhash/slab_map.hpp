// SlabHash concurrent map: <uint32 key, uint32 value> pairs, 15 per slab.
// This is the weighted-edge adjacency store ("use the map variant if
// storing a value per edge is required", §IV).
//
// Operations follow the paper's semantics:
//   * replace  — inserts key uniquely; if present, overwrites the value
//                ("most recent edge and its weight will be stored") and
//                returns false; if absent, claims the first EMPTY slot
//                (never a tombstone) and returns true. The boolean return
//                feeds the per-vertex edge counters (Alg. 1 lines 8-10).
//                The bulk variant (map_bulk_replace) owns its bucket and
//                so reuses tombstones: see slab_layout.hpp.
//   * erase    — tombstones the key (CAS key -> TOMBSTONE); returns whether
//                the key was present, feeding the counter decrement.
//   * search   — walks the bucket chain; may stop at the first EMPTY slot
//                thanks to the empties-at-the-tail invariant.
//   * flush_tombstones — the documented alternative strategy (§IV-C2):
//                compacts live pairs to the chain head, trading insertion
//                throughput for memory. Phase-serial.
//
// All functions are safe under concurrent same-phase mutation (insert phase
// or delete phase), which is the paper's phase-concurrent model.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "src/slabhash/slab_layout.hpp"

namespace sg::slabhash {

struct MapFindResult {
  bool found = false;
  std::uint32_t value = 0;
};

/// Inserts or overwrites <key, value>; returns true iff the key was new.
/// `seed` selects the table's hash function; `alloc_seed` spreads dynamic
/// slab allocations (pass a warp id or thread id).
bool map_replace(memory::SlabArena& arena, TableRef table, std::uint32_t key,
                 std::uint32_t value, std::uint64_t seed,
                 std::uint32_t alloc_seed = 0);

/// Tombstones `key`; returns true iff it was present (and live).
bool map_erase(memory::SlabArena& arena, TableRef table, std::uint32_t key,
               std::uint64_t seed);

/// Point lookup.
MapFindResult map_search(const memory::SlabArena& arena, TableRef table,
                         std::uint32_t key, std::uint64_t seed);

// ---- staged bulk entry points (batch engine, docs/PERF.md) ---------------
//
// A "run" is a staged group of queries that all hash to `bucket` of `table`:
// the batch engine pre-hashes each key once, sorts the batch by
// (vertex, bucket, key), and hands each run to one warp. The run's
// (table, bucket) chain is owned exclusively by that warp for the phase —
// the engine's run partition guarantees no other warp mutates the same
// bucket — which is what lets these walk the chain ONCE per wave of up to
// 32 keys, compute the slab's EMPTY mask once per slab, and claim
// successive slots from it, instead of one full hash + chain walk per key.
// Ownership also lets an insert reuse tombstones: a wave remembers the
// tombstoned slots it passes and, once the walk reaches an EMPTY slot or
// the chain's end (so the pending keys are absent), rewrites them in chain
// order with one 64-bit key+value store before claiming EMPTY slots or
// appending a slab. Concurrent mutation of OTHER buckets (and of other
// tables) remains safe: EMPTY-slot claiming still goes through CAS.

/// Bulk replace of a run: inserts keys[i] -> values[i] (unique keys,
/// sorted); a key already present has its value overwritten, and a new key
/// takes the chain's earliest free tombstone before any EMPTY slot. Returns
/// the number of NEW keys. When `chain_slabs` is non-null it receives the
/// deepest slab position the walk reached (1 = base slab only), including
/// slabs appended by this call — the §III chain-length metric the batch
/// engine feeds back to targeted rehashing, observed for free.
/// Arena exhaustion: with `status` non-null the call stops, records the
/// failing wave into *status (see BulkStatus), and returns the exact count
/// of keys applied so far; with `status` null it throws
/// memory::ArenaExhausted (the historical contract of the scalar paths).
std::uint32_t map_bulk_replace(memory::SlabArena& arena, TableRef table,
                               std::uint32_t bucket, const std::uint32_t* keys,
                               const std::uint32_t* values, std::uint32_t count,
                               std::uint32_t alloc_seed = 0,
                               std::uint32_t* chain_slabs = nullptr,
                               BulkStatus* status = nullptr);

/// Bulk erase of a run; returns the number of keys that were present.
/// `chain_slabs` as in map_bulk_replace (erase never extends the chain).
std::uint32_t map_bulk_erase(memory::SlabArena& arena, TableRef table,
                             std::uint32_t bucket, const std::uint32_t* keys,
                             std::uint32_t count,
                             std::uint32_t* chain_slabs = nullptr);

/// Bulk lookup of a run: found[i] = 1 iff keys[i] is live; when `values` is
/// non-null, values[i] receives the stored value on a hit. Duplicate keys
/// in the run are fine (lookups are independent). `chain_slabs`, when
/// non-null, receives the deepest slab position the walk reached (1 = base
/// slab only) — queries observe chain lengths for free exactly as the bulk
/// mutations do, so search-heavy phases feed the §III rehash metric too.
void map_bulk_search(const memory::SlabArena& arena, TableRef table,
                     std::uint32_t bucket, const std::uint32_t* keys,
                     std::uint32_t count, std::uint8_t* found,
                     std::uint32_t* values,
                     std::uint32_t* chain_slabs = nullptr);

/// Calls fn(key, value) for every live pair. Phase-concurrent with queries.
void map_for_each(const memory::SlabArena& arena, TableRef table,
                  const std::function<void(std::uint32_t, std::uint32_t)>& fn);

/// Gathers every live key into `out` (caller-presized to `cap` slots) with
/// one snapshot + mask extraction per slab; returns the number written
/// (stops at `cap`, so a caller sizing from the exact degree counter never
/// overruns even on misuse). Values are skipped — this is the adjacency
/// gather analytics consume. `chain_slabs`, when non-null, receives the
/// deepest slab position the walk reached (1 = base slab only) — the same
/// inform-only chain-depth feedback bulk queries report.
std::uint32_t map_gather(const memory::SlabArena& arena, TableRef table,
                         std::uint32_t* out, std::uint32_t cap,
                         std::uint32_t* chain_slabs = nullptr);

/// Occupancy statistics (Figure 2b/2c inputs).
TableOccupancy map_occupancy(const memory::SlabArena& arena, TableRef table);

/// Compacts each bucket chain in-place: live pairs move toward the chain
/// head, tombstones vanish, and emptied overflow slabs are freed. Must not
/// run concurrently with any other operation on `table`.
void map_flush_tombstones(memory::SlabArena& arena, TableRef table);

/// Frees every overflow (dynamic) slab of the table and resets base slabs
/// to EMPTY. Used by vertex deletion (§IV-D2). Phase-serial per table.
void map_clear(memory::SlabArena& arena, TableRef table);

/// Owning convenience wrapper used by unit tests and micro-benchmarks; the
/// graph itself manages TableRefs directly through its vertex dictionary.
class SlabHashMap {
 public:
  SlabHashMap(memory::SlabArena& arena, std::uint32_t num_buckets,
              std::uint64_t seed = 0x5EEDULL);

  bool replace(std::uint32_t key, std::uint32_t value) {
    return map_replace(*arena_, table_, key, value, seed_);
  }
  bool erase(std::uint32_t key) { return map_erase(*arena_, table_, key, seed_); }
  MapFindResult search(std::uint32_t key) const {
    return map_search(*arena_, table_, key, seed_);
  }
  void for_each(const std::function<void(std::uint32_t, std::uint32_t)>& fn) const {
    map_for_each(*arena_, table_, fn);
  }
  TableOccupancy occupancy() const { return map_occupancy(*arena_, table_); }
  void flush_tombstones() { map_flush_tombstones(*arena_, table_); }
  TableRef table() const { return table_; }

 private:
  memory::SlabArena* arena_;
  TableRef table_;
  std::uint64_t seed_;
};

}  // namespace sg::slabhash
