// Host-side helpers shared by the batched mutation paths: batch validation
// and id range discovery. (Undirected mirroring happens in place while
// staging — no mirrored temp vector is ever built.)
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/types.hpp"

namespace sg::core {

/// Largest vertex id referenced by the batch; 0 for an empty batch.
VertexId max_vertex_id(std::span<const WeightedEdge> edges);
VertexId max_vertex_id(std::span<const Edge> edges);

/// Throws std::invalid_argument if any id exceeds kMaxVertexId (ids that
/// would collide with the slab sentinels are unrepresentable).
void validate_batch(std::span<const WeightedEdge> edges);
void validate_batch(std::span<const Edge> edges);

}  // namespace sg::core
