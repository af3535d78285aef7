#include "neighbor/grid_backend.h"

#include <cmath>
#include <cstdint>

namespace disc {

Result<CsrAdjacency> GridBackend::BuildNeighborhoods(double radius,
                                                     ThreadPool* pool) const {
  const size_t n = size();
  AccessStats batch;
  batch.range_queries = n;
  CsrAdjacency adjacency;
  if (GridCompatible(metric_, dataset_.dim(), n)) {
    uint64_t distance_calls = 0;
    adjacency = BuildAdjacencyWithGrid(dataset_, metric_, radius, pool,
                                       &distance_calls);
    const uint64_t num_offsets =
        static_cast<uint64_t>(std::pow(3.0, dataset_.dim()));
    batch.node_accesses = static_cast<uint64_t>(n) * num_offsets;
    batch.distance_computations = distance_calls;
  } else {
    adjacency = BuildAdjacencyBruteForce(dataset_, metric_, radius, pool);
    batch.node_accesses = n;
    batch.distance_computations =
        n > 1 ? static_cast<uint64_t>(n) * (n - 1) / 2 : 0;
  }
  stats_ += batch;
  return adjacency;
}

}  // namespace disc
