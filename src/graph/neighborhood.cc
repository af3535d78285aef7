#include "graph/neighborhood.h"

#include <algorithm>
#include <cstddef>

namespace disc {

NeighborhoodGraph::NeighborhoodGraph(const Dataset& dataset,
                                     const DistanceMetric& metric,
                                     double radius, ThreadPool* pool)
    : NeighborhoodGraph(radius,
                        BuildAdjacency(dataset, metric, radius, pool)) {}

Result<NeighborhoodGraph> NeighborhoodGraph::FromBackend(
    const NeighborBackend& backend, double radius, ThreadPool* pool) {
  return NeighborhoodGraph(radius, backend.BuildNeighborhoods(radius, pool));
}

size_t NeighborhoodGraph::MaxDegree() const {
  size_t best = 0;
  for (ObjectId v = 0; v < num_vertices(); ++v) {
    best = std::max(best, degree(v));
  }
  return best;
}

bool NeighborhoodGraph::HasEdge(ObjectId a, ObjectId b) const {
  const std::span<const ObjectId> row = neighbors(a);
  return std::binary_search(row.begin(), row.end(), b);
}

}  // namespace disc
