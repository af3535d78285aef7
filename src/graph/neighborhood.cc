#include "graph/neighborhood.h"

#include <algorithm>
#include <cstddef>
#include <utility>

namespace disc {

namespace {

CsrAdjacency BuildDirect(const Dataset& dataset, const DistanceMetric& metric,
                         double radius, ThreadPool* pool) {
  if (GridCompatible(metric, dataset.dim(), dataset.size())) {
    return BuildAdjacencyWithGrid(dataset, metric, radius, pool);
  }
  return BuildAdjacencyBruteForce(dataset, metric, radius, pool);
}

}  // namespace

NeighborhoodGraph::NeighborhoodGraph(const Dataset& dataset,
                                     const DistanceMetric& metric,
                                     double radius, ThreadPool* pool)
    : NeighborhoodGraph(radius, BuildDirect(dataset, metric, radius, pool)) {}

Result<NeighborhoodGraph> NeighborhoodGraph::FromBackend(
    const NeighborBackend& backend, double radius, ThreadPool* pool) {
  DISC_ASSIGN_OR_RETURN(CsrAdjacency adjacency,
                        backend.BuildNeighborhoods(radius, pool));
  return NeighborhoodGraph(radius, std::move(adjacency));
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
