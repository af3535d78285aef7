#include "graph/neighborhood.h"

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "neighbor/adjacency.h"

namespace disc {

NeighborhoodGraph::NeighborhoodGraph(const Dataset& dataset,
                                     const DistanceMetric& metric,
                                     double radius, ThreadPool* pool)
    : radius_(radius), adjacency_(dataset.size()) {
  if (dataset.size() <= 1) return;
  if (GridCompatible(metric, dataset.dim(), dataset.size()) && radius > 0) {
    num_edges_ =
        BuildAdjacencyWithGrid(dataset, metric, radius, pool, &adjacency_);
  } else {
    num_edges_ =
        BuildAdjacencyBruteForce(dataset, metric, radius, pool, &adjacency_);
  }
  for (auto& list : adjacency_) std::sort(list.begin(), list.end());
}

Result<NeighborhoodGraph> NeighborhoodGraph::FromBackend(
    const NeighborBackend& backend, double radius, ThreadPool* pool) {
  AdjacencyLists adjacency;
  size_t num_edges = 0;
  DISC_RETURN_NOT_OK(
      backend.BuildNeighborhoods(radius, pool, &adjacency, &num_edges));
  return NeighborhoodGraph(radius, std::move(adjacency), num_edges);
}

size_t NeighborhoodGraph::MaxDegree() const {
  size_t best = 0;
  for (const auto& list : adjacency_) best = std::max(best, list.size());
  return best;
}

bool NeighborhoodGraph::HasEdge(ObjectId a, ObjectId b) const {
  const auto& list = adjacency_[a];
  return std::binary_search(list.begin(), list.end(), b);
}

}  // namespace disc
