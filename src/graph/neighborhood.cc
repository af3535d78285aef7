#include "graph/neighborhood.h"

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "neighbor/adjacency.h"
#include "util/parallel.h"

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

NeighborhoodGraph::NeighborhoodGraph(const MTree& tree, double radius,
                                     ThreadPool* pool)
    : radius_(radius), adjacency_(tree.size()) {
  BuildFromTree(tree, pool);
}

Result<NeighborhoodGraph> NeighborhoodGraph::FromBackend(
    const NeighborBackend& backend, double radius, ThreadPool* pool) {
  AdjacencyLists adjacency;
  size_t num_edges = 0;
  DISC_RETURN_NOT_OK(
      backend.BuildNeighborhoods(radius, pool, &adjacency, &num_edges));
  return NeighborhoodGraph(radius, std::move(adjacency), num_edges);
}

void NeighborhoodGraph::BuildFromTree(const MTree& tree, ThreadPool* pool) {
  const size_t n = tree.size();
  if (pool == nullptr || pool->threads() <= 1) {
    std::vector<Neighbor> found;
    for (ObjectId i = 0; i < n; ++i) {
      found.clear();
      tree.RangeQueryAround(i, radius_, QueryFilter::kAll, /*pruned=*/false,
                            &found);
      auto& list = adjacency_[i];
      list.reserve(found.size());
      for (const Neighbor& nb : found) list.push_back(nb.id);
      std::sort(list.begin(), list.end());
      num_edges_ += list.size();  // every edge seen from both endpoints
    }
    num_edges_ /= 2;
    return;
  }

  // Adjacency rows are disjoint per object, so chunks write them in place;
  // only the access accounting needs per-thread sinks, summed back into
  // tree.stats() in chunk order (exact integer totals, same as serial).
  struct ChunkResult {
    AccessStats stats;
    size_t directed_edges = 0;
  };
  const size_t grain = RecommendedGrain(n, pool->threads());
  ParallelOrderedReduce<ChunkResult>(
      pool, 0, n, grain,
      [&](size_t chunk_begin, size_t chunk_end) {
        ChunkResult result;
        MTree::ThreadStatsScope scope(tree, &result.stats);
        std::vector<Neighbor> found;
        for (size_t i = chunk_begin; i < chunk_end; ++i) {
          found.clear();
          tree.RangeQueryAround(static_cast<ObjectId>(i), radius_,
                                QueryFilter::kAll, /*pruned=*/false, &found);
          auto& list = adjacency_[i];
          list.reserve(found.size());
          for (const Neighbor& nb : found) list.push_back(nb.id);
          std::sort(list.begin(), list.end());
          result.directed_edges += list.size();
        }
        return result;
      },
      [&](ChunkResult& result) {
        tree.stats() += result.stats;
        num_edges_ += result.directed_edges;
      });
  num_edges_ /= 2;
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
