#include "neighbor/grid_backend.h"

#include <cmath>
#include <cstdint>
#include <span>

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

std::optional<double> GridBackend::index_radius() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (index_ == nullptr) return std::nullopt;
  return index_->radius();
}

std::shared_ptr<const GridCellIndex> GridBackend::EnsureIndex(
    double radius) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (index_ == nullptr || index_->radius() != radius) {
    index_ = std::make_shared<const GridCellIndex>(dataset_, radius);
  }
  return index_;
}

void GridBackend::DoRangeQuery(const Point& center, ObjectId exclude,
                               double radius, std::vector<ObjectId>* out,
                               AccessStats* sink) const {
  sink->range_queries += 1;
  const size_t n = dataset_.size();
  if (!GridCompatible(metric_, dataset_.dim(), n)) {
    // Exact fallback: a single full scan.
    sink->node_accesses += 1;
    for (ObjectId j = 0; j < n; ++j) {
      if (j == exclude) continue;
      ++sink->distance_computations;
      if (metric_.Distance(center, dataset_.point(j)) <= radius) {
        out->push_back(j);
      }
    }
    return;
  }

  const std::shared_ptr<const GridCellIndex> index = EnsureIndex(radius);
  index->ForEachNearbyCell(center, [&](std::span<const ObjectId> cell) {
    ++sink->node_accesses;
    for (ObjectId j : cell) {
      if (j == exclude) continue;
      ++sink->distance_computations;
      if (metric_.Distance(center, dataset_.point(j)) <= radius) {
        out->push_back(j);
      }
    }
  });
}

}  // namespace disc
