#include "neighbor/backend.h"

#include <algorithm>
#include <string>
#include <utility>

#include "neighbor/exact_backend.h"
#include "neighbor/grid_backend.h"
#include "neighbor/sharded_backend.h"
#include "util/parallel.h"

namespace disc {

const char* NeighborBackendKindToString(NeighborBackendKind kind) {
  switch (kind) {
    case NeighborBackendKind::kExact:
      return "exact";
    case NeighborBackendKind::kGrid:
      return "grid";
    case NeighborBackendKind::kSharded:
      return "sharded";
  }
  return "unknown";
}

Result<NeighborBackendKind> ParseNeighborBackendKind(const std::string& name) {
  if (name == "exact") return NeighborBackendKind::kExact;
  if (name == "grid") return NeighborBackendKind::kGrid;
  if (name == "sharded") return NeighborBackendKind::kSharded;
  return Status::InvalidArgument("unknown neighbor backend '" + name +
                                 "' (want exact, grid, or sharded)");
}

std::string NeighborBackendCacheKey(const NeighborBackendOptions& options) {
  return NeighborBackendKindToString(options.kind);
}

Status CheckExactPointCap(const Dataset& dataset, const DistanceMetric& metric,
                          const NeighborBackendOptions& options) {
  const size_t n = dataset.size();
  if (options.max_exact_points == 0 || n <= options.max_exact_points ||
      options.kind == NeighborBackendKind::kSharded) {
    return Status::OK();
  }
  // Where the grid applies it builds the exact graph in near-linear time;
  // where it does not, a grid build degrades to the O(n^2) scan — exactly
  // the silent-fallback OOM the cap guards.
  const bool grid = GridCompatible(metric, dataset.dim(), n);
  if (options.kind == NeighborBackendKind::kGrid && grid) return Status::OK();
  std::string message = "dataset has " + std::to_string(n) +
                        " points, above the exact-backend cap of " +
                        std::to_string(options.max_exact_points) + "; ";
  if (grid) {
    return Status::InvalidArgument(message + "use the grid neighbor backend");
  }
  return Status::InvalidArgument(
      message + "the grid would fall back to the O(n^2) scan (" +
      metric.name() + " metric, dim " + std::to_string(dataset.dim()) +
      "), so use the sharded neighbor backend");
}

void NeighborBackend::RangeQueryAround(ObjectId center, double radius,
                                       std::vector<ObjectId>* out,
                                       AccessStats* sink) const {
  out->clear();
  AccessStats* target = sink != nullptr ? sink : &stats_;
  DoRangeQuery(dataset_.point(center), center, radius, out, target);
  std::sort(out->begin(), out->end());
}

void NeighborBackend::RangeQuery(const Point& center, double radius,
                                 std::vector<ObjectId>* out,
                                 AccessStats* sink) const {
  out->clear();
  AccessStats* target = sink != nullptr ? sink : &stats_;
  DoRangeQuery(center, kInvalidObject, radius, out, target);
  std::sort(out->begin(), out->end());
}

Result<CsrAdjacency> NeighborBackend::BuildNeighborhoods(
    double radius, ThreadPool* pool) const {
  // Each chunk concatenates its rows, already in id order; accounting goes
  // to per-chunk sinks summed back in chunk order (exact integer totals,
  // same as serial). Serial runs take the whole range as one chunk.
  struct ChunkRows {
    decltype(CsrAdjacency::ids) ids;
    std::vector<uint32_t> counts;
    AccessStats stats;
  };
  const size_t n = size();
  const size_t grain = pool == nullptr || pool->threads() <= 1
                           ? std::max<size_t>(n, 1)
                           : RecommendedGrain(n, pool->threads());
  CsrAdjacency adjacency(n);
  size_t row = 0;
  ParallelOrderedReduce<ChunkRows>(
      pool, 0, n, grain,
      [&](size_t chunk_begin, size_t chunk_end) {
        ChunkRows chunk;
        chunk.counts.reserve(chunk_end - chunk_begin);
        std::vector<ObjectId> neighbors;
        for (size_t i = chunk_begin; i < chunk_end; ++i) {
          RangeQueryAround(static_cast<ObjectId>(i), radius, &neighbors,
                           &chunk.stats);
          chunk.ids.insert(chunk.ids.end(), neighbors.begin(),
                           neighbors.end());
          chunk.counts.push_back(static_cast<uint32_t>(neighbors.size()));
        }
        return chunk;
      },
      [&](ChunkRows& chunk) {
        stats_ += chunk.stats;
        if (adjacency.ids.empty()) {
          adjacency.ids = std::move(chunk.ids);
        } else {
          adjacency.ids.insert(adjacency.ids.end(), chunk.ids.begin(),
                               chunk.ids.end());
        }
        for (uint32_t count : chunk.counts) {
          adjacency.offsets[row + 1] = adjacency.offsets[row] + count;
          ++row;
        }
      });
  return adjacency;
}

Result<std::unique_ptr<NeighborBackend>> CreateNeighborBackend(
    const Dataset& dataset, const DistanceMetric& metric,
    const NeighborBackendOptions& options, ThreadPool* pool) {
  DISC_RETURN_NOT_OK(CheckExactPointCap(dataset, metric, options));
  switch (options.kind) {
    case NeighborBackendKind::kExact: {
      auto backend = ExactMTreeBackend::Create(dataset, metric);
      if (!backend.ok()) return backend.status();
      return std::unique_ptr<NeighborBackend>(std::move(backend).value());
    }
    case NeighborBackendKind::kGrid:
      return std::unique_ptr<NeighborBackend>(
          std::make_unique<GridBackend>(dataset, metric));
    case NeighborBackendKind::kSharded: {
      auto backend = ShardedBackend::Create(dataset, metric, 0, pool);
      if (!backend.ok()) return backend.status();
      return std::unique_ptr<NeighborBackend>(std::move(backend).value());
    }
  }
  return Status::InvalidArgument("unknown neighbor backend kind");
}

}  // namespace disc
