#include "neighbor/backend.h"

#include <cmath>
#include <cstdint>
#include <string>

namespace disc {

const char* NeighborBackendKindToString(NeighborBackendKind kind) {
  switch (kind) {
    case NeighborBackendKind::kExact:
      return "exact";
    case NeighborBackendKind::kGrid:
      return "grid";
  }
  return "unknown";
}

Result<NeighborBackendKind> ParseNeighborBackendKind(const std::string& name) {
  if (name == "exact") return NeighborBackendKind::kExact;
  if (name == "grid") return NeighborBackendKind::kGrid;
  return Status::InvalidArgument("unknown neighbor backend '" + name +
                                 "' (want one of: exact, grid)");
}

Status CheckExactPointCap(const Dataset& dataset, const DistanceMetric& metric,
                          const NeighborBackendOptions& options) {
  const size_t n = dataset.size();
  if (options.max_exact_points == 0 || n <= options.max_exact_points) {
    return Status::OK();
  }
  // Where the grid applies it builds the exact graph in near-linear time;
  // where it does not, a grid build degrades to the O(n^2) scan — exactly
  // the silent-fallback OOM the cap guards — and the M-tree is the faster
  // exact path.
  const bool grid = GridCompatible(metric, dataset.dim(), n);
  if (grid == (options.kind == NeighborBackendKind::kGrid)) {
    return Status::OK();
  }
  std::string message = "dataset has " + std::to_string(n) +
                        " points, above the exact-backend cap of " +
                        std::to_string(options.max_exact_points) + "; ";
  if (grid) {
    return Status::InvalidArgument(message + "use the grid neighbor backend");
  }
  return Status::InvalidArgument(
      message + "the grid would fall back to the O(n^2) scan (" +
      metric.name() + " metric, dim " + std::to_string(dataset.dim()) +
      "), so use the exact neighbor backend");
}

CsrAdjacency BuildAdjacency(const Dataset& dataset,
                            const DistanceMetric& metric, double radius,
                            ThreadPool* pool, AccessStats* charge) {
  const size_t n = dataset.size();
  AccessStats batch;
  batch.range_queries = n;
  CsrAdjacency adjacency;
  if (GridCompatible(metric, dataset.dim(), n)) {
    uint64_t distance_calls = 0;
    adjacency =
        BuildAdjacencyWithGrid(dataset, metric, radius, pool, &distance_calls);
    batch.node_accesses = static_cast<uint64_t>(n) *
                          static_cast<uint64_t>(std::pow(3.0, dataset.dim()));
    batch.distance_computations = distance_calls;
  } else {
    adjacency = BuildAdjacencyBruteForce(dataset, metric, radius, pool);
    batch.node_accesses = n;
    batch.distance_computations =
        n > 1 ? static_cast<uint64_t>(n) * (n - 1) / 2 : 0;
  }
  if (charge != nullptr) *charge += batch;
  return adjacency;
}

Result<std::unique_ptr<NeighborBackend>> CreateNeighborBackend(
    const Dataset& dataset, const DistanceMetric& metric,
    const NeighborBackendOptions& options, ThreadPool* /*unused*/) {
  DISC_RETURN_NOT_OK(CheckExactPointCap(dataset, metric, options));
  if (options.kind == NeighborBackendKind::kExact) {
    return Status::InvalidArgument(
        "the exact kind is the M-tree session engine, which "
        "DiscEngine::Create builds; it has no graph-mode backend");
  }
  return std::make_unique<NeighborBackend>(dataset, metric);
}

}  // namespace disc
