#include "neighbor/backend.h"

#include <string>
#include <utility>

#include "neighbor/exact_backend.h"
#include "neighbor/grid_backend.h"

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

std::string NeighborBackendCacheKey(const NeighborBackendOptions& options) {
  return NeighborBackendKindToString(options.kind);
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

Result<std::unique_ptr<NeighborBackend>> CreateNeighborBackend(
    const Dataset& dataset, const DistanceMetric& metric,
    const NeighborBackendOptions& options, ThreadPool* /*unused*/) {
  DISC_RETURN_NOT_OK(CheckExactPointCap(dataset, metric, options));
  switch (options.kind) {
    case NeighborBackendKind::kExact: {
      auto backend = ExactMTreeBackend::Create(
          dataset, metric, ExactMTreeBackend::DefaultTreeOptions());
      if (!backend.ok()) return backend.status();
      return std::unique_ptr<NeighborBackend>(std::move(backend).value());
    }
    case NeighborBackendKind::kGrid:
      return std::unique_ptr<NeighborBackend>(
          std::make_unique<GridBackend>(dataset, metric));
  }
  return Status::InvalidArgument("unknown neighbor backend kind");
}

}  // namespace disc
