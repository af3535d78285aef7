// GridBackend: the uniform-grid accelerator behind the NeighborBackend
// interface. Exact — identical neighbor sets to the brute-force scan.
//
// Builds reuse the shared adjacency builders (neighbor/adjacency.h), paying
// the cell-index price once per build. When the grid does not apply
// (Hamming metric, dim > 3, tiny inputs) the build falls back to the exact
// O(n^2) scan — the fallback CheckExactPointCap's max_exact_points cap
// refuses at daemon scale, pointing at the exact M-tree backend instead.
//
// Accounting: a grid build charges n range queries, n * 3^dim cell probes,
// and the exact candidate-pair count; a scan charges n range queries, n
// node accesses and n(n-1)/2 distances.

#ifndef DISC_NEIGHBOR_GRID_BACKEND_H_
#define DISC_NEIGHBOR_GRID_BACKEND_H_

#include "neighbor/backend.h"

namespace disc {

class GridBackend final : public NeighborBackend {
 public:
  GridBackend(const Dataset& dataset, const DistanceMetric& metric)
      : NeighborBackend(dataset, metric) {}

  NeighborBackendKind kind() const override {
    return NeighborBackendKind::kGrid;
  }

  Result<CsrAdjacency> BuildNeighborhoods(double radius,
                                          ThreadPool* pool) const override;
};

}  // namespace disc

#endif  // DISC_NEIGHBOR_GRID_BACKEND_H_
