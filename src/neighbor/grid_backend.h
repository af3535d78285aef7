// GridBackend: the uniform-grid accelerator behind the NeighborBackend
// interface. Exact — identical neighbor sets to the brute-force scan.
//
// Batched builds reuse the shared adjacency builders (neighbor/adjacency.h),
// paying the cell-index price once per build. Point queries probe the 3^dim
// surrounding cells of the same GridCellIndex, built lazily for the latest
// radius only (a query holds its index alive, so replacing it under a
// running query at the old radius is safe). When the grid does not
// apply (Hamming metric, dim > 3, tiny inputs) every path falls back to the
// exact O(n^2)/O(n) scans — the fallback CheckExactPointCap's
// max_exact_points cap guards against at daemon scale.
//
// Accounting: each point query charges one range query, one node access per
// probed cell (or one for a brute fallback scan), and one distance
// computation per verified candidate. Batched grid builds charge n range
// queries, n * 3^dim cell probes, and the exact candidate-pair count.

#ifndef DISC_NEIGHBOR_GRID_BACKEND_H_
#define DISC_NEIGHBOR_GRID_BACKEND_H_

#include <memory>
#include <mutex>
#include <optional>
#include <vector>

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

  /// The radius whose point-query cell index is retained, if any: only the
  /// latest radius's is kept.
  std::optional<double> index_radius() const;

 protected:
  void DoRangeQuery(const Point& center, ObjectId exclude, double radius,
                    std::vector<ObjectId>* out,
                    AccessStats* sink) const override;

 private:
  /// Returns the cell index for this radius, replacing the retained one
  /// when the radius differs. The index is immutable; the mutex guards only
  /// the slot.
  std::shared_ptr<const GridCellIndex> EnsureIndex(double radius) const;

  mutable std::mutex mutex_;
  mutable std::shared_ptr<const GridCellIndex> index_;
};

}  // namespace disc

#endif  // DISC_NEIGHBOR_GRID_BACKEND_H_
