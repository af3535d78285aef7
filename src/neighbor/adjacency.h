// The adjacency format of G_{P,r} and the shared builders for it.
//
// CsrAdjacency is the one adjacency format: compressed sparse rows, i.e.
// n + 1 offsets plus one id array, every row N_r(v) sorted ascending and
// excluding v. NeighborhoodGraph wraps it, the neighbor backends produce it
// (neighbor/backend.h), and the eval layer compares two of them.
//
// The free functions are the two M-tree-free build paths: the exact O(n^2)
// pairwise scan and the uniform-grid accelerator. They live in the neighbor
// layer so both NeighborhoodGraph (the graph-layer facade) and the neighbor
// backends share one implementation — the builders are the ground truth
// every other backend is measured against, so there must be exactly one
// copy of them.
//
// Both builders follow the util/parallel.h determinism contract: the object
// range splits into chunks by a pure function of (0, n, grain), and each
// chunk records only its rows' upper neighbors (j > i). Those rows are then
// scattered into CSR in ascending source order, which leaves every row
// sorted without a per-row sort, so the result is byte-identical for every
// thread count.

#ifndef DISC_NEIGHBOR_ADJACENCY_H_
#define DISC_NEIGHBOR_ADJACENCY_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "data/dataset.h"
#include "metric/metric.h"

namespace disc {

class ThreadPool;  // util/parallel.h

/// Compressed-sparse-row adjacency: row v is ids[offsets[v], offsets[v+1]),
/// holding N_r(v) as object ids sorted ascending, excluding v itself.
struct CsrAdjacency {
  CsrAdjacency() = default;
  /// An edgeless structure over `vertices` objects.
  explicit CsrAdjacency(size_t vertices) : offsets(vertices + 1, 0) {}

  /// size() + 1 entries, offsets[0] == 0, offsets.back() == ids.size().
  std::vector<uint64_t> offsets = {0};
  /// Every row's ids, concatenated in row order.
  std::vector<ObjectId> ids;

  /// Number of rows (objects).
  size_t size() const { return offsets.size() - 1; }
  std::span<const ObjectId> row(ObjectId v) const {
    return {ids.data() + offsets[v], degree(v)};
  }
  size_t degree(ObjectId v) const { return offsets[v + 1] - offsets[v]; }
  /// Undirected edge count: a symmetric structure stores each edge twice.
  size_t num_edges() const { return ids.size() / 2; }

  bool operator==(const CsrAdjacency&) const = default;
};

/// Whether the uniform-grid accelerator applies: it requires that
/// dist(p, q) <= r implies every coordinate difference is <= r (true for
/// Euclidean / Manhattan / Chebyshev, not Hamming), pays off only for large
/// inputs, and enumerates 3^dim cells per point, so dimensionality is capped
/// at 3.
bool GridCompatible(const DistanceMetric& metric, size_t dim, size_t n);

/// Points hashed into cells of side w >= r: any pair within distance r lies
/// in the same or an adjacent cell along every axis. The one cell index
/// behind both the grid builder below and GridBackend's point queries.
/// Requires GridCompatible (dim <= 3) and radius >= 0; immutable once built.
///
/// The side is w = max(r, M * phi * 2^-52, DBL_MIN), M the dataset's
/// largest |coordinate| and phi the golden ratio, so for every realistic r
/// the cells are exactly side r. The floor only applies at r = 0 or a tiny
/// r, where floor(x / r) would divide by zero or overflow: the dataset's
/// cell coordinates then stay within +/-2^52 and resolve points about one
/// ulp of M apart. Keys pack each axis's low 21 bits, so cells 2^21 apart
/// share a slot; the aliased candidates are distance-checked like any other.
/// The irrational phi keeps data on a power-of-two lattice (coordinates
/// k * M / 2^j) from landing on cell coordinates that share all 21 low bits
/// and piling into one slot.
class GridCellIndex {
 public:
  GridCellIndex(const Dataset& dataset, double radius);

  double radius() const { return radius_; }

  /// Calls visit(ids) for each of the 3^dim cells around `p` (the same or
  /// adjacent along every axis) in a fixed order. `ids` lists the cell's
  /// objects ascending and is empty for a cell with no points.
  template <typename Visit>
  void ForEachNearbyCell(const Point& p, Visit&& visit) const {
    std::array<int64_t, 3> base{};
    std::array<int64_t, 3> probe{};
    for (size_t d = 0; d < dim_; ++d) base[d] = CellCoordinate(p[d]);
    for (size_t mask = 0; mask < cells_per_probe_; ++mask) {
      size_t rem = mask;
      for (size_t d = 0; d < dim_; ++d) {
        probe[d] = base[d] + static_cast<int64_t>(rem % 3) - 1;
        rem /= 3;
      }
      auto it = slots_.find(PackCell(probe));
      if (it == slots_.end()) {
        visit(std::span<const ObjectId>());
      } else {
        const size_t slot = it->second;
        visit(std::span<const ObjectId>(ids_.data() + starts_[slot],
                                        starts_[slot + 1] - starts_[slot]));
      }
    }
  }

 private:
  /// The clamp keeps the cast defined for query points far outside the
  /// dataset relative to w. It never separates two points within r:
  /// clamping moves no pair of coordinates further apart.
  int64_t CellCoordinate(double x) const {
    return static_cast<int64_t>(
        std::clamp(std::floor(x / width_), -0x1p62, 0x1p62));
  }
  /// Packs up to 3 cell coordinates (21 bits each, offset to stay positive)
  /// into one hash key.
  uint64_t PackCell(const std::array<int64_t, 3>& cell) const;

  double radius_;
  double width_;
  size_t dim_;
  /// 3^dim: the cells ForEachNearbyCell visits per point.
  size_t cells_per_probe_;
  /// Cell key -> slot; slot s holds ids_[starts_[s], starts_[s + 1]).
  std::unordered_map<uint64_t, uint32_t> slots_;
  std::vector<uint32_t> starts_;
  std::vector<ObjectId> ids_;
};

/// Exact O(n^2) pairwise scan: one distance computation per unordered pair.
/// The edge count is the result's num_edges().
CsrAdjacency BuildAdjacencyBruteForce(const Dataset& dataset,
                                      const DistanceMetric& metric,
                                      double radius, ThreadPool* pool);

/// Uniform-grid accelerated scan (requires GridCompatible):
/// compares only same-or-adjacent cell pairs — still exactly one distance
/// computation per unordered candidate pair — and produces the identical
/// structure BuildAdjacencyBruteForce does. When `distance_computations` is
/// non-null it receives the number of metric evaluations performed (the
/// candidate-pair count), accumulated in chunk order so the total is
/// thread-count independent.
CsrAdjacency BuildAdjacencyWithGrid(const Dataset& dataset,
                                    const DistanceMetric& metric,
                                    double radius, ThreadPool* pool,
                                    uint64_t* distance_computations = nullptr);

}  // namespace disc

#endif  // DISC_NEIGHBOR_ADJACENCY_H_
