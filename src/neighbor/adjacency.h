// The adjacency format of G_{P,r} and the shared builders for it.
//
// CsrAdjacency is the one adjacency format: compressed sparse rows, i.e.
// n + 1 offsets plus one id array, every row N_r(v) sorted ascending and
// excluding v. NeighborhoodGraph wraps it, and BuildAdjacency
// (neighbor/backend.h) and MTree::BuildNeighborhoods produce it.
//
// The free functions are the two M-tree-free build paths: the exact O(n^2)
// pairwise scan and the uniform-grid accelerator. BuildAdjacency picks
// between them (GridCompatible) for NeighborhoodGraph and graph mode alike.
//
// Both builders compute exactly one distance per unordered candidate pair
// and leave every row sorted without a per-row sort, and both follow the
// util/parallel.h determinism contract, so the result is byte-identical
// for every thread count:
//   * the brute scan splits the rows into chunks by a pure function of
//     (0, n, grain); each chunk records its rows' upper neighbors (j > i),
//     already ascending, and one pass in ascending source order copies
//     them into place and scatters each source into its neighbors' lower
//     halves;
//   * the grid build is cell-major count-then-fill. Each pair of adjacent
//     cells (A <= B) is scanned once into a block of hit bits, one bit per
//     candidate pair; degrees come from the scan, so the offsets are exact
//     before the id array is allocated; then each cell merges its neighbor
//     cells' ids into one ascending candidate list and fills its rows by
//     walking that list against the blocks. The fan-outs are per cell,
//     and every cell writes only its own blocks, degrees and rows.

#ifndef DISC_NEIGHBOR_ADJACENCY_H_
#define DISC_NEIGHBOR_ADJACENCY_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "metric/metric.h"

namespace disc {

class ThreadPool;  // util/parallel.h

/// std::allocator, except that value-less construction default-initializes:
/// resizing an id array leaves the new ids unwritten, so a builder sizes
/// the array once and the fan-out that fills it is the first to touch its
/// pages (on the workers, not in one serial zero-fill).
template <typename T>
struct UninitializedAllocator : std::allocator<T> {
  UninitializedAllocator() = default;
  template <typename U>
  UninitializedAllocator(const UninitializedAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// Compressed-sparse-row adjacency: row v is ids[offsets[v], offsets[v+1]),
/// holding N_r(v) as object ids sorted ascending, excluding v itself.
struct CsrAdjacency {
  CsrAdjacency() = default;
  /// An edgeless structure over `vertices` objects.
  explicit CsrAdjacency(size_t vertices) : offsets(vertices + 1, 0) {}

  /// size() + 1 entries, offsets[0] == 0, offsets.back() == ids.size().
  std::vector<uint64_t> offsets = {0};
  /// Every row's ids, concatenated in row order.
  std::vector<ObjectId, UninitializedAllocator<ObjectId>> ids;

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
/// in the same or an adjacent cell along every axis. The cell index behind
/// the grid builder below.
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
///
/// Occupied cells are numbered 0..num_cells()-1 in order of their lowest
/// id. Per cell the index keeps its ids (ascending), their coordinates as
/// one cell-ordered n x dim block, and the list of occupied cells around it
/// (itself included), looked up once per cell. A slot's neighbor list
/// depends only on its key, so aliased cells share it.
class GridCellIndex {
 public:
  GridCellIndex(const Dataset& dataset, double radius);

  double radius() const { return radius_; }
  size_t dim() const { return dim_; }
  size_t num_cells() const { return starts_.size() - 1; }

  /// The objects of `cell`, ascending.
  std::span<const ObjectId> cell_ids(size_t cell) const {
    return {ids_.data() + starts_[cell], starts_[cell + 1] - starts_[cell]};
  }
  /// The coordinates of cell_ids(cell), dim() doubles per object.
  const double* cell_coords(size_t cell) const {
    return coords_.data() + size_t{starts_[cell]} * dim_;
  }
  /// The occupied cells that share a key with one of the 3^dim cells
  /// around `cell`, ascending; `cell` is among them.
  std::span<const uint32_t> neighbor_cells(size_t cell) const {
    return {neighbors_.data() + neighbor_starts_[cell],
            neighbor_starts_[cell + 1] - neighbor_starts_[cell]};
  }

 private:
  /// Calls visit(cell) for each of the 3^dim cells around `base` in a fixed
  /// order, with a pointer to the occupied cell's number or nullptr.
  template <typename Visit>
  void ForEachProbe(const std::array<int64_t, 3>& base, Visit&& visit) const {
    std::array<int64_t, 3> probe{};
    for (size_t mask = 0; mask < cells_per_probe_; ++mask) {
      size_t rem = mask;
      for (size_t d = 0; d < dim_; ++d) {
        probe[d] = base[d] + static_cast<int64_t>(rem % 3) - 1;
        rem /= 3;
      }
      auto it = slots_.find(PackCell(probe));
      visit(it == slots_.end() ? nullptr : &it->second);
    }
  }

  /// The clamp keeps the cast defined for any x. It never separates two
  /// points within r: clamping moves no pair of coordinates further apart.
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
  /// 3^dim: the cells ForEachProbe visits per cell.
  size_t cells_per_probe_;
  /// Cell key -> cell; cell c holds ids_[starts_[c], starts_[c + 1]).
  std::unordered_map<uint64_t, uint32_t> slots_;
  std::vector<uint32_t> starts_;
  std::vector<ObjectId> ids_;
  /// coords_[k * dim_ + d] is coordinate d of ids_[k].
  std::vector<double> coords_;
  /// Cell c's neighbor_cells() are neighbors_[neighbor_starts_[c], ...).
  std::vector<uint32_t> neighbor_starts_;
  std::vector<uint32_t> neighbors_;
};

/// Exact O(n^2) pairwise scan: one distance computation per unordered pair.
/// The edge count is the result's num_edges().
CsrAdjacency BuildAdjacencyBruteForce(const Dataset& dataset,
                                      const DistanceMetric& metric,
                                      double radius, ThreadPool* pool);

/// Uniform-grid accelerated build (requires GridCompatible): compares only
/// same-or-adjacent cell pairs — exactly one distance per unordered
/// candidate pair, through the metric family's inline MetricKernel rather
/// than the virtual Distance — and produces the identical structure
/// BuildAdjacencyBruteForce does. When `distance_computations` is non-null
/// it receives the candidate-pair count, the number of distances computed.
CsrAdjacency BuildAdjacencyWithGrid(const Dataset& dataset,
                                    const DistanceMetric& metric,
                                    double radius, ThreadPool* pool,
                                    uint64_t* distance_computations = nullptr);

}  // namespace disc

#endif  // DISC_NEIGHBOR_ADJACENCY_H_
