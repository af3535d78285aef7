#include "neighbor/adjacency.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "util/parallel.h"

namespace disc {

namespace {

// The upper neighbors (j > i) of one chunk of consecutive rows: `ids`
// concatenates the rows in ascending row order, counts[k] is the k-th row's
// share.
struct UpperRows {
  std::vector<ObjectId> ids;
  std::vector<uint32_t> counts;
  uint64_t distance_calls = 0;
};

// Assembles the symmetric CSR from every row's upper neighbors (chunks in
// ascending row order). Each row comes out as its lower half (u < v) then
// its upper half (w > v), both ascending, without a per-row sort:
//   * pass 1 writes each source i, in ascending i, into the rows of its
//     upper neighbors, so every lower half fills in ascending order;
//   * pass 2 writes each row v, in ascending v, into the rows of the lower
//     neighbors pass 1 gave it, so every upper half fills in ascending
//     order. Rows whose upper neighbors already ascend (the brute scan)
//     skip it: pass 1 copies them into place instead.
CsrAdjacency AssembleUpperRows(size_t n, std::vector<UpperRows>& chunks,
                               bool upper_rows_sorted) {
  CsrAdjacency csr(n);
  std::vector<uint64_t>& offsets = csr.offsets;
  size_t edges = 0;
  size_t row = 0;
  for (const UpperRows& chunk : chunks) {
    for (uint32_t count : chunk.counts) offsets[++row] += count;
    for (ObjectId j : chunk.ids) ++offsets[j + 1];
    edges += chunk.ids.size();
  }
  assert(row == n);
  for (size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  csr.ids.resize(2 * edges);

  // cursor[v]: the next free slot of row v.
  std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  auto ids = csr.ids.begin();
  ObjectId i = 0;
  for (UpperRows& chunk : chunks) {
    auto next = chunk.ids.cbegin();
    for (uint32_t count : chunk.counts) {
      // Every source below i is placed, so cursor[i] ends i's lower half.
      if (upper_rows_sorted) std::copy(next, next + count, ids + cursor[i]);
      for (auto end = next + count; next != end; ++next) {
        ids[cursor[*next]++] = i;
      }
      ++i;
    }
    std::vector<ObjectId>().swap(chunk.ids);
  }
  if (!upper_rows_sorted) {
    // Pass 2 writes only rows below v, so cursor[v] still ends v's lower
    // half when v is reached.
    for (ObjectId v = 0; v < n; ++v) {
      for (uint64_t k = offsets[v], end = cursor[v]; k < end; ++k) {
        ids[cursor[ids[k]]++] = v;
      }
    }
  }
  return csr;
}

// Scans rows in chunks (in parallel when the pool has more than one
// thread; one chunk otherwise), then assembles the CSR.
template <typename ScanRows>
CsrAdjacency BuildFromUpperRows(size_t n, ThreadPool* pool,
                                bool upper_rows_sorted, ScanRows&& scan_rows,
                                uint64_t* distance_computations) {
  const size_t grain = pool == nullptr || pool->threads() <= 1
                           ? std::max<size_t>(n, 1)
                           : RecommendedGrain(n, pool->threads());
  std::vector<UpperRows> chunks;
  uint64_t distance_calls = 0;
  ParallelOrderedReduce<UpperRows>(
      pool, 0, n, grain,
      [&](size_t begin, size_t end) {
        UpperRows rows;
        rows.counts.reserve(end - begin);
        for (size_t i = begin; i < end; ++i) {
          const size_t before = rows.ids.size();
          scan_rows(static_cast<ObjectId>(i), &rows);
          rows.counts.push_back(static_cast<uint32_t>(rows.ids.size() - before));
        }
        return rows;
      },
      [&](UpperRows& rows) {
        distance_calls += rows.distance_calls;
        chunks.push_back(std::move(rows));
      });
  if (distance_computations != nullptr) {
    *distance_computations = distance_calls;
  }
  return AssembleUpperRows(n, chunks, upper_rows_sorted);
}

}  // namespace

bool GridCompatible(const DistanceMetric& metric, size_t dim, size_t n) {
  if (metric.kind() == MetricKind::kHamming) return false;
  // The grid pays off for large low-dimensional inputs; cell enumeration is
  // 3^dim per point, so cap the dimensionality.
  return dim >= 1 && dim <= 3 && n >= 256;
}

GridCellIndex::GridCellIndex(const Dataset& dataset, double radius)
    : radius_(radius), dim_(dataset.dim()) {
  assert(dim_ <= 3 && radius >= 0);
  cells_per_probe_ = 1;
  for (size_t d = 0; d < dim_; ++d) cells_per_probe_ *= 3;

  const size_t n = dataset.size();
  double max_abs = 0;
  for (ObjectId i = 0; i < n; ++i) {
    const Point& p = dataset.point(i);
    for (size_t d = 0; d < dim_; ++d) {
      max_abs = std::max(max_abs, std::abs(p[d]));
    }
  }
  // max_abs * 2^-52 * the golden ratio: see the class comment.
  width_ = std::max({radius, max_abs * 0x1.9e3779b97f4a8p-52,
                     std::numeric_limits<double>::min()});

  // Slot per distinct cell in first-seen order, then a counting sort of
  // the ids by slot: each cell lists its ids ascending.
  std::vector<uint32_t> slot_of(n);
  slots_.reserve(n);
  std::array<int64_t, 3> cell{};
  for (ObjectId i = 0; i < n; ++i) {
    const Point& p = dataset.point(i);
    for (size_t d = 0; d < dim_; ++d) cell[d] = CellCoordinate(p[d]);
    auto [it, inserted] = slots_.try_emplace(
        PackCell(cell), static_cast<uint32_t>(slots_.size()));
    slot_of[i] = it->second;
  }
  starts_.assign(slots_.size() + 1, 0);
  for (uint32_t slot : slot_of) ++starts_[slot + 1];
  for (size_t s = 0; s < slots_.size(); ++s) starts_[s + 1] += starts_[s];
  std::vector<uint32_t> cursor(starts_.begin(), starts_.end() - 1);
  ids_.resize(n);
  for (ObjectId i = 0; i < n; ++i) ids_[cursor[slot_of[i]]++] = i;
}

uint64_t GridCellIndex::PackCell(const std::array<int64_t, 3>& cell) const {
  uint64_t key = 0;
  for (size_t d = 0; d < dim_; ++d) {
    int64_t c = cell[d] + (1 << 20);
    key = (key << 21) | static_cast<uint64_t>(c & ((1 << 21) - 1));
  }
  return key;
}

CsrAdjacency BuildAdjacencyBruteForce(const Dataset& dataset,
                                      const DistanceMetric& metric,
                                      double radius, ThreadPool* pool) {
  // One distance computation per unordered pair: j starts above i (the
  // regression test in tests/neighborhood_test.cc pins the call count to
  // n(n-1)/2), so every row's upper neighbors come out ascending.
  const size_t n = dataset.size();
  return BuildFromUpperRows(
      n, pool, /*upper_rows_sorted=*/true,
      [&](ObjectId i, UpperRows* rows) {
        const Point& p = dataset.point(i);
        for (ObjectId j = i + 1; j < n; ++j) {
          if (metric.Distance(p, dataset.point(j)) <= radius) {
            rows->ids.push_back(j);
          }
        }
      },
      /*distance_computations=*/nullptr);
}

CsrAdjacency BuildAdjacencyWithGrid(const Dataset& dataset,
                                    const DistanceMetric& metric,
                                    double radius, ThreadPool* pool,
                                    uint64_t* distance_computations) {
  // The cell index is shared read-only once built. One distance
  // computation per unordered candidate pair: each row only looks above
  // itself in every cell, deduping the two enumerations that see the pair.
  // Upper neighbors arrive in cell order, not id order.
  const GridCellIndex cells(dataset, radius);
  return BuildFromUpperRows(
      dataset.size(), pool, /*upper_rows_sorted=*/false,
      [&](ObjectId i, UpperRows* rows) {
        const Point& p = dataset.point(i);
        cells.ForEachNearbyCell(p, [&](std::span<const ObjectId> cell) {
          for (auto j = std::upper_bound(cell.begin(), cell.end(), i);
               j != cell.end(); ++j) {
            ++rows->distance_calls;
            if (metric.Distance(p, dataset.point(*j)) <= radius) {
              rows->ids.push_back(*j);
            }
          }
        });
      },
      distance_computations);
}

}  // namespace disc
