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

// The upper neighbors (j > i) of one chunk of consecutive rows, each row
// ascending: `ids` concatenates the rows in ascending row order, counts[k]
// is the k-th row's share.
struct UpperRows {
  std::vector<ObjectId> ids;
  std::vector<uint32_t> counts;
};

// Assembles the symmetric CSR from every row's upper neighbors (chunks in
// ascending row order). Each row comes out as its lower half (u < v) then
// its upper half (w > v), both ascending, without a per-row sort: one pass
// in ascending source i copies i's upper neighbors into place behind its
// lower half, and writes i into each upper neighbor's row, so every lower
// half fills in ascending order.
CsrAdjacency AssembleUpperRows(size_t n, std::vector<UpperRows>& chunks) {
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
      std::copy(next, next + count, ids + cursor[i]);
      for (auto end = next + count; next != end; ++next) {
        ids[cursor[*next]++] = i;
      }
      ++i;
    }
    std::vector<ObjectId>().swap(chunk.ids);
  }
  return csr;
}

// The grain of a per-cell or per-row fan-out: one chunk without a pool.
size_t FanOutGrain(size_t count, ThreadPool* pool) {
  return pool == nullptr || pool->threads() <= 1
             ? std::max<size_t>(count, 1)
             : RecommendedGrain(count, pool->threads());
}

// Scans one block row: the distances from `a` to the `count` points at `b`
// (D coordinates each). Hit k sets bit pos + k of `words`, and with
// kMirror also bit mirror + k * mirror_stride, and adds one to col_hits[k];
// returns the row's hits. The caller's task owns every word it touches.
template <MetricKind K, size_t D, bool kMirror>
uint32_t ScanRow(const double* a, const double* b, size_t count,
                 double radius, uint64_t* words, uint64_t pos,
                 uint64_t mirror, uint64_t mirror_stride,
                 uint32_t* col_hits) {
  uint64_t* word = words + (pos >> 6);
  unsigned shift = pos & 63;
  uint64_t acc = 0;
  uint32_t hits = 0;
  for (size_t k = 0; k < count; ++k, b += D) {
    const uint32_t hit = MetricKernel<K>(a, b, D) <= radius;
    acc |= uint64_t{hit} << shift;
    hits += hit;
    col_hits[k] += hit;
    if constexpr (kMirror) {
      words[mirror >> 6] |= uint64_t{hit} << (mirror & 63);
      mirror += mirror_stride;
    }
    if (++shift == 64) {
      *word++ |= acc;
      acc = 0;
      shift = 0;
    }
  }
  if (shift != 0) *word |= acc;
  return hits;
}

// One candidate of a cell's rows: neighbor `id`, whose hit bit for the
// cell's local row l is bit base + l * stride of the blocks.
struct Candidate {
  uint64_t base;
  uint32_t stride;
  ObjectId id;
};

// Walks the candidates once for kRows consecutive rows (local l, l + 1,
// ...): row r's hits land in rows[r] in candidate order, branch-free, and
// their number in counts[r].
template <size_t kRows>
void WalkRows(std::span<const Candidate> candidates, const uint64_t* words,
              uint64_t l, ObjectId* const* rows, size_t* counts) {
  ObjectId* row[kRows];
  size_t count[kRows] = {};
  std::copy_n(rows, kRows, row);
  for (const Candidate& c : candidates) {
    const uint64_t stride = c.stride;
    const ObjectId id = c.id;
    uint64_t bit = c.base + l * stride;
#pragma GCC unroll 4
    for (size_t r = 0; r < kRows; ++r, bit += stride) {
      row[r][count[r]] = id;
      count[r] += (words[bit >> 6] >> (bit & 63)) & 1;
    }
  }
  std::copy_n(count, kRows, counts);
}

// The grid build for metric family K in dimension D. Cells are A, B; a
// cell's local index l numbers its ids ascending. The block of adjacent
// cells A < B holds bit l_A * |B| + l_B for every pair. Cell A's own block
// is |A| x |A|, symmetric with an empty diagonal: only l < l' is scanned,
// and each hit sets bits l * |A| + l' and l' * |A| + l. Blocks start on
// word boundaries, so each cell's task owns the words of its blocks.
template <MetricKind K, size_t D>
CsrAdjacency BuildGrid(const GridCellIndex& cells, size_t n, double radius,
                       ThreadPool* pool, uint64_t* distance_computations) {
  const size_t num_cells = cells.num_cells();
  // Per neighbor-list entry (cell A, neighbor B): the block A and B share,
  // as the entry index of its owner (the smaller cell) ...
  std::vector<size_t> entry_begin(num_cells + 1, 0);
  for (size_t a = 0; a < num_cells; ++a) {
    entry_begin[a + 1] = entry_begin[a] + cells.neighbor_cells(a).size();
  }
  std::vector<size_t> block(entry_begin[num_cells]);
  // ... and, on owned entries, the block's first bit and column counts.
  std::vector<uint64_t> bit_base(block.size());
  std::vector<uint64_t> col_base(block.size());
  uint64_t bits = 0;
  uint64_t cols = 0;
  uint64_t candidates = 0;
  for (size_t a = 0; a < num_cells; ++a) {
    const std::span<const uint32_t> neighbors = cells.neighbor_cells(a);
    const uint64_t size_a = cells.cell_ids(a).size();
    for (size_t k = 0; k < neighbors.size(); ++k) {
      const size_t b = neighbors[k];
      const size_t e = entry_begin[a] + k;
      if (b < a) {
        const std::span<const uint32_t> back = cells.neighbor_cells(b);
        const auto owner = std::lower_bound(back.begin(), back.end(), a);
        assert(owner != back.end() && *owner == a);
        block[e] = entry_begin[b] + static_cast<size_t>(owner - back.begin());
        continue;
      }
      const uint64_t size_b = cells.cell_ids(b).size();
      block[e] = e;
      bit_base[e] = bits;
      bits += (size_a * size_b + 63) & ~uint64_t{63};
      col_base[e] = cols;
      cols += size_b;
      candidates += b == a ? size_a * (size_a - 1) / 2 : size_a * size_b;
    }
  }
  if (distance_computations != nullptr) *distance_computations = candidates;

  // Phase 1, blocks: every cell scans its owned blocks, adding each row's
  // hits to its own objects' degrees (offsets[id + 1]).
  CsrAdjacency csr(n);
  uint64_t* degree = csr.offsets.data() + 1;
  std::vector<uint64_t> words(bits / 64, 0);
  std::vector<uint32_t> col_hits(cols, 0);
  const size_t grain = FanOutGrain(num_cells, pool);
  ParallelFor(pool, 0, num_cells, grain, [&](size_t begin, size_t end) {
    for (size_t a = begin; a < end; ++a) {
      const std::span<const ObjectId> ids_a = cells.cell_ids(a);
      const uint64_t size_a = ids_a.size();
      const double* coords_a = cells.cell_coords(a);
      const std::span<const uint32_t> neighbors = cells.neighbor_cells(a);
      for (size_t k = 0; k < neighbors.size(); ++k) {
        const size_t b = neighbors[k];
        const size_t e = entry_begin[a] + k;
        if (b < a) continue;
        const uint64_t base = bit_base[e];
        uint32_t* col = col_hits.data() + col_base[e];
        const uint64_t size_b = cells.cell_ids(b).size();
        const double* coords_b = cells.cell_coords(b);
        for (uint64_t l = 0; l < size_a; ++l) {
          const double* p = coords_a + l * D;
          if (b == a) {
            // The own block scans the ids above l and mirrors each hit.
            degree[ids_a[l]] += ScanRow<K, D, true>(
                p, p + D, size_a - l - 1, radius, words.data(),
                base + l * size_a + l + 1, base + (l + 1) * size_a + l, size_a,
                col + l + 1);
          } else {
            degree[ids_a[l]] +=
                ScanRow<K, D, false>(p, coords_b, size_b, radius, words.data(),
                                     base + l * size_b, 0, 0, col);
          }
        }
      }
    }
  });

  // Phase 2, count: every cell adds the column hits of the blocks it is
  // the larger cell of (its own included); then the offsets are exact.
  ParallelFor(pool, 0, num_cells, grain, [&](size_t begin, size_t end) {
    for (size_t a = begin; a < end; ++a) {
      const std::span<const ObjectId> ids_a = cells.cell_ids(a);
      const std::span<const uint32_t> neighbors = cells.neighbor_cells(a);
      for (size_t k = 0; k < neighbors.size() && neighbors[k] <= a; ++k) {
        const uint32_t* col =
            col_hits.data() + col_base[block[entry_begin[a] + k]];
        for (size_t l = 0; l < ids_a.size(); ++l) degree[ids_a[l]] += col[l];
      }
    }
  });
  std::vector<uint32_t>().swap(col_hits);
  std::vector<uint64_t>& offsets = csr.offsets;
  for (size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  csr.ids.resize(offsets[n]);

  // Phase 3, fill: every cell merges its neighbors' ids into one ascending
  // candidate list and walks it for its rows, four at a time, so each row
  // comes out sorted.
  constexpr size_t kRows = 4;
  ParallelFor(pool, 0, num_cells, grain, [&](size_t begin, size_t end) {
    std::vector<Candidate> list;
    std::vector<ObjectId> buffer;
    for (size_t a = begin; a < end; ++a) {
      const std::span<const ObjectId> ids_a = cells.cell_ids(a);
      const uint64_t size_a = ids_a.size();
      const std::span<const uint32_t> neighbors = cells.neighbor_cells(a);
      list.clear();
      for (size_t k = 0; k < neighbors.size(); ++k) {
        const size_t b = neighbors[k];
        const uint64_t base = bit_base[block[entry_begin[a] + k]];
        const std::span<const ObjectId> ids_b = cells.cell_ids(b);
        // Blocks owned by A (its own included) hold A's rows row-major; a
        // block owned by B holds B's rows, so A's rows are its columns.
        const uint32_t stride = static_cast<uint32_t>(
            b == a ? size_a : ids_b.size());
        for (uint64_t l = 0; l < ids_b.size(); ++l) {
          if (b < a) {
            list.push_back({base + l * size_a, 1, ids_b[l]});
          } else {
            list.push_back({base + l, stride, ids_b[l]});
          }
        }
      }
      std::sort(list.begin(), list.end(),
                [](const Candidate& x, const Candidate& y) {
                  return x.id < y.id;
                });
      buffer.resize(kRows * list.size());
      ObjectId* rows[kRows];
      for (size_t r = 0; r < kRows; ++r) {
        rows[r] = buffer.data() + r * list.size();
      }
      size_t counts[kRows];
      for (uint64_t l = 0; l < size_a; l += kRows) {
        const size_t batch = std::min<uint64_t>(kRows, size_a - l);
        if (batch == kRows) {
          WalkRows<kRows>(list, words.data(), l, rows, counts);
        } else {
          for (size_t r = 0; r < batch; ++r) {
            WalkRows<1>(list, words.data(), l + r, rows + r, counts + r);
          }
        }
        for (size_t r = 0; r < batch; ++r) {
          const ObjectId v = ids_a[l + r];
          assert(counts[r] == offsets[v + 1] - offsets[v]);
          std::copy_n(rows[r], counts[r], csr.ids.begin() + offsets[v]);
        }
      }
    }
  });
  return csr;
}

template <MetricKind K>
CsrAdjacency BuildGridForKind(const GridCellIndex& cells, size_t n,
                              double radius, ThreadPool* pool,
                              uint64_t* distance_computations) {
  switch (cells.dim()) {
    case 1:
      return BuildGrid<K, 1>(cells, n, radius, pool, distance_computations);
    case 2:
      return BuildGrid<K, 2>(cells, n, radius, pool, distance_computations);
    default:
      return BuildGrid<K, 3>(cells, n, radius, pool, distance_computations);
  }
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
  // the ids (and their coordinates) by slot: each cell lists its ids
  // ascending.
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
  coords_.resize(n * dim_);
  for (ObjectId i = 0; i < n; ++i) {
    const uint32_t k = cursor[slot_of[i]]++;
    ids_[k] = i;
    std::copy_n(dataset.point(i).data(), dim_, coords_.data() + k * dim_);
  }

  // Each cell's neighbor list, from the cell of its first (lowest) id.
  neighbor_starts_.assign(num_cells() + 1, 0);
  for (size_t c = 0; c < num_cells(); ++c) {
    const double* first = cell_coords(c);
    for (size_t d = 0; d < dim_; ++d) cell[d] = CellCoordinate(first[d]);
    const size_t begin = neighbors_.size();
    ForEachProbe(cell, [&](const uint32_t* neighbor) {
      if (neighbor != nullptr) neighbors_.push_back(*neighbor);
    });
    std::sort(neighbors_.begin() + begin, neighbors_.end());
    neighbor_starts_[c + 1] = static_cast<uint32_t>(neighbors_.size());
  }
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
  std::vector<UpperRows> chunks;
  ParallelOrderedReduce<UpperRows>(
      pool, 0, n, FanOutGrain(n, pool),
      [&](size_t begin, size_t end) {
        UpperRows rows;
        rows.counts.reserve(end - begin);
        for (size_t i = begin; i < end; ++i) {
          const size_t before = rows.ids.size();
          const Point& p = dataset.point(i);
          for (ObjectId j = i + 1; j < n; ++j) {
            if (metric.Distance(p, dataset.point(j)) <= radius) {
              rows.ids.push_back(j);
            }
          }
          rows.counts.push_back(
              static_cast<uint32_t>(rows.ids.size() - before));
        }
        return rows;
      },
      [&](UpperRows& rows) { chunks.push_back(std::move(rows)); });
  return AssembleUpperRows(n, chunks);
}

CsrAdjacency BuildAdjacencyWithGrid(const Dataset& dataset,
                                    const DistanceMetric& metric,
                                    double radius, ThreadPool* pool,
                                    uint64_t* distance_computations) {
  // One dispatch to the metric family's kernel and the dimension; the cell
  // index is shared read-only by the three phases.
  const GridCellIndex cells(dataset, radius);
  const size_t n = dataset.size();
  switch (metric.kind()) {
    case MetricKind::kEuclidean:
      return BuildGridForKind<MetricKind::kEuclidean>(cells, n, radius, pool,
                                                      distance_computations);
    case MetricKind::kManhattan:
      return BuildGridForKind<MetricKind::kManhattan>(cells, n, radius, pool,
                                                      distance_computations);
    case MetricKind::kChebyshev:
      return BuildGridForKind<MetricKind::kChebyshev>(cells, n, radius, pool,
                                                      distance_computations);
    case MetricKind::kHamming:
      break;
  }
  assert(false && "BuildAdjacencyWithGrid requires GridCompatible");
  return BuildAdjacencyBruteForce(dataset, metric, radius, pool);
}

}  // namespace disc
