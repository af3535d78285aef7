#include "neighbor/backend.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <utility>

#include "neighbor/exact_backend.h"
#include "neighbor/grid_backend.h"
#include "neighbor/lsh_backend.h"
#include "neighbor/sharded_backend.h"
#include "util/parallel.h"

namespace disc {

namespace {

// Row v of the result lists every u whose row in `adjacency` lists v.
// Sources are scattered in ascending order, so every row comes out sorted.
CsrAdjacency Transpose(const CsrAdjacency& adjacency) {
  const size_t n = adjacency.size();
  CsrAdjacency reverse(n);
  for (ObjectId v : adjacency.ids) ++reverse.offsets[v + 1];
  for (size_t v = 0; v < n; ++v) {
    reverse.offsets[v + 1] += reverse.offsets[v];
  }
  reverse.ids.resize(adjacency.ids.size());
  std::vector<uint64_t> cursor(reverse.offsets.begin(),
                               reverse.offsets.end() - 1);
  for (ObjectId u = 0; u < n; ++u) {
    for (ObjectId v : adjacency.row(u)) reverse.ids[cursor[v]++] = u;
  }
  return reverse;
}

// The symmetric closure: row v becomes the union of its own row and every
// u whose row lists v. Rows are sorted on entry and stay sorted on exit.
// Approximate backends need this — a hash probe from i can find j while
// the probe from j misses i — and a symmetric union only ever ADDS true
// neighbors (every reported id is distance-verified), so recall can only
// improve.
CsrAdjacency SymmetrizeAdjacency(const CsrAdjacency& adjacency) {
  const CsrAdjacency reverse = Transpose(adjacency);
  const size_t n = adjacency.size();
  CsrAdjacency symmetric(n);
  symmetric.ids.reserve(adjacency.ids.size());
  for (ObjectId v = 0; v < n; ++v) {
    const auto own = adjacency.row(v);
    const auto back = reverse.row(v);
    std::set_union(own.begin(), own.end(), back.begin(), back.end(),
                   std::back_inserter(symmetric.ids));
    symmetric.offsets[v + 1] = symmetric.ids.size();
  }
  return symmetric;
}

}  // namespace

const char* NeighborBackendKindToString(NeighborBackendKind kind) {
  switch (kind) {
    case NeighborBackendKind::kExact:
      return "exact";
    case NeighborBackendKind::kGrid:
      return "grid";
    case NeighborBackendKind::kLsh:
      return "lsh";
    case NeighborBackendKind::kSharded:
      return "sharded";
    case NeighborBackendKind::kLshSharded:
      return "lsh-sharded";
  }
  return "unknown";
}

Result<NeighborBackendKind> ParseNeighborBackendKind(const std::string& name) {
  if (name == "exact") return NeighborBackendKind::kExact;
  if (name == "grid") return NeighborBackendKind::kGrid;
  if (name == "lsh") return NeighborBackendKind::kLsh;
  if (name == "sharded") return NeighborBackendKind::kSharded;
  if (name == "lsh-sharded") return NeighborBackendKind::kLshSharded;
  return Status::InvalidArgument(
      "unknown neighbor backend '" + name +
      "' (want exact, grid, lsh, sharded, or lsh-sharded)");
}

bool NeighborBackendIsExact(NeighborBackendKind kind) {
  return kind != NeighborBackendKind::kLsh &&
         kind != NeighborBackendKind::kLshSharded;
}

std::string NeighborBackendCacheKey(const NeighborBackendOptions& options) {
  std::string key = NeighborBackendKindToString(options.kind);
  const bool sharded = options.kind == NeighborBackendKind::kSharded ||
                       options.kind == NeighborBackendKind::kLshSharded;
  const bool lsh = options.kind == NeighborBackendKind::kLsh ||
                   options.kind == NeighborBackendKind::kLshSharded;
  if (lsh) {
    char knobs[96];
    std::snprintf(knobs, sizeof(knobs), ":t%zu:h%zu:p%zu:w%g:s%llu",
                  options.lsh.tables, options.lsh.hashes, options.lsh.probes,
                  options.lsh.width_factor,
                  static_cast<unsigned long long>(options.lsh.seed));
    key += knobs;
  }
  if (sharded && options.shards != 0) {
    key += ":n" + std::to_string(options.shards);
  }
  return key;
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
    std::vector<ObjectId> ids;
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
  if (!exact()) return SymmetrizeAdjacency(adjacency);
  return adjacency;
}

Result<std::unique_ptr<NeighborBackend>> CreateNeighborBackend(
    const Dataset& dataset, const DistanceMetric& metric,
    const NeighborBackendOptions& options, ThreadPool* pool) {
  const size_t n = dataset.size();
  const bool capped = options.max_exact_points > 0;
  switch (options.kind) {
    case NeighborBackendKind::kExact: {
      if (capped && n > options.max_exact_points) {
        return Status::InvalidArgument(
            "dataset has " + std::to_string(n) +
            " points, above the exact-backend cap of " +
            std::to_string(options.max_exact_points) +
            "; use the sharded, lsh, or lsh-sharded neighbor backend");
      }
      auto backend = ExactMTreeBackend::Create(dataset, metric);
      if (!backend.ok()) return backend.status();
      return std::unique_ptr<NeighborBackend>(std::move(backend).value());
    }
    case NeighborBackendKind::kGrid: {
      // When the grid does not apply, every batched build degrades to the
      // O(n^2) scan — exactly the silent-fallback OOM the cap guards.
      if (capped && n > options.max_exact_points &&
          !GridCompatible(metric, dataset.dim(), n)) {
        return Status::InvalidArgument(
            "grid backend would fall back to the O(n^2) scan (" +
            std::string(metric.name()) + " metric, dim " +
            std::to_string(dataset.dim()) + ") over " + std::to_string(n) +
            " points, above the cap of " +
            std::to_string(options.max_exact_points) +
            "; use the sharded, lsh, or lsh-sharded neighbor backend");
      }
      return std::unique_ptr<NeighborBackend>(
          std::make_unique<GridBackend>(dataset, metric));
    }
    case NeighborBackendKind::kLsh: {
      if (metric.kind() == MetricKind::kHamming) {
        return Status::InvalidArgument(
            "lsh neighbor backend does not support the hamming metric "
            "(no p-stable projection for unordered categories); use exact "
            "or sharded");
      }
      return std::unique_ptr<NeighborBackend>(
          std::make_unique<LshBackend>(dataset, metric, options.lsh));
    }
    case NeighborBackendKind::kSharded:
    case NeighborBackendKind::kLshSharded: {
      if (options.kind == NeighborBackendKind::kLshSharded &&
          metric.kind() == MetricKind::kHamming) {
        return Status::InvalidArgument(
            "lsh-sharded neighbor backend does not support the hamming "
            "metric (no p-stable projection for unordered categories); use "
            "exact or sharded");
      }
      auto backend = ShardedBackend::Create(dataset, metric, options, pool);
      if (!backend.ok()) return backend.status();
      return std::unique_ptr<NeighborBackend>(std::move(backend).value());
    }
  }
  return Status::InvalidArgument("unknown neighbor backend kind");
}

}  // namespace disc
