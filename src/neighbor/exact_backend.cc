#include "neighbor/exact_backend.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/parallel.h"

namespace disc {

Result<std::unique_ptr<ExactMTreeBackend>> ExactMTreeBackend::Create(
    const Dataset& dataset, const DistanceMetric& metric,
    MTreeOptions options) {
  auto tree = std::make_unique<MTree>(dataset, metric, options);
  DISC_RETURN_NOT_OK(tree->Build());
  // Construction costs stay out of the query accounting.
  tree->ResetStats();
  return std::unique_ptr<ExactMTreeBackend>(
      new ExactMTreeBackend(dataset, metric, std::move(tree)));
}

Result<CsrAdjacency> ExactMTreeBackend::BuildNeighborhoods(
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
        MTree::ThreadStatsScope scope(*tree_, &chunk.stats);
        std::vector<Neighbor> found;
        for (size_t i = chunk_begin; i < chunk_end; ++i) {
          found.clear();
          tree_->RangeQueryAround(static_cast<ObjectId>(i), radius,
                                  QueryFilter::kAll, /*pruned=*/false,
                                  &found);
          const size_t row_begin = chunk.ids.size();
          for (const Neighbor& nb : found) chunk.ids.push_back(nb.id);
          std::sort(chunk.ids.begin() + row_begin, chunk.ids.end());
          chunk.counts.push_back(static_cast<uint32_t>(found.size()));
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

}  // namespace disc
