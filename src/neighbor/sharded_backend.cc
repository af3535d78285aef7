#include "neighbor/sharded_backend.h"

#include <algorithm>
#include <utility>

#include "neighbor/exact_backend.h"
#include "util/parallel.h"

namespace disc {

size_t ShardedBackend::DefaultShardCount(size_t n) {
  // Purely a function of n so results and accounting never depend on the
  // machine: enough shards to matter at scale, no pointless splitting of
  // small inputs.
  if (n >= 262144) return 16;
  if (n >= 32768) return 8;
  if (n >= 4096) return 4;
  return 2;
}

Result<std::unique_ptr<ShardedBackend>> ShardedBackend::Create(
    const Dataset& dataset, const DistanceMetric& metric,
    size_t shard_count, ThreadPool* pool) {
  const size_t n = dataset.size();
  if (n == 0) {
    return Status::InvalidArgument("cannot shard an empty dataset");
  }
  size_t count =
      shard_count != 0 ? shard_count : DefaultShardCount(n);
  count = std::min(count, n);  // at least one point per shard

  // Contiguous ranges via the same arithmetic as util/parallel.h chunking:
  // ceil-divided grain, last shard takes the remainder.
  const size_t grain = (n + count - 1) / count;
  std::vector<Shard> shards;
  for (size_t begin = 0; begin < n; begin += grain) {
    Shard shard;
    shard.begin = static_cast<ObjectId>(begin);
    shard.local = std::make_unique<Dataset>(dataset.dim());
    const size_t end = std::min(begin + grain, n);
    for (size_t i = begin; i < end; ++i) {
      DISC_RETURN_NOT_OK(shard.local->Add(dataset.point(i)));
    }
    shards.push_back(std::move(shard));
  }

  // Inner builds are independent (each touches only its own slice), so they
  // fan out across the pool; per-shard statuses are checked afterwards in
  // shard order.
  std::vector<Status> statuses(shards.size());
  ParallelFor(pool, 0, shards.size(), 1, [&](size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) {
      Shard& shard = shards[s];
      auto built = ExactMTreeBackend::Create(*shard.local, metric);
      if (!built.ok()) {
        statuses[s] = built.status();
        continue;
      }
      shard.backend = std::move(built).value();
    }
  });
  for (const Status& status : statuses) DISC_RETURN_NOT_OK(status);

  return std::unique_ptr<ShardedBackend>(
      new ShardedBackend(dataset, metric, std::move(shards)));
}

void ShardedBackend::DoRangeQuery(const Point& center, ObjectId exclude,
                                  double radius, std::vector<ObjectId>* out,
                                  AccessStats* sink) const {
  // Ascending shard order + contiguous ranges + sorted per-shard results =
  // globally sorted concatenation; stats accumulate in the same order.
  std::vector<ObjectId> local;
  for (const Shard& shard : shards_) {
    const size_t shard_size = shard.local->size();
    const bool holds_exclude =
        exclude != kInvalidObject && exclude >= shard.begin &&
        exclude < shard.begin + shard_size;
    local.clear();
    if (holds_exclude) {
      shard.backend->RangeQueryAround(exclude - shard.begin, radius, &local,
                                      sink);
    } else {
      shard.backend->RangeQuery(center, radius, &local, sink);
    }
    // The per-query range_queries charge stays 1 for the whole fan-out;
    // subtract the inner queries' own increments.
    sink->range_queries -= 1;
    for (ObjectId id : local) out->push_back(id + shard.begin);
  }
  sink->range_queries += 1;
}

}  // namespace disc
