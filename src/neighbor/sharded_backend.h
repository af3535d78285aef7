// ShardedBackend: dataset partitioning across per-shard neighbor engines.
//
// The dataset splits into contiguous global-id ranges (a pure function of n
// and the configured shard count — never of the thread count). Each shard
// holds a copy of its slice as a local dataset plus an exact M-tree backend
// over it, and the shards are constructed concurrently on the shared thread
// pool — this bounds per-index build time and memory for large inputs the
// grid cannot serve (Hamming, dim > 3).
//
// A range query fans out to every shard IN ASCENDING SHARD ORDER, maps
// local ids back by adding the shard's base offset, and concatenates: since
// shard ranges are contiguous and each per-shard result is sorted, the
// concatenation is globally sorted with no merge step — the
// ordered-reduction contract applied to shards. The shards therefore
// reproduce the unsharded exact neighbor sets identically, and stats (which
// accumulate in shard order) are deterministic for every thread count.

#ifndef DISC_NEIGHBOR_SHARDED_BACKEND_H_
#define DISC_NEIGHBOR_SHARDED_BACKEND_H_

#include <memory>
#include <vector>

#include "neighbor/backend.h"

namespace disc {

class ShardedBackend final : public NeighborBackend {
 public:
  /// Builds `shard_count` shards (concurrently when `pool` has more than
  /// one thread); 0 picks a deterministic default from n alone.
  static Result<std::unique_ptr<ShardedBackend>> Create(
      const Dataset& dataset, const DistanceMetric& metric,
      size_t shard_count, ThreadPool* pool = nullptr);

  NeighborBackendKind kind() const override {
    return NeighborBackendKind::kSharded;
  }

  size_t num_shards() const { return shards_.size(); }

  /// The shard count `shard_count = 0` resolves to for a dataset of n
  /// points — exposed so tests agree with construction.
  static size_t DefaultShardCount(size_t n);

 protected:
  void DoRangeQuery(const Point& center, ObjectId exclude, double radius,
                    std::vector<ObjectId>* out,
                    AccessStats* sink) const override;

 private:
  struct Shard {
    ObjectId begin = 0;  // global id of local id 0
    std::unique_ptr<Dataset> local;
    std::unique_ptr<NeighborBackend> backend;
  };

  ShardedBackend(const Dataset& dataset, const DistanceMetric& metric,
                 std::vector<Shard> shards)
      : NeighborBackend(dataset, metric), shards_(std::move(shards)) {}

  std::vector<Shard> shards_;
};

}  // namespace disc

#endif  // DISC_NEIGHBOR_SHARDED_BACKEND_H_
