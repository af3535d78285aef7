// ExactMTreeBackend: today's index-backed neighbor path behind the
// NeighborBackend interface — an owned M-tree, one range query per object.
//
// Results are exactly N_r(p); accounting is the tree's own node-access counting,
// redirected per query through MTree::ThreadStatsScope so concurrent
// batched builds charge private sinks.

#ifndef DISC_NEIGHBOR_EXACT_BACKEND_H_
#define DISC_NEIGHBOR_EXACT_BACKEND_H_

#include <memory>

#include "mtree/mtree.h"
#include "neighbor/backend.h"

namespace disc {

class ExactMTreeBackend final : public NeighborBackend {
 public:
  /// Builds the backend's tree (bulk-loaded by default — cheaper to
  /// construct and query-identical to insert-built). Fails when MTree::Build
  /// does (empty dataset).
  static Result<std::unique_ptr<ExactMTreeBackend>> Create(
      const Dataset& dataset, const DistanceMetric& metric,
      MTreeOptions options = {.node_capacity = 50,
                              .split_policy = SplitPolicy::MinOverlap(),
                              .random_seed = 42,
                              .build = {BuildStrategy::kBulkLoad}});

  NeighborBackendKind kind() const override {
    return NeighborBackendKind::kExact;
  }

  const MTree& tree() const { return *tree_; }

 protected:
  void DoRangeQuery(const Point& center, ObjectId exclude, double radius,
                    std::vector<ObjectId>* out,
                    AccessStats* sink) const override;

 private:
  ExactMTreeBackend(const Dataset& dataset, const DistanceMetric& metric,
                    std::unique_ptr<MTree> tree)
      : NeighborBackend(dataset, metric), tree_(std::move(tree)) {}

  std::unique_ptr<MTree> tree_;
};

}  // namespace disc

#endif  // DISC_NEIGHBOR_EXACT_BACKEND_H_
