// ExactMTreeBackend: the index-backed neighbor path behind the
// NeighborBackend interface — an owned M-tree, one range query per object.
//
// Results are exactly N_r(p); accounting is the tree's own node-access
// counting, redirected per chunk through MTree::ThreadStatsScope so
// concurrent batched builds charge private sinks.

#ifndef DISC_NEIGHBOR_EXACT_BACKEND_H_
#define DISC_NEIGHBOR_EXACT_BACKEND_H_

#include <memory>

#include "mtree/mtree.h"
#include "neighbor/backend.h"

namespace disc {

class ExactMTreeBackend final : public NeighborBackend {
 public:
  /// The tree CreateNeighborBackend builds: the paper's defaults,
  /// bulk-loaded (cheaper to construct and query-identical to
  /// insert-built).
  static MTreeOptions DefaultTreeOptions() {
    return {.node_capacity = 50,
            .split_policy = SplitPolicy::MinOverlap(),
            .random_seed = 42,
            .build = {BuildStrategy::kBulkLoad}};
  }

  /// Builds the backend's tree (serially). Fails when MTree::Build does
  /// (empty dataset).
  static Result<std::unique_ptr<ExactMTreeBackend>> Create(
      const Dataset& dataset, const DistanceMetric& metric,
      MTreeOptions options = DefaultTreeOptions());

  NeighborBackendKind kind() const override {
    return NeighborBackendKind::kExact;
  }

  /// One MTree::RangeQueryAround per object, fanned over the pool under the
  /// ordered-reduction contract with per-chunk stat sinks: rows arrive in
  /// id order, so chunks concatenate straight into the CSR.
  Result<CsrAdjacency> BuildNeighborhoods(double radius,
                                          ThreadPool* pool) const override;

  const MTree& tree() const { return *tree_; }

 private:
  ExactMTreeBackend(const Dataset& dataset, const DistanceMetric& metric,
                    std::unique_ptr<MTree> tree)
      : NeighborBackend(dataset, metric), tree_(std::move(tree)) {}

  std::unique_ptr<MTree> tree_;
};

}  // namespace disc

#endif  // DISC_NEIGHBOR_EXACT_BACKEND_H_
