// LshBackend: multi-probe locality-sensitive hashing over Minkowski metrics.
//
// The approximation layer the paper's NP-hardness result (§3) motivates:
// the exact r-neighborhood computation is what binds time and memory past a
// few tens of thousands of points, so this backend trades bounded recall
// for near-linear builds. The scheme is the classic p-stable one (Datar et
// al. 2004) with multi-probe extensions (Lv et al. 2007):
//
//   * Per table t of `tables`: `hashes` random Gaussian directions a_i and
//     offsets b_i in [0, w); h_i(x) = floor((a_i . x + b_i) / w) with bucket
//     width w = width_factor * r. A point's bucket is the tuple of its
//     `hashes` slot indexes, mixed into one 64-bit key.
//   * A query probes its home bucket plus `probes` perturbed buckets
//     (single-projection +/-1 shifts in fixed order), collects candidates
//     across all tables, and verifies each with an EXACT metric distance.
//
// Verification makes reported sets a subset of the true N_r(p) — no false
// positives, so "recall against the exact oracle" is the one quality number
// (measured in src/eval/neighbor_eval.h, gated in CI). Everything is
// deterministic: directions and offsets come from util/Random seeded by
// LshOptions::seed, so equal seeds yield equal graphs on every platform.
//
// The hash index is built lazily on first use at a radius (bucket width
// depends on r) and is immutable afterwards; only the latest radius's index
// is retained, and a query holds its index alive, so concurrent queries are
// safe. Interleaving radii rebuilds the index at each switch.
// Accounting: one range query per query, one node access per probed bucket,
// one distance computation per verified candidate.

#ifndef DISC_NEIGHBOR_LSH_BACKEND_H_
#define DISC_NEIGHBOR_LSH_BACKEND_H_

#include <memory>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "neighbor/backend.h"

namespace disc {

class LshBackend final : public NeighborBackend {
 public:
  LshBackend(const Dataset& dataset, const DistanceMetric& metric,
             LshOptions options)
      : NeighborBackend(dataset, metric), options_(options) {}

  NeighborBackendKind kind() const override { return NeighborBackendKind::kLsh; }

  const LshOptions& options() const { return options_; }

  /// Default fan-out build, except the radius index is built once up front
  /// so workers never contend on the lazy-construction lock.
  Result<CsrAdjacency> BuildNeighborhoods(double radius,
                                          ThreadPool* pool) const override;

  /// The radius whose hash index is retained, if any: only the latest
  /// radius's is kept.
  std::optional<double> index_radius() const;

 protected:
  void DoRangeQuery(const Point& center, ObjectId exclude, double radius,
                    std::vector<ObjectId>* out,
                    AccessStats* sink) const override;

 private:
  struct Table {
    /// hashes x dim Gaussian projection directions, then hashes offsets.
    std::vector<std::vector<double>> directions;
    std::vector<double> offsets;
    std::unordered_map<uint64_t, std::vector<ObjectId>> buckets;
  };
  struct Index {
    double radius = 0;
    double width = 0;
    std::vector<Table> tables;
  };

  /// Returns the index for this radius, replacing the retained one when
  /// the radius differs. The index is immutable; the shared mutex guards
  /// only the slot.
  std::shared_ptr<const Index> EnsureIndex(double radius) const;

  const LshOptions options_;
  mutable std::shared_mutex mutex_;
  mutable std::shared_ptr<const Index> index_;
};

}  // namespace disc

#endif  // DISC_NEIGHBOR_LSH_BACKEND_H_
