// Neighborhood graph G_{P,r}: vertex per object, edge when dist <= r.
//
// Section 2.2 of the paper reduces Minimum r-DisC Diverse Subset to Minimum
// Independent Dominating Set on this graph. The graph module is the
// M-tree-free substrate: it provides ground truth for tests, powers the
// brute-force reference algorithms, and backs the structural verifiers.
//
// Construction is the r-neighborhood computation that dominates every DisC
// pass (N_r(p) for all p, §4–§6). Both entry points run the one graph
// builder, BuildAdjacency (neighbor/backend.h): the uniform-grid accelerator
// where it applies, else the exact O(n^2) scan. The direct constructor calls
// it as is; FromBackend calls it through graph mode's NeighborBackend,
// charging the backend's stats(). Either way the graph adopts the
// CsrAdjacency the builder returns, rows already sorted, and is
// byte-identical to the serial build for every util/parallel.h thread pool.
// The index-backed G_r (one M-tree range query per object) is
// MTree::BuildNeighborhoods, which returns the same CsrAdjacency.

#ifndef DISC_GRAPH_NEIGHBORHOOD_H_
#define DISC_GRAPH_NEIGHBORHOOD_H_

#include <cstddef>
#include <span>
#include <utility>

#include "data/dataset.h"
#include "metric/metric.h"
#include "neighbor/adjacency.h"
#include "neighbor/backend.h"
#include "util/status.h"

namespace disc {

class ThreadPool;  // util/parallel.h

/// G_{P,r} over a CsrAdjacency (neighbor/adjacency.h). Neighbor rows are
/// sorted by id and exclude the vertex itself, matching N_r(p_i) in the
/// paper.
class NeighborhoodGraph {
 public:
  /// Builds the graph by computing pairwise distances — exactly once per
  /// unordered pair on both paths. Uses a uniform-grid accelerator for
  /// low-dimensional Minkowski metrics and falls back to the exact O(n^2)
  /// scan otherwise; both produce identical graphs.
  NeighborhoodGraph(const Dataset& dataset, const DistanceMetric& metric,
                    double radius, ThreadPool* pool = nullptr);

  /// Builds the graph through graph mode's NeighborBackend
  /// (neighbor/backend.h): exactly the graph the constructor above
  /// produces. Accounting goes to the backend's stats(); never fails.
  static Result<NeighborhoodGraph> FromBackend(const NeighborBackend& backend,
                                               double radius,
                                               ThreadPool* pool = nullptr);

  size_t num_vertices() const { return adjacency_.size(); }
  size_t num_edges() const { return adjacency_.num_edges(); }
  double radius() const { return radius_; }

  /// N_r(v): sorted ids at distance <= r, excluding v.
  std::span<const ObjectId> neighbors(ObjectId v) const {
    return adjacency_.row(v);
  }

  /// |N_r(v)|.
  size_t degree(ObjectId v) const { return adjacency_.degree(v); }

  /// The whole structure, for comparisons and checksums.
  const CsrAdjacency& adjacency() const { return adjacency_; }

  /// Max degree Delta over all vertices (0 for the empty graph).
  size_t MaxDegree() const;

  bool HasEdge(ObjectId a, ObjectId b) const;

 private:
  NeighborhoodGraph(double radius, CsrAdjacency adjacency)
      : radius_(radius), adjacency_(std::move(adjacency)) {}

  double radius_;
  CsrAdjacency adjacency_;
};

}  // namespace disc

#endif  // DISC_GRAPH_NEIGHBORHOOD_H_
