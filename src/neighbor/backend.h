// The graph builder behind graph mode: the batched G_{P,r} build.
//
// Every DisC pass is dominated by computing N_r(p) (§4–§6 of the paper).
// BuildAdjacency builds the full adjacency structure for one radius, with
// accounting compatible with MTree::AccessStats, through the one
// grid-or-scan decision: the uniform-grid accelerator where GridCompatible
// (the million-point path for low-dimensional Minkowski inputs), else the
// exact O(n^2) scan. Every reported N_r(p) equals the true one.
// NeighborhoodGraph's direct constructor calls it, and so does graph mode.
// NeighborBackend wraps the same call with running stats for perfbench,
// the tests and bench_neighbor_backends; the engine does not use it.
//
// NeighborBackendKind selects the engine mode: kGrid is graph mode over this
// builder; kExact is the M-tree session engine DiscEngine::Create builds
// itself (its index-backed G_r is MTree::BuildNeighborhoods). Above
// NeighborBackendOptions::max_exact_points each input is served by whichever
// of the two is the faster one for it (CheckExactPointCap): the grid where
// it applies, the single M-tree where the grid would scan.
//
// A backend is immutable once constructed and holds no lock, so a build may
// fan out across a thread pool. Accounting follows the M-tree's convention
// of one charged range query per object; see BuildAdjacency for the rest.

#ifndef DISC_NEIGHBOR_BACKEND_H_
#define DISC_NEIGHBOR_BACKEND_H_

#include <cstddef>
#include <memory>
#include <string>

#include "data/dataset.h"
#include "metric/metric.h"
#include "mtree/mtree.h"
#include "neighbor/adjacency.h"
#include "util/status.h"

namespace disc {

class ThreadPool;  // util/parallel.h

/// The engine modes. kExact is the default everywhere and preserves
/// historical behavior exactly; kGrid opens million-point low-dimensional
/// workloads.
enum class NeighborBackendKind {
  kExact,  // the M-tree session engine, one range query per object
  kGrid,   // graph mode over BuildAdjacency (grid, else brute force)
};

/// "exact" / "grid". The kind name is also the engine pool's key component.
const char* NeighborBackendKindToString(NeighborBackendKind kind);

/// Parses the names above; anything else is InvalidArgument listing them.
Result<NeighborBackendKind> ParseNeighborBackendKind(const std::string& name);

/// Declarative backend selection, carried by EngineConfig and parseable from
/// the --neighbor-backend= flags and the OPEN protocol field.
struct NeighborBackendOptions {
  NeighborBackendKind kind = NeighborBackendKind::kExact;
  /// Guardrail: over datasets larger than this, the kind that is the slower
  /// one for the input is refused — exact where the grid applies, grid
  /// where it would fall back to the O(n^2) scan — instead of letting an
  /// oversized index or a quadratic scan take the process down. The other
  /// kind is the supported way past the cap. 0 = unlimited.
  size_t max_exact_points = 0;
};

/// The exact-point cap (NeighborBackendOptions::max_exact_points), the one
/// copy of the rule DiscEngine::Create and CreateNeighborBackend both apply.
/// OK unless the cap is set, the dataset is above it, and options.kind is
/// kExact where GridCompatible, or kGrid where not. The InvalidArgument
/// message names the other kind, the one that applies.
Status CheckExactPointCap(const Dataset& dataset, const DistanceMetric& metric,
                          const NeighborBackendOptions& options);

/// The one grid-or-scan decision: BuildAdjacencyWithGrid where
/// GridCompatible, else BuildAdjacencyBruteForce (neighbor/adjacency.h).
/// Byte-identical to the serial build at any thread count. When `charge` is
/// non-null the build's accounting is added to it:
///   * grid: n range queries, the candidate-pair count as distance
///     computations, and n * 3^dim node accesses. The node accesses are a
///     convention kept so graph-mode stats stay byte-identical, not the
///     work done: the cell-major build probes 3^dim cells per *occupied
///     cell*, not per point;
///   * scan: n range queries, n node accesses and n(n-1)/2 distances.
CsrAdjacency BuildAdjacency(const Dataset& dataset,
                            const DistanceMetric& metric, double radius,
                            ThreadPool* pool, AccessStats* charge = nullptr);

/// BuildAdjacency bound to one dataset and metric, with running stats.
/// Immutable after construction; the dataset and metric must outlive it.
class NeighborBackend {
 public:
  NeighborBackend(const Dataset& dataset, const DistanceMetric& metric)
      : dataset_(dataset), metric_(metric) {}

  NeighborBackend(const NeighborBackend&) = delete;
  NeighborBackend& operator=(const NeighborBackend&) = delete;

  /// "grid", the kind name.
  const char* name() const {
    return NeighborBackendKindToString(NeighborBackendKind::kGrid);
  }

  /// BuildAdjacency over the backend's dataset and metric, charged to
  /// stats(): a CSR with one row per object, row v holding N_r(v) sorted
  /// ascending. Not safe to call concurrently on one backend (it adds to
  /// stats()).
  CsrAdjacency BuildNeighborhoods(double radius, ThreadPool* pool) const {
    return BuildAdjacency(dataset_, metric_, radius, pool, &stats_);
  }

  /// Running totals of every build's accounting.
  const AccessStats& stats() const { return stats_; }
  void ResetStats() const { stats_ = AccessStats{}; }

 private:
  const Dataset& dataset_;
  const DistanceMetric& metric_;
  mutable AccessStats stats_;
};

/// Constructs the graph-mode builder over (dataset, metric) for a kGrid
/// `options`. Returns CheckExactPointCap's InvalidArgument for a capped
/// input, and InvalidArgument for kExact, whose M-tree engine
/// DiscEngine::Create builds itself. The pool argument is not used and
/// stays only for callers that still pass one.
Result<std::unique_ptr<NeighborBackend>> CreateNeighborBackend(
    const Dataset& dataset, const DistanceMetric& metric,
    const NeighborBackendOptions& options, ThreadPool* /*unused*/ = nullptr);

}  // namespace disc

#endif  // DISC_NEIGHBOR_BACKEND_H_
