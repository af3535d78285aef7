// Pluggable neighbor backends: the batched G_{P,r} build as a service.
//
// Every DisC pass is dominated by computing N_r(p) (§4–§6 of the paper).
// This layer defines one job — build the full adjacency structure for one
// radius, with accounting compatible with MTree::AccessStats — and two
// engines behind it, both exact (every reported N_r(p) equals the true one):
//
//   * ExactMTreeBackend  — an owned M-tree, one range query per object.
//   * GridBackend        — the uniform-grid accelerator, falling back to the
//                          exact O(n^2) scan where the grid cannot apply.
//                          For low-dimensional Minkowski inputs it is the
//                          million-point path.
//
// Above NeighborBackendOptions::max_exact_points each input is served by
// whichever of the two is the faster one for it (CheckExactPointCap): the
// grid where it applies, the single M-tree where the grid would scan.
//
// Backends are immutable once constructed and hold no locks, so a batched
// build may fan out across a thread pool. Accounting follows the M-tree's
// convention: a build charges node accesses (cell probes for the grid),
// distance computations and one range query per object to the backend's
// running stats().

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

/// The registered neighbor engines. kExact is the default everywhere and
/// preserves historical behavior exactly; kGrid opens million-point
/// low-dimensional workloads.
enum class NeighborBackendKind {
  kExact,  // one M-tree range query per object
  kGrid,   // uniform-grid accelerator (falls back to brute force)
};

/// "exact" / "grid".
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

/// A stable identity string for engine pooling and cache keys: the kind
/// name.
std::string NeighborBackendCacheKey(const NeighborBackendOptions& options);

/// The exact-point cap (NeighborBackendOptions::max_exact_points), the one
/// copy of the rule DiscEngine::Create and CreateNeighborBackend both apply.
/// OK unless the cap is set, the dataset is above it, and options.kind is
/// kExact where GridCompatible, or kGrid where not. The InvalidArgument
/// message names the other kind, the one that applies.
Status CheckExactPointCap(const Dataset& dataset, const DistanceMetric& metric,
                          const NeighborBackendOptions& options);

/// The neighbor-computation interface. Immutable after construction; the
/// dataset and metric must outlive the backend.
class NeighborBackend {
 public:
  NeighborBackend(const Dataset& dataset, const DistanceMetric& metric)
      : dataset_(dataset), metric_(metric) {}
  virtual ~NeighborBackend() = default;

  NeighborBackend(const NeighborBackend&) = delete;
  NeighborBackend& operator=(const NeighborBackend&) = delete;

  virtual NeighborBackendKind kind() const = 0;
  const char* name() const { return NeighborBackendKindToString(kind()); }

  const Dataset& dataset() const { return dataset_; }
  const DistanceMetric& metric() const { return metric_; }
  size_t size() const { return dataset_.size(); }

  /// Batched build of the full adjacency structure for one radius: a CSR
  /// with size() rows, row v holding N_r(v) sorted ascending (the edge
  /// count is its num_edges()). The structure and the stats totals are
  /// byte-identical to the serial build at any thread count. Not safe to
  /// call concurrently on one backend (it adds to stats()).
  virtual Result<CsrAdjacency> BuildNeighborhoods(double radius,
                                                  ThreadPool* pool) const = 0;

  /// Running totals of every build's accounting.
  const AccessStats& stats() const { return stats_; }
  void ResetStats() const { stats_ = AccessStats{}; }

 protected:
  const Dataset& dataset_;
  const DistanceMetric& metric_;
  mutable AccessStats stats_;
};

/// Constructs the backend `options` describes over (dataset, metric).
/// Returns CheckExactPointCap's InvalidArgument for a capped kind over a
/// dataset above options.max_exact_points.
/// Construction is serial for both kinds; the pool argument is not used and
/// stays only for callers that still pass one.
Result<std::unique_ptr<NeighborBackend>> CreateNeighborBackend(
    const Dataset& dataset, const DistanceMetric& metric,
    const NeighborBackendOptions& options, ThreadPool* /*unused*/ = nullptr);

}  // namespace disc

#endif  // DISC_NEIGHBOR_BACKEND_H_
