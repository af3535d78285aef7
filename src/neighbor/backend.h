// Pluggable neighbor backends: the r-neighborhood computation as a service.
//
// Every DisC pass is dominated by computing N_r(p) (§4–§6 of the paper), and
// until this layer existed the only providers were the exact paths wired
// directly into NeighborhoodGraph: the O(n^2) scan, the uniform grid, and
// one M-tree range query per object. This layer defines one interface —
// range query at radius r plus a batched neighborhood build, with
// accounting compatible with MTree::AccessStats — and three engines behind
// it, all exact (every reported N_r(p) equals the true one):
//
//   * ExactMTreeBackend  — an owned M-tree, one range query per object.
//   * GridBackend        — the uniform-grid accelerator (batched builds only
//                          pay the grid price once). For low-dimensional
//                          Minkowski inputs it is the million-point path:
//                          the exact-family cap exempts it there.
//   * ShardedBackend     — partitions the dataset into contiguous id ranges,
//                          builds a per-shard M-tree concurrently on the
//                          shared pool, and merges per-shard results in
//                          ascending shard order — the ordered-reduction
//                          contract again, so it reproduces the unsharded
//                          neighbor sets exactly. It is the over-cap path
//                          for inputs the grid cannot serve.
//
// Backends are immutable once constructed (the grid backend builds a
// per-radius cell index lazily under a lock and keeps only the latest
// radius's; a query holds its index alive, and each index is read-only once
// built), so batched builds may fan queries out across a thread pool.
// Accounting follows the M-tree's convention: every query charges node
// accesses (cell probes for the grid), distance computations, and one range
// query to a caller-supplied sink or, when none is given, to the backend's
// own running stats().

#ifndef DISC_NEIGHBOR_BACKEND_H_
#define DISC_NEIGHBOR_BACKEND_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

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
  kExact,    // one M-tree range query per object
  kGrid,     // uniform-grid accelerator (falls back to brute force)
  kSharded,  // sharded M-trees, merged in shard order
};

/// "exact" / "grid" / "sharded".
const char* NeighborBackendKindToString(NeighborBackendKind kind);

/// Parses the names above; anything else is InvalidArgument listing them.
Result<NeighborBackendKind> ParseNeighborBackendKind(const std::string& name);

/// Declarative backend selection, carried by EngineConfig and parseable from
/// the --neighbor-backend= flags and the OPEN protocol field.
struct NeighborBackendOptions {
  NeighborBackendKind kind = NeighborBackendKind::kExact;
  /// Guardrail: the single-index kinds (exact, and grid where it would fall
  /// back to the O(n^2) scan) are refused over datasets larger than this,
  /// instead of letting an oversized index or a quadratic scan take the
  /// process down. 0 = unlimited. Grid-compatible grid builds and the
  /// sharded kind are exempt — they are the supported ways past the cap.
  size_t max_exact_points = 0;
};

/// A stable identity string for engine pooling and cache keys: the kind
/// name. Sharded backends always take the default shard count, which never
/// depends on the thread count (results must not either).
std::string NeighborBackendCacheKey(const NeighborBackendOptions& options);

/// The exact-family cap (NeighborBackendOptions::max_exact_points), the one
/// copy of the rule DiscEngine::Create and CreateNeighborBackend both apply.
/// OK unless the cap is set, the dataset is above it, and options.kind is
/// kExact, or kGrid where the grid does not apply. The InvalidArgument
/// message names the over-cap path that does apply: grid when
/// GridCompatible, otherwise sharded.
Status CheckExactPointCap(const Dataset& dataset, const DistanceMetric& metric,
                          const NeighborBackendOptions& options);

/// The neighbor-computation interface. Implementations are thread-safe for
/// concurrent queries after construction; the dataset and metric must
/// outlive the backend.
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

  /// N_r(center): ids at distance <= radius from the stored object `center`,
  /// excluding center itself, sorted ascending. Accounting goes to `sink`
  /// when given, else to stats(). Thread-safe; concurrent callers must pass
  /// private sinks (the same discipline as MTree::ThreadStatsScope).
  void RangeQueryAround(ObjectId center, double radius,
                        std::vector<ObjectId>* out,
                        AccessStats* sink = nullptr) const;

  /// All ids at distance <= radius from an arbitrary point (nothing
  /// excluded), sorted ascending — the fan-out entry point ShardedBackend
  /// uses against shards that do not hold the query object. Same accounting
  /// and thread-safety contract as RangeQueryAround.
  void RangeQuery(const Point& center, double radius,
                  std::vector<ObjectId>* out,
                  AccessStats* sink = nullptr) const;

  /// Batched build of the full adjacency structure for one radius: a CSR
  /// with size() rows, row v holding N_r(v) sorted ascending (the edge
  /// count is its num_edges()). The default implementation fans
  /// RangeQueryAround over the pool under the ordered-reduction contract
  /// with per-chunk stat sinks; rows arrive in id order, so chunks
  /// concatenate straight into the CSR and both the rows and the stats
  /// totals are byte-identical to the serial loop at any thread count.
  /// Backends with a cheaper batch path (the grid) override it.
  virtual Result<CsrAdjacency> BuildNeighborhoods(double radius,
                                                  ThreadPool* pool) const;

  /// Running totals of all accounting not redirected to a sink.
  const AccessStats& stats() const { return stats_; }
  void ResetStats() const { stats_ = AccessStats{}; }

 protected:
  /// The one method implementations provide: append every id at distance
  /// <= radius from `center` (any order) to `out`, skipping `exclude`
  /// (kInvalidObject = skip nothing; otherwise `center` is that object's
  /// stored point), and charge ALL accounting to `sink` (never null here).
  /// The public wrappers sort and route stats.
  virtual void DoRangeQuery(const Point& center, ObjectId exclude,
                            double radius, std::vector<ObjectId>* out,
                            AccessStats* sink) const = 0;

  const Dataset& dataset_;
  const DistanceMetric& metric_;
  mutable AccessStats stats_;
};

/// Constructs the backend `options` describes over (dataset, metric).
/// Returns CheckExactPointCap's InvalidArgument for capped kinds over
/// datasets above options.max_exact_points.
/// `pool` parallelizes construction (per-shard builds); it is not retained.
Result<std::unique_ptr<NeighborBackend>> CreateNeighborBackend(
    const Dataset& dataset, const DistanceMetric& metric,
    const NeighborBackendOptions& options, ThreadPool* pool = nullptr);

}  // namespace disc

#endif  // DISC_NEIGHBOR_BACKEND_H_
