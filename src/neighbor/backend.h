// Pluggable neighbor backends: the r-neighborhood computation as a service.
//
// Every DisC pass is dominated by computing N_r(p) (§4–§6 of the paper), and
// until this layer existed the only providers were the exact paths wired
// directly into NeighborhoodGraph: the O(n^2) scan, the uniform grid, and
// one M-tree range query per object. All three bind memory or time at a few
// tens of thousands of points. The paper's own NP-hardness result (§3)
// makes principled approximation the honest way past that ceiling, so this
// layer defines one interface — range query at radius r plus a batched
// neighborhood build, with accounting compatible with MTree::AccessStats —
// and four engines behind it:
//
//   * ExactMTreeBackend  — an owned M-tree, one range query per object.
//   * GridBackend        — the uniform-grid accelerator (exact; batched
//                          builds only pay the grid price once).
//   * LshBackend         — multi-probe locality-sensitive hashing over
//                          Minkowski metrics: candidates from hash buckets,
//                          verified with exact distances, so reported
//                          neighbor sets are always a SUBSET of the true
//                          N_r(p) (no false positives; recall < 1 is the
//                          only deviation). Deterministically seeded.
//   * ShardedBackend     — partitions the dataset into contiguous id ranges,
//                          builds a per-shard inner backend (exact or LSH)
//                          concurrently on the shared pool, and merges
//                          per-shard results in ascending shard order — the
//                          ordered-reduction contract again, so exact shards
//                          reproduce the unsharded neighbor sets exactly.
//
// Backends are immutable once constructed (the grid and LSH backends build
// a per-radius index lazily under a lock and keep only the latest radius's;
// a query holds its index alive, and each index is read-only once built),
// so batched builds may fan queries out across a thread pool. Accounting follows the M-tree's
// convention: every query charges node accesses (bucket probes for LSH),
// distance computations, and one range query to a caller-supplied sink or,
// when none is given, to the backend's own running stats().

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
/// preserves historical behavior exactly; kLshSharded is the configuration
/// that opens million-point workloads.
enum class NeighborBackendKind {
  kExact,       // one M-tree range query per object (exact)
  kGrid,        // uniform-grid accelerator (exact; falls back to brute force)
  kLsh,         // multi-probe LSH (approximate: subset of true neighbors)
  kSharded,     // sharded exact M-trees, merged in shard order (exact)
  kLshSharded,  // sharded LSH (approximate)
};

/// "exact" / "grid" / "lsh" / "sharded" / "lsh-sharded".
const char* NeighborBackendKindToString(NeighborBackendKind kind);

/// Parses the names above; anything else is InvalidArgument listing them.
Result<NeighborBackendKind> ParseNeighborBackendKind(const std::string& name);

/// Multi-probe LSH tuning. The defaults are the documented configuration the
/// CI quality gate holds to recall >= 0.9 against the exact oracle
/// (bench/bench_neighbor_backends.cc).
struct LshOptions {
  /// Independent hash tables; each is an AND of `hashes` projections.
  size_t tables = 6;
  /// Concatenated p-stable projections per table (bucket = their AND).
  size_t hashes = 4;
  /// Additional perturbed buckets probed per table beyond the home bucket
  /// (single-projection +/-1 shifts, in fixed order).
  size_t probes = 8;
  /// Bucket width as a multiple of the query radius: w = width_factor * r.
  double width_factor = 4.0;
  /// Seed for the projection directions and offsets (util/Random); equal
  /// seeds yield equal hash families and therefore equal graphs.
  uint64_t seed = 42;
};

/// Declarative backend selection, carried by EngineConfig and parseable from
/// the --neighbor-backend= flags and the OPEN protocol field.
struct NeighborBackendOptions {
  NeighborBackendKind kind = NeighborBackendKind::kExact;
  LshOptions lsh;
  /// Shard count for the sharded kinds; 0 picks a deterministic default
  /// that never depends on the thread count (results must not either).
  size_t shards = 0;
  /// Guardrail: CreateNeighborBackend refuses exact-family backends (exact,
  /// grid) over datasets larger than this, instead of letting an O(n^2)
  /// fallback or an oversized index take the process down. 0 = unlimited.
  /// The sharded and LSH kinds are exempt — they are the supported way to
  /// exceed the cap.
  size_t max_exact_points = 0;
};

/// True for the kinds whose neighbor sets equal the exact N_r(p) for every
/// object (everything except the LSH family).
bool NeighborBackendIsExact(NeighborBackendKind kind);

/// A stable identity string for engine pooling and cache keys: the kind name
/// plus, for approximate kinds, every knob that changes results
/// (e.g. "lsh:t6:h4:p8:w4:s42"). Exact kinds map to their plain name.
std::string NeighborBackendCacheKey(const NeighborBackendOptions& options);

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
  bool exact() const { return NeighborBackendIsExact(kind()); }

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
  /// count is its num_edges()). For approximate backends the result is
  /// symmetrized (i lists j iff j lists i) so it is a well-formed graph. The
  /// default implementation fans RangeQueryAround over the pool under the
  /// ordered-reduction contract with per-chunk stat sinks; rows arrive in id
  /// order, so chunks concatenate straight into the CSR and both the rows
  /// and the stats totals are byte-identical to the serial loop at any
  /// thread count. Backends with a cheaper batch path (the grid) override
  /// it.
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
/// Returns InvalidArgument for LSH kinds over the Hamming metric (no
/// p-stable projection for unordered categories — use exact/sharded), and
/// for exact-family kinds over datasets above options.max_exact_points.
/// `pool` parallelizes construction (per-shard builds); it is not retained.
Result<std::unique_ptr<NeighborBackend>> CreateNeighborBackend(
    const Dataset& dataset, const DistanceMetric& metric,
    const NeighborBackendOptions& options, ThreadPool* pool = nullptr);

}  // namespace disc

#endif  // DISC_NEIGHBOR_BACKEND_H_
