// DiscEngine: the session-oriented façade over the whole library.
//
// Every consumer used to hand-assemble the same pipeline — load a dataset,
// pick a metric, build an MTree, run an algorithm, then issue zoom calls
// whose correctness silently depended on the colors / closest-black state
// the previous run left in the tree (§5.2). The engine owns that state
// machine end to end: construct one from an EngineConfig, then issue
// Diversify and Zoom requests against it.
//
//   auto engine = DiscEngine::Create(config);         // dataset + index
//   auto result = (*engine)->Diversify(request);      // colors now valid
//   auto finer  = (*engine)->Zoom(zoom_request);      // adapts, no rebuild
//
// What the engine tracks between calls:
//  * which solution (algorithm, radius) the tree colors currently encode,
//  * whether closest-black distances are exact for it (§5.2: pruned runs
//    and greedy zoom passes leave them stale; a zoom-in recomputes on
//    demand or fails, per request),
//  * a bounded cache of recent solutions keyed by (algorithm, radius,
//    pruned) — a repeated Diversify restores the cached colors and returns
//    with zero additional node accesses,
//  * white-neighborhood counts per radius, shared across algorithms.
//
// Misuse that used to be undefined behavior at the core layer (zooming with
// no solution, zooming a covering-only Greedy-C/Fast-C result, zooming on
// stale distances) is surfaced here as Status::FailedPrecondition.
//
// The engine is externally single-threaded by design: one engine == one
// session. A server shards sessions across engines (one per loaded
// dataset). Internally the engine may fan read-only passes (the per-radius
// neighborhood counts) out across a thread pool sized by
// EngineConfig::threads; results and reported stats are byte-identical for
// every thread count (util/parallel.h documents the determinism contract).

#ifndef DISC_ENGINE_ENGINE_H_
#define DISC_ENGINE_ENGINE_H_

#include <cstddef>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/disc_algorithms.h"
#include "core/weighted.h"
#include "core/zoom.h"
#include "data/dataset.h"
#include "engine/config.h"
#include "metric/metric.h"
#include "mtree/mtree.h"
#include "util/status.h"

namespace disc {

class ThreadPool;          // util/parallel.h
class NeighborhoodGraph;   // graph/neighborhood.h

/// Solution-quality numbers computed on demand (request.compute_quality),
/// directly from the dataset — they cost distance computations but no index
/// accesses.
struct QualityMetrics {
  /// Minimum pairwise distance within the solution (+inf below 2 members).
  double f_min = 0.0;
  /// Fraction of objects within the verification radius of the solution.
  double coverage = 0.0;
  /// Definition-1 verification: OK, or a description of the violation.
  /// DisC-family solutions verify independence + coverage; covering-only
  /// solutions (Greedy-C / Fast-C, multi-radius) verify coverage; local
  /// zooms verify coverage at the larger of the two radii (the region and
  /// its complement hold guarantees at different radii).
  Status verification;
};

/// A diversification request: which algorithm at which radius.
struct DiversifyRequest {
  Algorithm algorithm = Algorithm::kGreedy;
  double radius = 0.0;
  /// The §5.1 pruning rule (skip subtrees with no white objects). Cheaper,
  /// but leaves closest-black distances stale — a later Zoom recomputes
  /// them (see ZoomRequest::distances). Ignored by Greedy-C / Fast-C.
  bool pruned = true;
  /// Attach QualityMetrics to the response.
  bool compute_quality = false;
};

/// What Zoom may do about stale closest-black distances (§5.2) left behind
/// by a pruned run or a greedy zoom pass. Only zooming in reads them;
/// zooming out rebuilds them and ignores this policy.
enum class DistancePolicy {
  /// Recompute them first when needed (charged to the response's stats).
  kAuto,
  /// Fail with FailedPrecondition instead of paying the recomputation.
  kRequireExact,
};

/// An adaptive-radius request against the current solution. The direction
/// is inferred: radius below the session radius zooms in, above zooms out.
/// Setting `center` switches to local zooming (§3): only the center's
/// old-radius neighborhood is re-diversified, the rest of the solution is
/// kept — after which the session holds a mixed-radius solution and further
/// zooming requires a fresh Diversify.
struct ZoomRequest {
  double radius = 0.0;
  /// Greedy candidate selection (Greedy-Zoom-In / greedy second pass).
  bool greedy = true;
  /// First-pass selection order for zooming out.
  ZoomOutVariant zoom_out_variant = ZoomOutVariant::kGreedyMostRed;
  /// Local zooming around this object when set.
  std::optional<ObjectId> center;
  DistancePolicy distances = DistancePolicy::kAuto;
  bool compute_quality = false;
};

/// Weighted DisC (§8): a valid r-DisC subset biased toward heavy objects.
/// Runs on the dataset directly and leaves the session state untouched.
struct WeightedRequest {
  double radius = 0.0;
  /// One strictly positive weight per object.
  std::vector<double> weights;
  WeightedObjective objective = WeightedObjective::kWeightTimesCoverage;
  bool compute_quality = false;
};

/// Multi-radius DisC (§8): relevance shrinks an object's radius so relevant
/// regions are represented more densely. Leaves the session state untouched.
struct MultiRadiusRequest {
  double r_min = 0.0;
  double r_max = 0.0;
  /// One relevance in [0, 1] per object; 1 maps to r_min, 0 to r_max.
  std::vector<double> relevance;
  bool compute_quality = false;
};

/// What every request returns: the solution plus the work it cost. The
/// fields callers previously reassembled by hand from DiscResult, the tree's
/// stats counters, and eval/quality.h.
struct DiversifyResponse {
  /// Selected objects in selection order.
  std::vector<ObjectId> solution;
  /// Index work this request consumed (zero on cache hits).
  AccessStats stats;
  double wall_ms = 0.0;
  /// The radius the solution is valid at (r_max for multi-radius).
  double radius = 0.0;
  /// True when the solution came from the session cache; the tree state was
  /// restored from the cached snapshot, so zooming continues to work.
  bool from_cache = false;
  std::optional<QualityMetrics> quality;

  size_t size() const { return solution.size(); }
};

/// A point-in-time description of the engine's session state.
struct EngineSnapshot {
  size_t dataset_size = 0;
  size_t dim = 0;
  MetricKind metric = MetricKind::kEuclidean;
  BuildStrategy build_strategy = BuildStrategy::kInsertAtATime;
  /// Which neighbor engine computes N_r(p) (EngineConfig::neighbor). kExact
  /// is the historical tree-backed session engine; anything else means the
  /// engine runs in graph mode (tree_nodes/tree_height are 0, zoomable is
  /// always false).
  NeighborBackendKind backend = NeighborBackendKind::kExact;
  size_t tree_nodes = 0;
  size_t tree_height = 0;
  /// Tree colors encode a solution (i.e. some Diversify succeeded).
  bool has_solution = false;
  /// That solution can be zoomed (DisC family, not mixed-radius).
  bool zoomable = false;
  /// Why not, when has_solution && !zoomable.
  std::string zoom_blocker;
  Algorithm algorithm = Algorithm::kGreedy;
  double radius = 0.0;
  size_t solution_size = 0;
  /// Closest-black distances are exact for the current solution (§5.2).
  bool distances_exact = false;
  size_t cached_solutions = 0;
  size_t cached_count_radii = 0;
  /// Diversify requests served from the solution cache since construction
  /// (across sessions, like sessions_served). Exposed on the wire as the
  /// STATS `cache_hits` field so clients can see pooled-engine warm-cache
  /// reuse without diffing node-access totals.
  size_t cache_hits = 0;
  /// Algorithm executions this engine actually performed (Diversify misses,
  /// zoom passes, weighted / multi-radius runs). Cache hits and adopted
  /// sessions do not count — the serving layer's coalescing tests rely on
  /// this to prove N identical concurrent requests cost one computation.
  size_t computations = 0;
  /// Sessions installed via AdoptSession (a coalesced result fanned out by
  /// the serving layer's single-flight table). STATS `coalesced` on the
  /// wire.
  size_t adopted_sessions = 0;
  /// Worker threads the engine's parallel passes use (resolved from
  /// EngineConfig::threads; 1 = serial).
  size_t threads = 1;
  /// Sessions this engine has hosted: 1 after Create, +1 per NewSession.
  /// A server leasing pooled engines reports it in STATS so clients can see
  /// cache warm-up across leases.
  size_t sessions_served = 1;
  /// Index work consumed since construction (across all requests).
  AccessStats lifetime_stats;
};

/// The library façade. Owns dataset, metric, index, and session state; see
/// the file comment. Create once, issue requests, Reset() to start over
/// without rebuilding the index.
class DiscEngine {
 public:
  /// Resolves the dataset, constructs the metric, and builds the index.
  /// Fails with the dataset loader's error or the tree's build error.
  static Result<std::unique_ptr<DiscEngine>> Create(EngineConfig config);

  DiscEngine(const DiscEngine&) = delete;
  DiscEngine& operator=(const DiscEngine&) = delete;
  ~DiscEngine();

  /// Runs the requested algorithm, or restores the cached solution when an
  /// identical request (algorithm, radius, pruned) was served before and
  /// returns it with zero additional node accesses. On success the session
  /// state encodes this solution and Zoom may follow.
  Result<DiversifyResponse> Diversify(const DiversifyRequest& request);

  /// Adapts the current solution to a new radius (§3, §5.2) without
  /// recomputing from scratch. FailedPrecondition when no Diversify
  /// succeeded yet, when the current solution is covering-only
  /// (Greedy-C / Fast-C) or mixed-radius (after a local zoom), or when
  /// distances are stale and the request forbids recomputation.
  /// InvalidArgument when the radius is not positive or equals the session
  /// radius (nothing to adapt, local or global), or the local-zoom center
  /// is out of range.
  Result<DiversifyResponse> Zoom(const ZoomRequest& request);

  /// Weighted DisC (§8). Stateless: the session and cache are untouched.
  Result<DiversifyResponse> WeightedDiversify(const WeightedRequest& request);

  /// Multi-radius DisC (§8). Stateless like WeightedDiversify.
  Result<DiversifyResponse> MultiRadiusDiversify(
      const MultiRadiusRequest& request);

  /// Describes the current session state (cheap; no index work).
  EngineSnapshot Snapshot() const;

  /// Forgets the session: resets colors, drops the solution cache. The
  /// index and the per-radius neighborhood counts (color-independent) are
  /// kept, so the engine is immediately ready for the next session.
  void Reset();

  /// The leasing hook for servers that pool engines across sessions
  /// (server/session_manager.h): starts a fresh session — colors reset,
  /// zoom preconditions rearmed — while *keeping* the solution cache and the
  /// per-radius neighborhood counts. A new session repeating a previous
  /// session's Diversify is a cache hit with zero node accesses; cached
  /// color snapshots restore on hit, so zooming keeps working too.
  void NewSession();

  const Dataset& dataset() const { return dataset_; }
  const DistanceMetric& metric() const { return *metric_; }

 private:
  DiscEngine(Dataset dataset, std::unique_ptr<DistanceMetric> metric,
             MTreeOptions tree_options, size_t threads);

  struct CacheKey {
    Algorithm algorithm;
    double radius;
    bool pruned;

    bool operator==(const CacheKey& other) const {
      return algorithm == other.algorithm && radius == other.radius &&
             pruned == other.pruned;
    }
  };

  struct CacheEntry {
    CacheKey key;
    DiversifyResponse response;
    MTree::ColorState state;
    bool distances_exact = false;
  };

  /// The solution currently encoded in the tree colors.
  struct SessionState {
    bool has_solution = false;
    bool zoomable = false;
    std::string zoom_blocker;
    Algorithm algorithm = Algorithm::kGreedy;
    double radius = 0.0;
    size_t solution_size = 0;
    bool distances_exact = false;
    /// While true, the tree state is byte-identical to the cache entry at
    /// `cache_key` (a Diversify just ran or was restored and no zoom has
    /// mutated the colors since), so improvements like a §5.2 distance
    /// recomputation can be written back to the entry.
    bool cache_key_valid = false;
    CacheKey cache_key{Algorithm::kGreedy, 0.0, true};
    /// Canonical request history that produced this solution: the Diversify
    /// parameters plus every zoom applied since, in order. Two engines over
    /// the same dataset with equal histories (and equal distances_exact)
    /// hold byte-identical session state — the serving layer keys its
    /// single-flight table on SessionFingerprint(), which is derived from
    /// this.
    std::string history;
  };

 public:
  /// A transferable snapshot of the whole session: the per-object color
  /// state plus the session descriptor and (when the tree state still
  /// matches a cache entry) that entry's response. Produced by the flight
  /// leader after a computation; adopting it puts a follower engine over
  /// the *same dataset* into the exact state the leader's computation left
  /// behind, so the follower's subsequent Zoom chain stays valid without
  /// re-running the algorithm. The nested private types keep the payload
  /// opaque: callers move capsules around, only DiscEngine reads them.
  struct SessionCapsule {
    MTree::ColorState state;
    SessionState session;
    bool has_cache_entry = false;
    DiversifyResponse cache_response;
    bool cache_distances_exact = false;
  };

  /// Snapshots the current session (colors, descriptor, the matching cache
  /// entry when one exists). Meaningful only after a successful Diversify
  /// or Zoom.
  SessionCapsule ExportSession() const;

  /// Installs a capsule exported by another engine over the same dataset:
  /// restores the colors, copies the session descriptor, and replicates the
  /// leader's cache entry so a repeated identical Diversify is an honest
  /// cache hit. InvalidArgument when the capsule's color state does not
  /// match this engine's dataset size.
  Status AdoptSession(const SessionCapsule& capsule);

  /// The serving layer's §5.2 radius-adaptation entry point: installs
  /// `seed` — a capsule exported after a DIVERSIFY over the same dataset —
  /// and immediately zooms it to `request.radius` through the normal Zoom
  /// path. Byte-identical (solution, radius, stats) to adopting the seed
  /// on a cold engine and calling Zoom there: AdoptSession restores the
  /// exact colors, session descriptor, and distances_exact bit, so the
  /// zoom — including any §5.2 stale-distance recomputation under
  /// DistancePolicy::kAuto — does exactly the work it would do anywhere
  /// else. Counts as an adopted session in Snapshot() (STATS `coalesced`).
  /// Fails with AdoptSession's or Zoom's error; the session state is then
  /// whatever the failing step left (callers fall back to a cold
  /// Diversify, which resets it).
  Result<DiversifyResponse> AdaptFrom(const SessionCapsule& seed,
                                      const ZoomRequest& request);

  /// True when Diversify(request) would be served from the solution cache
  /// (zero index work). The serving layer checks this before consulting its
  /// single-flight table so warm-engine repeats keep reporting
  /// from_cache=true instead of replaying a coalesced response.
  bool HasCachedDiversify(const DiversifyRequest& request) const;

  /// Canonical fingerprint of the session state: the request history plus
  /// the distances_exact bit (two equal-history engines can still diverge
  /// on whether a §5.2 recomputation was banked, which changes the stats a
  /// zoom-in reports). Empty when no solution is held — such sessions are
  /// never coalesced.
  std::string SessionFingerprint() const;

 private:

  /// Rejects non-finite or negative radii.
  static Status ValidateRadius(double radius);
  /// Greedy-C / Fast-C are never pruned; normalize the cache key.
  static bool EffectivePruned(const DiversifyRequest& request);

  /// Records that the session now holds the solution a Diversify with `key`
  /// produced (directly or from cache), and decides whether it can be
  /// zoomed: not in graph mode, whose runs leave no tree color state, and
  /// not for a covering-only algorithm.
  void SetSession(const CacheKey& key, size_t solution_size,
                  bool distances_exact);

  /// The engine's fan-out pool, created lazily on the first parallel pass
  /// (so idle pooled engines hold no parked worker threads). Null when
  /// threads_ == 1 — every pass then takes its original serial path.
  ThreadPool* pool();

  /// Diversify's solve step for `key`: RunAlgorithm on the tree, or in
  /// graph mode the core/reference.h solver on G_{P,r}. Graph mode refuses
  /// an index-bound algorithm with Unimplemented before building anything.
  Result<std::vector<ObjectId>> Solve(const CacheKey& key);

  /// G_{P,r} for `radius`, cached one radius at a time (the graph is the
  /// dominant memory cost; the solution cache covers radius revisits). Its
  /// build is charged to graph_stats_.
  const NeighborhoodGraph& GraphForRadius(double radius);

  /// FailedPrecondition in graph mode for the §8 extensions, which run on
  /// the exact engine only; `what` names the extension.
  Status RequireExactEngine(const char* what) const;

  /// Index work consumed since construction: the tree's stats, or in graph
  /// mode the graph builds'.
  AccessStats LifetimeStats() const;

  CacheEntry* FindCached(const CacheKey& key);
  const CacheEntry* FindCached(const CacheKey& key) const;
  void InsertCache(CacheEntry entry);
  /// White-neighborhood counts for `radius`, computed on first use (charged
  /// to the tree's stats) and cached — they depend only on geometry. The
  /// cache holds the latest kMaxCachedSolutions radii; the oldest insert is
  /// evicted first.
  const std::vector<uint32_t>& CountsForRadius(double radius);

  QualityMetrics ComputeQuality(const std::vector<ObjectId>& solution,
                                double radius, bool covering_only) const;

  Dataset dataset_;
  std::unique_ptr<DistanceMetric> metric_;
  /// Index knobs (kept for Snapshot even when no tree exists).
  MTreeOptions tree_options_;
  /// The session index. Null in graph mode, where algorithms run on
  /// graph_cache_ instead.
  std::unique_ptr<MTree> tree_;
  /// Graph mode's one-radius G_{P,r} cache; its radius() is the key.
  std::unique_ptr<NeighborhoodGraph> graph_cache_;
  /// Graph mode's accounting: every graph build's work.
  AccessStats graph_stats_;
  /// Resolved worker count (EngineConfig::threads, 0 -> hardware).
  size_t threads_ = 1;
  /// Backing storage for pool(); lazily created. The engine remains
  /// externally single-threaded — the pool is an internal fan-out for
  /// passes that only read the tree.
  std::unique_ptr<ThreadPool> pool_;

  SessionState session_;
  std::deque<CacheEntry> cache_;  // bounded FIFO, newest at the back
  /// Bounded FIFO of (radius, counts), newest at the back.
  std::deque<std::pair<double, std::vector<uint32_t>>> counts_cache_;
  size_t sessions_served_ = 1;
  size_t cache_hits_ = 0;
  size_t computations_ = 0;
  size_t adopted_sessions_ = 0;
};

}  // namespace disc

#endif  // DISC_ENGINE_ENGINE_H_
