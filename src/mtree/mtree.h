// M-tree: a balanced metric-space index (Ciaccia et al.; Zezula et al. 2006),
// implemented as described in §5 of the DisC paper.
//
// The tree partitions space around pivot objects with covering-radius balls.
// Two construction paths are provided — classic insert-at-a-time and a
// sampled-recursive bulk load (Ciaccia–Patella), selected via
// MTreeOptions::build — and this implementation adds everything the DisC
// algorithms of the paper need:
//  * leaf chaining for single left-to-right traversals (Basic-DisC locality),
//  * node-access accounting (the paper's primary cost metric),
//  * range queries in top-down and bottom-up flavors,
//  * object colors (white/grey/black/red) with per-node white counters so the
//    §5.1 pruning rule ("skip subtrees with no white objects") is O(1),
//  * closest-black-neighbor distances per object (the §5.2 zooming rule),
//  * white-neighborhood-size computation during build or as a post pass,
//  * the index-backed G_r build (BuildNeighborhoods),
//  * four node-splitting policies spanning the fat-factor range of Figure 10,
//  * the fat-factor measure of tree quality (Traina et al.).
// The nodes live in one index-addressed array, each node's entries in a
// contiguous block of slots with their coordinates stored alongside in
// entry order; every build path and every query uses that one layout.

#ifndef DISC_MTREE_MTREE_H_
#define DISC_MTREE_MTREE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "core/color.h"
#include "data/dataset.h"
#include "metric/metric.h"
#include "neighbor/adjacency.h"
#include "util/status.h"

namespace disc {

class ThreadPool;  // util/parallel.h

/// How two new pivots are chosen when a node overflows (§5 "promote").
enum class PromotePolicy {
  /// Keep the overflowed node's pivot and promote the entry farthest from it.
  /// The paper's lowest-overlap choice ("MinOverlap").
  kKeepParent,
  /// Promote the two entries with the greatest pairwise distance.
  kMaxDistance,
  /// Promote two pseudo-randomly chosen entries (deterministic per tree).
  kRandom,
};

/// How the remaining entries are assigned to the two new nodes ("partition").
enum class PartitionPolicy {
  /// Each entry goes to the closer pivot.
  kClosestPivot,
  /// Entries are balanced: sorted by distance difference, half to each side.
  kBalanced,
};

/// A complete splitting policy. The four combinations used in Figure 10, from
/// lowest to highest fat-factor: MinOverlap(), MaxDistanceSplit(),
/// BalancedSplit(), RandomSplit().
struct SplitPolicy {
  PromotePolicy promote = PromotePolicy::kKeepParent;
  PartitionPolicy partition = PartitionPolicy::kClosestPivot;

  static SplitPolicy MinOverlap() {
    return {PromotePolicy::kKeepParent, PartitionPolicy::kClosestPivot};
  }
  static SplitPolicy MaxDistanceSplit() {
    return {PromotePolicy::kMaxDistance, PartitionPolicy::kClosestPivot};
  }
  static SplitPolicy BalancedSplit() {
    return {PromotePolicy::kMaxDistance, PartitionPolicy::kBalanced};
  }
  static SplitPolicy RandomSplit() {
    return {PromotePolicy::kRandom, PartitionPolicy::kBalanced};
  }
};

/// How the tree is constructed from the dataset.
enum class BuildStrategy {
  /// Insert every object one at a time, splitting nodes on overflow (the
  /// classic M-tree algorithm; what the paper's experiments use).
  kInsertAtATime,
  /// Sampled-recursive bulk load in the style of Ciaccia & Patella's
  /// BulkLoading algorithm: cluster objects around sampled seeds into
  /// leaf-sized groups, then assemble the internal levels bottom-up.
  /// Produces a better-clustered tree with fewer distance computations and
  /// no split churn; measured in bench_ablation_mtree.
  kBulkLoad,
};

/// "insert" / "bulk".
const char* BuildStrategyToString(BuildStrategy strategy);

/// Construction-path knobs, separate from the structural SplitPolicy knobs
/// so call sites can flip strategies without touching anything else.
struct BuildOptions {
  BuildStrategy strategy = BuildStrategy::kInsertAtATime;
};

/// Tree construction parameters.
struct MTreeOptions {
  /// Maximum entries per node; the paper sweeps 25-100 with default 50.
  size_t node_capacity = 50;
  SplitPolicy split_policy = SplitPolicy::MinOverlap();
  /// Seed for PromotePolicy::kRandom and BuildStrategy::kBulkLoad sampling.
  uint64_t random_seed = 42;
  /// Construction path; Build() and BuildWithNeighborCounts() dispatch on
  /// this, so NeighborhoodGraph, Greedy-DisC, and zoom callers pick up the
  /// bulk loader by changing options only.
  BuildOptions build;
};

/// Cost accounting. Node accesses are the paper's primary metric; distance
/// computations are tracked as secondary context.
struct AccessStats {
  uint64_t node_accesses = 0;
  uint64_t range_queries = 0;
  uint64_t distance_computations = 0;

  AccessStats operator-(const AccessStats& other) const {
    return {node_accesses - other.node_accesses,
            range_queries - other.range_queries,
            distance_computations - other.distance_computations};
  }

  AccessStats& operator+=(const AccessStats& other) {
    node_accesses += other.node_accesses;
    range_queries += other.range_queries;
    distance_computations += other.distance_computations;
    return *this;
  }

  bool operator==(const AccessStats& other) const {
    return node_accesses == other.node_accesses &&
           range_queries == other.range_queries &&
           distance_computations == other.distance_computations;
  }
};

/// A neighbor returned by a range query: object id plus its distance to the
/// query center (callers need the distance for closest-black bookkeeping).
struct Neighbor {
  ObjectId id;
  double dist;
};

/// Which objects a range query reports (it always descends geometrically;
/// the white filter additionally enables the grey-subtree pruning rule).
enum class QueryFilter {
  kAll,        // report every object in the ball
  kWhiteOnly,  // report only white objects
};

/// The M-tree index over a Dataset. The dataset and metric must outlive the
/// tree. Objects are identified by their dense dataset index.
class MTree {
 public:
  MTree(const Dataset& dataset, const DistanceMetric& metric,
        MTreeOptions options = {});
  ~MTree();

  MTree(const MTree&) = delete;
  MTree& operator=(const MTree&) = delete;

  /// Builds the tree with the strategy selected in options().build.
  /// Returns InvalidArgument for capacity < 2 or an empty dataset.
  Status Build();

  /// Bulk-loads the tree regardless of the configured strategy: objects are
  /// recursively clustered around randomly sampled seeds into leaf-sized
  /// groups (Ciaccia–Patella BulkLoading), and the internal levels are then
  /// assembled bottom-up with covering-radius and parent-distance invariants
  /// intact. The resulting tree answers every query identically to an
  /// insert-built tree (exact index, different shape); it is cheaper to
  /// build and typically better clustered. Same preconditions as Build().
  /// The build is serial: fanning its passes out over a thread pool
  /// measured slower than this loop at every size tried.
  Status BulkLoad();
  /// The same build; the pool is not used. Kept for callers that still
  /// pass one.
  Status BulkLoad(ThreadPool* /*unused*/) { return BulkLoad(); }

  /// Build() plus white-neighborhood-size computation. Under the
  /// insert-at-a-time strategy the counts are folded into the insert loop
  /// (§5.1): before inserting p_i a range query over the partial tree
  /// initializes count[p_i] and increments counts of already-present
  /// neighbors — cheaper than a post-build pass (ablation in bench/). Under
  /// the bulk-load strategy the tree is built first and a counting pass
  /// follows; the counts are identical either way. `pool` parallelizes that
  /// counting pass (see ComputeNeighborCountsPostBuild).
  Status BuildWithNeighborCounts(double radius, std::vector<uint32_t>* counts,
                                 ThreadPool* pool = nullptr);

  /// Computes all white-neighborhood sizes with one range query per object
  /// over the complete tree (the baseline the build-time variant beats).
  /// With a pool of more than one thread the object range is fanned out
  /// across per-thread read-only range queries (the tree structure is
  /// immutable after build); each chunk accounts its accesses to a private
  /// AccessStats and the sinks are summed into stats() in chunk order, so
  /// both the counts and the stats totals are exactly the serial pass's.
  void ComputeNeighborCountsPostBuild(double radius,
                                      std::vector<uint32_t>* counts,
                                      ThreadPool* pool = nullptr);

  /// G_r from the index: one unpruned RangeQueryAround per object, each row
  /// sorted ascending, so the result equals NeighborhoodGraph's direct
  /// build. Same fan-out and accounting as ComputeNeighborCountsPostBuild:
  /// stats() gains one range query per object, and the rows and the stats
  /// totals are identical at every thread count. Requires a built tree.
  CsrAdjacency BuildNeighborhoods(double radius,
                                  ThreadPool* pool = nullptr) const;

  // -- Queries ---------------------------------------------------------

  /// Top-down range query around an arbitrary point.
  /// With QueryFilter::kWhiteOnly and pruned=true, subtrees containing no
  /// white objects are skipped (the §5.1 pruning rule).
  void RangeQuery(const Point& center, double radius, QueryFilter filter,
                  bool pruned, std::vector<Neighbor>* out) const;

  /// Same, centered at a stored object; the object itself is excluded,
  /// matching N_r(p_i) in the paper.
  void RangeQueryAround(ObjectId center, double radius, QueryFilter filter,
                        bool pruned, std::vector<Neighbor>* out) const;

  /// Degenerate bottom-up query that inspects only the leaf holding
  /// `center` (one node access): returns the leaf-mates within `radius`.
  /// Fast-C uses this for approximate neighborhood-count maintenance —
  /// thanks to M-tree locality, an object's leaf-mates are the candidates
  /// most likely affected when it is covered.
  void LeafMatesWithin(ObjectId center, double radius,
                       std::vector<Neighbor>* out) const;

  /// Bottom-up range query (§5): starts at the leaf holding `center` and
  /// climbs toward the root, searching intersecting sibling subtrees at each
  /// ancestor. With stop_at_grey=false this returns exactly what the
  /// top-down query returns. With stop_at_grey (Fast-C), climbing stops at
  /// the first ancestor containing no white objects, possibly missing
  /// neighbors in distant leaves — by design (§5.1).
  void RangeQueryBottomUp(ObjectId center, double radius, QueryFilter filter,
                          bool pruned, bool stop_at_grey,
                          std::vector<Neighbor>* out) const;

  // -- Colors (shared state with the DisC algorithms) -------------------

  /// The per-object session state a diversification run leaves behind:
  /// colors plus closest-black-neighbor distances. Saving and restoring it
  /// brings the tree back to exactly a previous run's end state, so adaptive
  /// operations (core/zoom.h) can continue from a cached solution without
  /// re-running the algorithm (the engine layer's session cache).
  struct ColorState {
    std::vector<Color> colors;
    std::vector<double> closest_black_dist;
  };

  /// Captures the current colors and closest-black distances.
  ColorState SaveColorState() const;

  /// Restores a previously saved state, rebuilding the per-node white
  /// counters. Returns InvalidArgument when the state's size does not match
  /// the dataset.
  Status RestoreColorState(const ColorState& state);

  /// Resets every object to white and clears closest-black distances.
  void ResetColors();

  Color color(ObjectId id) const { return colors_[id]; }
  /// Sets an object's color, maintaining per-node white counters.
  void SetColor(ObjectId id, Color color);
  /// Number of objects currently white.
  size_t white_count() const { return total_white_; }
  /// Objects with the given color, in id order.
  std::vector<ObjectId> ObjectsWithColor(Color color) const;

  // -- Zooming support (§5.2) -------------------------------------------

  /// Distance from `id` to its closest known black object (+inf when none).
  double closest_black_dist(ObjectId id) const {
    return closest_black_dist_[id];
  }
  /// Lowers the recorded closest-black distance (never raises it).
  void ObserveBlackNeighbor(ObjectId id, double dist);
  /// Forgets one object's closest-black distance (sets it to +inf); local
  /// zooming uses this when a region's old observations become stale.
  void ClearClosestBlackDistance(ObjectId id);
  /// Clears all closest-black distances to +inf.
  void ResetClosestBlackDistances();
  /// Post-processing pass required when the pruning rule was active during
  /// construction: re-runs an unpruned range query around every black object
  /// so closest-black distances are exact (§5.2).
  void RecomputeClosestBlackDistances(double radius);

  // -- Traversal ---------------------------------------------------------

  /// Objects in leaf-chain (left-to-right) order. Does not count accesses.
  std::vector<ObjectId> LeafOrder() const;

  /// Calls `fn(id)` for every object in leaf order, counting one node access
  /// per visited leaf; when skip_grey_leaves is set, leaves without white
  /// objects are skipped without being accessed (§5.1 visualization of
  /// Basic-DisC).
  void ScanLeaves(bool skip_grey_leaves,
                  const std::function<void(ObjectId)>& fn) const;

  // -- Introspection & stats ---------------------------------------------

  const Dataset& dataset() const { return dataset_; }
  const DistanceMetric& metric() const { return metric_; }
  const MTreeOptions& options() const { return options_; }

  /// Distance between two stored objects (counted as a distance computation).
  double Distance(ObjectId a, ObjectId b) const;

  AccessStats& stats() const { return stats_; }
  void ResetStats() const { stats_ = AccessStats{}; }

  size_t num_nodes() const { return nodes_.size(); }
  size_t num_leaves() const;
  size_t height() const;
  size_t size() const { return dataset_.size(); }

  /// Fat-factor f(T) in [0,1] (Traina et al., eq. of §6): 0 = no overlap.
  /// Runs a full point query per stored object; does not disturb stats().
  double FatFactor() const;

  /// Checks every structural invariant (entry counts, covering radii,
  /// parent distances, leaf chain, white counters, object->leaf map).
  /// Intended for tests; returns the first violation found.
  Status Validate() const;

 private:
  // -- The node array ------------------------------------------------------
  // Nodes are addressed by index into nodes_. Each node owns a contiguous
  // block of entry slots in entries_, and each slot's coordinates sit at the
  // same position of entry_coords_ (slot * dim_), so a node visit reads its
  // entries and their points sequentially. A leaf entry is an indexed
  // object; an internal entry routes to a child subtree whose objects all
  // lie within `radius` of `id`, the child's pivot.
  using NodeId = uint32_t;
  static constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();

  struct Entry {
    ObjectId id = kInvalidObject;  // the object (leaf) or child's pivot
    NodeId child = kNoNode;        // internal entries only
    double parent_dist = 0.0;      // d(id, owning node's pivot); 0 at root
    double radius = 0.0;           // child's covering radius (internal)
  };

  struct Node {
    uint32_t begin = 0;  // first entry slot
    uint32_t size = 0;   // entries in use
    NodeId parent = kNoNode;
    // Leaf chain (§5: "we link together all leaf nodes").
    NodeId next_leaf = kNoNode;
    NodeId prev_leaf = kNoNode;
    /// The object this node is centered on (the id of the entry routing to
    /// it). kInvalidObject for the root.
    ObjectId pivot = kInvalidObject;
    bool is_leaf = true;
  };

  Status CheckBuildPreconditions() const;
  /// The AccessStats the calling thread currently charges: the
  /// ThreadStatsScope sink when one is active for this tree, else stats_.
  AccessStats& LiveStats() const;
  // RAII redirect: while alive, every access this *thread* charges against
  // this tree lands in `sink` instead of stats_. ForEachNeighborhood's
  // chunks each query under their own sink, and the sinks are summed into
  // stats_ afterwards in chunk order — totals stay exactly the serial
  // totals without the counters racing. Scopes nest (restores the previous
  // redirect); other threads are unaffected.
  class ThreadStatsScope {
   public:
    ThreadStatsScope(const MTree& tree, AccessStats* sink);
    ~ThreadStatsScope();

    ThreadStatsScope(const ThreadStatsScope&) = delete;
    ThreadStatsScope& operator=(const ThreadStatsScope&) = delete;

   private:
    const MTree* prev_tree_;
    AccessStats* prev_sink_;
  };

  // The per-object fan-out behind ComputeNeighborCountsPostBuild and
  // BuildNeighborhoods: one unpruned RangeQueryAround per object, in chunks
  // of RecommendedGrain across `pool` (one chunk without one), each chunk
  // charging its own sink. row(chunk, id, found) runs for each object of a
  // Chunk in id order; then, on the calling thread in ascending chunk
  // order, the chunk's sink is summed into stats_ and merge(chunk) runs.
  template <typename Chunk, typename Row, typename Merge>
  void ForEachNeighborhood(double radius, ThreadPool* pool, Row&& row,
                           Merge&& merge) const;

  // (Re)initializes the per-object arrays (leaf map, colors, closest-black
  // distances) for a build over the full dataset.
  void InitObjectState();
  // Appends a node with `slots` entry slots: capacity + 1 on the insert
  // path (room for the entry that overflows it), the exact size on the
  // bulk path.
  NodeId NewNode(bool is_leaf, size_t slots);
  // Ends an insert build: moves every node's entries down to a block of
  // exactly their count, so the built tree keeps no free slots.
  void PackSlots();
  // Appends `entry` (with its id's coordinates) to `node`'s block.
  void AppendEntry(NodeId node, const Entry& entry);
  // Writes `entry` and its id's coordinates into `slot`.
  void WriteEntry(size_t slot, const Entry& entry);
  Entry* node_entries(NodeId node) {
    return entries_.data() + nodes_[node].begin;
  }
  const Entry* node_entries(NodeId node) const {
    return entries_.data() + nodes_[node].begin;
  }
  void Insert(ObjectId id);
  void SplitNode(NodeId node);
  // RangeQuery without the built_ precondition, for querying the partial
  // tree during BuildWithNeighborCounts.
  void RangeQueryUnchecked(const Point& center, double radius,
                           QueryFilter filter, bool pruned,
                           std::vector<Neighbor>* out) const;

  // -- The search loop ---------------------------------------------------
  // Every query (top-down, bottom-up, leaf-mates) runs through one routine,
  // SearchNode, instantiated per metric family and for the dimensions 2, 7
  // and 8 (0: the runtime dim_), dispatched once per query so the distance
  // kernel inlines (metric/metric.h). A query counts its node accesses and
  // distance computations in its own Query::stats and adds them to
  // LiveStats() once, when it ends; every distance the loop computes is
  // counted, and it computes none that it does not count.

  // One range query's arguments, output and counters (mtree.cc).
  struct Query;
  // How far a query climbs from its start node: not at all (top-down from
  // the root, leaf-mates), to the root (exact bottom-up), or until the first
  // ancestor without white objects (Fast-C's stop_at_grey).
  enum class Climb { kNone, kToRoot, kUntilGrey };
  // Dispatches on (metric_.kind(), dim_) to Search<K, D>, then flushes
  // q->stats.
  void RunQuery(NodeId start, Climb climb, Query* q) const;
  template <MetricKind K>
  void RunQueryOfKind(NodeId start, Climb climb, Query* q) const;
  template <MetricKind K, size_t D>
  void Search(NodeId start, Climb climb, Query* q) const;
  // Scans `node`: a leaf reports its objects within the radius, an internal
  // node descends into every child whose ball intersects the query ball
  // except `skip` (the subtree a bottom-up climb came from).
  // `dist_to_pivot` is d(center, node's pivot), or NaN when unknown.
  template <MetricKind K, size_t D>
  void SearchNode(NodeId node, double dist_to_pivot, NodeId skip,
                  Query* q) const;

  void AdjustWhiteCount(NodeId leaf, int delta);
  uint32_t RecomputeWhiteCounts(NodeId node);
  double DistanceToPoint(const Point& q, ObjectId b) const;
  uint64_t PointQueryAccesses(const Point& q) const;
  Status ValidateNode(NodeId node, double radius, size_t depth,
                      size_t leaf_depth, size_t* node_count) const;
  Status ValidateContainment(NodeId node, ObjectId pivot,
                             double radius) const;

  const Dataset& dataset_;
  const DistanceMetric& metric_;
  MTreeOptions options_;
  size_t dim_ = 0;

  std::vector<Node> nodes_;
  std::vector<Entry> entries_;
  // entries_[s]'s coordinates at entry_coords_[s * dim_, (s + 1) * dim_):
  // the only coordinates the search loop reads besides the query center.
  std::vector<double> entry_coords_;
  // Leaf: white objects stored there. Internal: the sum over its children.
  // Zero means the subtree is "grey" in the sense of the §5.1 pruning rule.
  std::vector<uint32_t> white_counts_;
  NodeId root_ = kNoNode;
  NodeId first_leaf_ = kNoNode;  // leftmost leaf of the chain
  std::vector<NodeId> leaf_of_;  // object id -> leaf containing it

  std::vector<Color> colors_;
  std::vector<double> closest_black_dist_;
  size_t total_white_ = 0;

  mutable AccessStats stats_;
  uint64_t rng_state_;
  bool built_ = false;
};

}  // namespace disc

#endif  // DISC_MTREE_MTREE_H_
