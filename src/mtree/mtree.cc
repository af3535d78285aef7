#include "mtree/mtree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "mtree/mtree_internal.h"
#include "util/parallel.h"

namespace disc {

namespace {

// The active per-thread stats redirect (MTree::ThreadStatsScope). Keyed by
// tree so a thread touching several trees only redirects the scoped one.
thread_local const MTree* tls_stats_tree = nullptr;
thread_local AccessStats* tls_stats_sink = nullptr;

}  // namespace

MTree::ThreadStatsScope::ThreadStatsScope(const MTree& tree, AccessStats* sink)
    : prev_tree_(tls_stats_tree), prev_sink_(tls_stats_sink) {
  tls_stats_tree = &tree;
  tls_stats_sink = sink;
}

MTree::ThreadStatsScope::~ThreadStatsScope() {
  tls_stats_tree = prev_tree_;
  tls_stats_sink = prev_sink_;
}

AccessStats& MTree::LiveStats() const {
  return tls_stats_tree == this ? *tls_stats_sink : stats_;
}

MTree::MTree(const Dataset& dataset, const DistanceMetric& metric,
             MTreeOptions options)
    : dataset_(dataset),
      metric_(metric),
      options_(options),
      rng_state_(options.random_seed ^ 0x9e3779b97f4a7c15ULL) {}

MTree::~MTree() = default;

double MTree::Distance(ObjectId a, ObjectId b) const {
  ++LiveStats().distance_computations;
  return metric_.Distance(dataset_.point(a), dataset_.point(b));
}

double MTree::DistanceToPoint(const Point& q, ObjectId b) const {
  ++LiveStats().distance_computations;
  return metric_.Distance(q, dataset_.point(b));
}

const char* BuildStrategyToString(BuildStrategy strategy) {
  switch (strategy) {
    case BuildStrategy::kInsertAtATime:
      return "insert";
    case BuildStrategy::kBulkLoad:
      return "bulk";
  }
  return "unknown";
}

Status MTree::Build(ThreadPool* pool) {
  if (options_.build.strategy == BuildStrategy::kBulkLoad) {
    return BulkLoad(pool);
  }
  DISC_RETURN_NOT_OK(CheckBuildPreconditions());
  for (ObjectId id = 0; id < dataset_.size(); ++id) {
    Insert(id);
  }
  built_ = true;
  ResetColors();
  return Status::OK();
}

Status MTree::BuildWithNeighborCounts(double radius,
                                      std::vector<uint32_t>* counts,
                                      ThreadPool* pool) {
  DISC_RETURN_NOT_OK(CheckBuildPreconditions());
  if (radius < 0) {
    return Status::InvalidArgument("radius must be non-negative");
  }
  if (options_.build.strategy == BuildStrategy::kBulkLoad) {
    // The bulk loader has no insert loop to fold the counting into; build
    // first, then count with one range query per object. The counts are
    // identical to the insert path's (both are exact neighborhood sizes).
    DISC_RETURN_NOT_OK(BulkLoad(pool));
    ComputeNeighborCountsPostBuild(radius, counts, pool);
    return Status::OK();
  }
  counts->assign(dataset_.size(), 0);
  std::vector<Neighbor> found;
  for (ObjectId id = 0; id < dataset_.size(); ++id) {
    if (root_ != nullptr) {
      // Query the partial tree before inserting: every already-present
      // neighbor contributes 1 to the new object's count and gains 1 itself.
      // The tree is mid-construction by design, so the built_ precondition
      // does not apply here.
      found.clear();
      RangeQueryUnchecked(dataset_.point(id), radius, QueryFilter::kAll,
                          /*pruned=*/false, &found);
      (*counts)[id] = static_cast<uint32_t>(found.size());
      for (const Neighbor& nb : found) ++(*counts)[nb.id];
    }
    Insert(id);
  }
  built_ = true;
  ResetColors();
  return Status::OK();
}

void MTree::ComputeNeighborCountsPostBuild(double radius,
                                           std::vector<uint32_t>* counts,
                                           ThreadPool* pool) {
  assert(built_);
  counts->assign(dataset_.size(), 0);
  if (pool == nullptr || pool->threads() <= 1) {
    std::vector<Neighbor> found;
    for (ObjectId id = 0; id < dataset_.size(); ++id) {
      found.clear();
      RangeQueryAround(id, radius, QueryFilter::kAll, /*pruned=*/false,
                       &found);
      (*counts)[id] = static_cast<uint32_t>(found.size());
    }
    return;
  }

  // Each chunk queries under a private stats sink and writes its own slice
  // of `counts`; sinks are summed back into stats_ in chunk order, so counts
  // and totals are exactly the serial pass's (integer sums are exact in any
  // order; the fixed chunk order keeps the contract byte-for-byte).
  const size_t n = dataset_.size();
  const size_t grain = RecommendedGrain(n, pool->threads());
  ParallelOrderedReduce<AccessStats>(
      pool, 0, n, grain,
      [&](size_t chunk_begin, size_t chunk_end) {
        AccessStats local;
        ThreadStatsScope scope(*this, &local);
        std::vector<Neighbor> found;
        for (size_t id = chunk_begin; id < chunk_end; ++id) {
          found.clear();
          RangeQueryAround(static_cast<ObjectId>(id), radius,
                           QueryFilter::kAll, /*pruned=*/false, &found);
          (*counts)[id] = static_cast<uint32_t>(found.size());
        }
        return local;
      },
      [&](AccessStats& local) { stats_ += local; });
}

Status MTree::CheckBuildPreconditions() const {
  if (built_ || root_ != nullptr) {
    return Status::FailedPrecondition("tree already built");
  }
  if (options_.node_capacity < 2) {
    return Status::InvalidArgument("node capacity must be at least 2, got " +
                                   std::to_string(options_.node_capacity));
  }
  if (dataset_.empty()) {
    return Status::InvalidArgument(
        "cannot build an M-tree over an empty dataset");
  }
  return Status::OK();
}

void MTree::InitObjectState() {
  dim_ = dataset_.dim();
  coords_.resize(dataset_.size() * dim_);
  for (ObjectId id = 0; id < dataset_.size(); ++id) {
    const Point& p = dataset_.point(id);
    assert(p.dim() == dim_);
    std::copy(p.data(), p.data() + dim_, coords_.begin() + id * dim_);
  }
  leaf_of_.assign(dataset_.size(), nullptr);
  colors_.assign(dataset_.size(), Color::kWhite);
  closest_black_dist_.assign(dataset_.size(),
                             std::numeric_limits<double>::infinity());
  total_white_ = dataset_.size();
}

void MTree::Insert(ObjectId id) {
  const Point& p = dataset_.point(id);
  if (root_ == nullptr) {
    root_ = std::make_unique<Node>(/*leaf=*/true);
    first_leaf_ = root_.get();
    num_nodes_ = 1;
    InitObjectState();
  }

  Node* node = root_.get();
  ++LiveStats().node_accesses;
  while (!node->is_leaf) {
    // Choose the child needing the least covering-radius enlargement,
    // preferring children that already contain the point.
    size_t best = 0;
    double best_inside = std::numeric_limits<double>::infinity();
    double best_enlarge = std::numeric_limits<double>::infinity();
    double best_dist = 0.0;
    bool found_inside = false;
    for (size_t i = 0; i < node->children.size(); ++i) {
      RoutingEntry& entry = node->children[i];
      double d = DistanceToPoint(p, entry.pivot);
      if (d <= entry.radius) {
        if (!found_inside || d < best_inside) {
          found_inside = true;
          best_inside = d;
          best = i;
          best_dist = d;
        }
      } else if (!found_inside) {
        double enlarge = d - entry.radius;
        if (enlarge < best_enlarge) {
          best_enlarge = enlarge;
          best = i;
          best_dist = d;
        }
      }
    }
    RoutingEntry& chosen = node->children[best];
    if (best_dist > chosen.radius) {
      chosen.radius = best_dist;
      chosen.child->radius = best_dist;
    }
    node = chosen.child.get();
    ++LiveStats().node_accesses;
  }

  double parent_dist =
      node->pivot == kInvalidObject ? 0.0 : DistanceToPoint(p, node->pivot);
  node->objects.push_back(LeafEntry{id, parent_dist});
  leaf_of_[id] = node;
  AdjustWhiteCount(node, +1);

  if (node->objects.size() > options_.node_capacity) {
    SplitNode(node);
  }
}

void MTree::AdjustWhiteCount(Node* leaf, int delta) {
  for (Node* n = leaf; n != nullptr; n = n->parent) {
    n->white_count = static_cast<uint32_t>(
        static_cast<int64_t>(n->white_count) + delta);
  }
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

struct MTree::Query {
  const double* center;
  double radius;
  QueryFilter filter;
  bool pruned;
  ObjectId exclude;  // never reported (the center object), or kInvalidObject
  std::vector<Neighbor>* out;
  AccessStats stats;
};

namespace {
// d(center, pivot) not known: the parent-distance shortcut is skipped.
constexpr double kNoPivotDist = std::numeric_limits<double>::quiet_NaN();
}  // namespace

void MTree::RangeQuery(const Point& center, double radius, QueryFilter filter,
                       bool pruned, std::vector<Neighbor>* out) const {
  assert(built_);
  RangeQueryUnchecked(center, radius, filter, pruned, out);
}

void MTree::RangeQueryUnchecked(const Point& center, double radius,
                                QueryFilter filter, bool pruned,
                                std::vector<Neighbor>* out) const {
  assert(center.dim() == dim_);
  Query q{center.data(), radius, filter, pruned, kInvalidObject, out, {}};
  q.stats.range_queries = 1;
  RunQuery(root_.get(), Climb::kNone, &q);
}

void MTree::RangeQueryAround(ObjectId center, double radius,
                             QueryFilter filter, bool pruned,
                             std::vector<Neighbor>* out) const {
  assert(built_);
  Query q{coords(center), radius, filter, pruned, center, out, {}};
  q.stats.range_queries = 1;
  RunQuery(root_.get(), Climb::kNone, &q);
}

void MTree::LeafMatesWithin(ObjectId center, double radius,
                            std::vector<Neighbor>* out) const {
  assert(built_);
  // The leaf alone, no parent-distance shortcut: one node access and one
  // distance per leaf-mate. Not a range query in the stats.
  Query q{coords(center), radius, QueryFilter::kAll, false, center, out, {}};
  RunQuery(leaf_of_[center], Climb::kNone, &q);
}

void MTree::RangeQueryBottomUp(ObjectId center, double radius,
                               QueryFilter filter, bool pruned,
                               bool stop_at_grey,
                               std::vector<Neighbor>* out) const {
  assert(built_);
  Query q{coords(center), radius, filter, pruned, center, out, {}};
  q.stats.range_queries = 1;
  RunQuery(leaf_of_[center], stop_at_grey ? Climb::kUntilGrey : Climb::kToRoot,
           &q);
}

void MTree::RunQuery(const Node* start, Climb climb, Query* q) const {
  switch (metric_.kind()) {
    case MetricKind::kEuclidean:
      Search<MetricKind::kEuclidean>(start, climb, q);
      break;
    case MetricKind::kManhattan:
      Search<MetricKind::kManhattan>(start, climb, q);
      break;
    case MetricKind::kChebyshev:
      Search<MetricKind::kChebyshev>(start, climb, q);
      break;
    case MetricKind::kHamming:
      Search<MetricKind::kHamming>(start, climb, q);
      break;
  }
  LiveStats() += q->stats;
}

template <MetricKind K>
double MTree::QueryDistance(Query* q, ObjectId id) const {
  ++q->stats.distance_computations;
  return MetricKernel<K>(q->center, coords(id), dim_);
}

template <MetricKind K>
void MTree::Search(const Node* start, Climb climb, Query* q) const {
  // Bottom-up (§5): search the start leaf, then climb toward the root and
  // search the sibling subtrees that intersect the query ball at each
  // ancestor. Climbing to the root makes this exactly the top-down answer;
  // kUntilGrey (Fast-C) ends at the first all-grey ancestor, deliberately
  // accepting that whites in distant leaves are missed (§5.1).
  double dist_to_pivot = kNoPivotDist;
  if (climb != Climb::kNone && start->pivot != kInvalidObject) {
    dist_to_pivot = QueryDistance<K>(q, start->pivot);
  }
  SearchNode<K>(start, dist_to_pivot, /*skip=*/nullptr, q);
  if (climb == Climb::kNone) return;
  for (const Node* node = start; node->parent != nullptr;
       node = node->parent) {
    if (climb == Climb::kUntilGrey && node->parent->white_count == 0) break;
    SearchNode<K>(node->parent, kNoPivotDist, /*skip=*/node, q);
  }
}

template <MetricKind K>
void MTree::SearchNode(const Node* node, double dist_to_pivot,
                       const Node* skip, Query* q) const {
  ++q->stats.node_accesses;
  const bool have_pivot_dist = !std::isnan(dist_to_pivot);
  const double radius = q->radius;
  if (node->is_leaf) {
    // Every candidate is written at the cursor, which advances only when it
    // lies in the ball: no branch on the distance.
    std::vector<Neighbor>& out = *q->out;
    const size_t base = out.size();
    out.resize(base + node->objects.size());
    Neighbor* const first = out.data();
    Neighbor* cursor = first + base;
    const ObjectId exclude = q->exclude;
    const bool white_only = q->filter == QueryFilter::kWhiteOnly;
    for (const LeafEntry& entry : node->objects) {
      if (entry.object == exclude) continue;
      if (white_only && colors_[entry.object] != Color::kWhite) continue;
      // Triangle-inequality shortcut via the precomputed parent distance.
      if (have_pivot_dist &&
          std::fabs(dist_to_pivot - entry.parent_dist) > radius) {
        continue;
      }
      const double d = QueryDistance<K>(q, entry.object);
      *cursor = Neighbor{entry.object, d};
      cursor += d <= radius;
    }
    out.resize(static_cast<size_t>(cursor - first));
    return;
  }
  for (const RoutingEntry& entry : node->children) {
    if (entry.child.get() == skip) continue;
    if (q->pruned && entry.child->white_count == 0) continue;
    if (have_pivot_dist &&
        std::fabs(dist_to_pivot - entry.parent_dist) >
            radius + entry.radius) {
      continue;
    }
    const double d = QueryDistance<K>(q, entry.pivot);
    if (d <= radius + entry.radius) {
      SearchNode<K>(entry.child.get(), d, /*skip=*/nullptr, q);
    }
  }
}

// ---------------------------------------------------------------------------
// Colors & zooming support
// ---------------------------------------------------------------------------

MTree::ColorState MTree::SaveColorState() const {
  assert(built_);
  return ColorState{colors_, closest_black_dist_};
}

Status MTree::RestoreColorState(const ColorState& state) {
  assert(built_);
  if (state.colors.size() != dataset_.size() ||
      state.closest_black_dist.size() != dataset_.size()) {
    return Status::InvalidArgument(
        "color state size does not match the dataset (" +
        std::to_string(state.colors.size()) + " colors, " +
        std::to_string(state.closest_black_dist.size()) + " distances, " +
        std::to_string(dataset_.size()) + " objects)");
  }
  colors_ = state.colors;
  closest_black_dist_ = state.closest_black_dist;
  total_white_ = 0;
  for (Color c : colors_) {
    if (c == Color::kWhite) ++total_white_;
  }
  RecomputeWhiteCounts(root_.get());
  return Status::OK();
}

void MTree::ResetColors() {
  assert(built_);
  colors_.assign(dataset_.size(), Color::kWhite);
  total_white_ = dataset_.size();
  ResetClosestBlackDistances();
  RecomputeWhiteCounts(root_.get());
}

uint32_t MTree::RecomputeWhiteCounts(Node* node) {
  if (node->is_leaf) {
    uint32_t count = 0;
    for (const LeafEntry& entry : node->objects) {
      if (colors_[entry.object] == Color::kWhite) ++count;
    }
    node->white_count = count;
    return count;
  }
  uint32_t count = 0;
  for (RoutingEntry& entry : node->children) {
    count += RecomputeWhiteCounts(entry.child.get());
  }
  node->white_count = count;
  return count;
}

void MTree::SetColor(ObjectId id, Color color) {
  Color old = colors_[id];
  if (old == color) return;
  colors_[id] = color;
  bool was_white = old == Color::kWhite;
  bool is_white = color == Color::kWhite;
  if (was_white && !is_white) {
    AdjustWhiteCount(leaf_of_[id], -1);
    --total_white_;
  } else if (!was_white && is_white) {
    AdjustWhiteCount(leaf_of_[id], +1);
    ++total_white_;
  }
}

std::vector<ObjectId> MTree::ObjectsWithColor(Color color) const {
  std::vector<ObjectId> result;
  for (ObjectId id = 0; id < colors_.size(); ++id) {
    if (colors_[id] == color) result.push_back(id);
  }
  return result;
}

void MTree::ObserveBlackNeighbor(ObjectId id, double dist) {
  if (dist < closest_black_dist_[id]) closest_black_dist_[id] = dist;
}

void MTree::ClearClosestBlackDistance(ObjectId id) {
  closest_black_dist_[id] = std::numeric_limits<double>::infinity();
}

void MTree::ResetClosestBlackDistances() {
  closest_black_dist_.assign(dataset_.size(),
                             std::numeric_limits<double>::infinity());
}

void MTree::RecomputeClosestBlackDistances(double radius) {
  assert(built_);
  ResetClosestBlackDistances();
  std::vector<Neighbor> found;
  for (ObjectId id = 0; id < colors_.size(); ++id) {
    if (colors_[id] != Color::kBlack) continue;
    found.clear();
    RangeQueryAround(id, radius, QueryFilter::kAll, /*pruned=*/false, &found);
    for (const Neighbor& nb : found) ObserveBlackNeighbor(nb.id, nb.dist);
  }
}

// ---------------------------------------------------------------------------
// Traversal
// ---------------------------------------------------------------------------

std::vector<ObjectId> MTree::LeafOrder() const {
  assert(built_);
  std::vector<ObjectId> order;
  order.reserve(dataset_.size());
  for (const Node* leaf = first_leaf_; leaf != nullptr;
       leaf = leaf->next_leaf) {
    for (const LeafEntry& entry : leaf->objects) {
      order.push_back(entry.object);
    }
  }
  return order;
}

void MTree::ScanLeaves(bool skip_grey_leaves,
                       const std::function<void(ObjectId)>& fn) const {
  assert(built_);
  for (const Node* leaf = first_leaf_; leaf != nullptr;
       leaf = leaf->next_leaf) {
    if (skip_grey_leaves && leaf->white_count == 0) continue;
    ++LiveStats().node_accesses;
    for (const LeafEntry& entry : leaf->objects) {
      fn(entry.object);
    }
  }
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

size_t MTree::num_leaves() const {
  size_t count = 0;
  for (const Node* leaf = first_leaf_; leaf != nullptr;
       leaf = leaf->next_leaf) {
    ++count;
  }
  return count;
}

size_t MTree::height() const {
  if (root_ == nullptr) return 0;
  size_t h = 1;
  const Node* node = root_.get();
  while (!node->is_leaf) {
    node = node->children.front().child.get();
    ++h;
  }
  return h;
}

uint64_t MTree::PointQueryAccesses(const Point& q) const {
  // Visits every node whose covering ball contains q (no early exit), which
  // is what the fat-factor of Traina et al. measures: an overlap-free tree
  // visits exactly one node per level.
  uint64_t accesses = 0;
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    ++accesses;
    if (node->is_leaf) continue;
    for (const RoutingEntry& entry : node->children) {
      double d = metric_.Distance(q, dataset_.point(entry.pivot));
      if (d <= entry.radius) stack.push_back(entry.child.get());
    }
  }
  return accesses;
}

double MTree::FatFactor() const {
  assert(built_);
  const size_t n = dataset_.size();
  const size_t h = height();
  const size_t m = num_nodes_;
  if (m <= h) return 0.0;
  uint64_t total = 0;
  for (ObjectId id = 0; id < n; ++id) {
    total += PointQueryAccesses(dataset_.point(id));
  }
  double z = static_cast<double>(total);
  return (z - static_cast<double>(n) * h) /
         (static_cast<double>(n) * static_cast<double>(m - h));
}

// ---------------------------------------------------------------------------
// Validation (tests)
// ---------------------------------------------------------------------------

Status MTree::Validate() const {
  if (!built_) return Status::FailedPrecondition("tree not built");

  // Uniform leaf depth.
  size_t leaf_depth = height();

  size_t node_count = 0;
  DISC_RETURN_NOT_OK(ValidateNode(root_.get(), 1, leaf_depth, &node_count));
  if (node_count != num_nodes_) {
    return Status::Corruption("node counter records " +
                              std::to_string(num_nodes_) + " nodes, tree has " +
                              std::to_string(node_count));
  }

  // Leaf chain covers every object exactly once.
  std::vector<char> seen(dataset_.size(), 0);
  size_t chained = 0;
  const Node* prev = nullptr;
  for (const Node* leaf = first_leaf_; leaf != nullptr;
       leaf = leaf->next_leaf) {
    if (leaf->prev_leaf != prev) {
      return Status::Corruption("leaf chain prev pointer broken");
    }
    prev = leaf;
    for (const LeafEntry& entry : leaf->objects) {
      if (entry.object >= dataset_.size() || seen[entry.object]) {
        return Status::Corruption("leaf chain enumerates object " +
                                  std::to_string(entry.object) + " twice");
      }
      seen[entry.object] = 1;
      ++chained;
      if (leaf_of_[entry.object] != leaf) {
        return Status::Corruption("leaf_of map stale for object " +
                                  std::to_string(entry.object));
      }
    }
  }
  if (chained != dataset_.size()) {
    return Status::Corruption("leaf chain holds " + std::to_string(chained) +
                              " of " + std::to_string(dataset_.size()) +
                              " objects");
  }

  // White counters match colors.
  size_t whites = 0;
  for (Color c : colors_) {
    if (c == Color::kWhite) ++whites;
  }
  if (whites != total_white_) {
    return Status::Corruption("total white counter out of sync");
  }
  if (root_->white_count != whites) {
    return Status::Corruption("root white counter out of sync");
  }
  return Status::OK();
}

Status MTree::ValidateContainment(const Node* node, ObjectId pivot,
                                  double radius) const {
  if (node->is_leaf) {
    for (const LeafEntry& entry : node->objects) {
      double d = metric_.Distance(dataset_.point(entry.object),
                                  dataset_.point(pivot));
      if (d > radius + 1e-9) {
        return Status::Corruption("object " + std::to_string(entry.object) +
                                  " escapes covering radius of pivot " +
                                  std::to_string(pivot));
      }
    }
    return Status::OK();
  }
  for (const RoutingEntry& entry : node->children) {
    DISC_RETURN_NOT_OK(ValidateContainment(entry.child.get(), pivot, radius));
  }
  return Status::OK();
}

Status MTree::ValidateNode(const Node* node, size_t depth, size_t leaf_depth,
                           size_t* node_count) const {
  ++*node_count;
  const size_t entries = node->size();
  if (node != root_.get() && entries == 0) {
    return Status::Corruption("non-root node is empty");
  }
  if (entries > options_.node_capacity) {
    return Status::Corruption("node exceeds capacity");
  }
  if (node->is_leaf) {
    if (depth != leaf_depth) {
      return Status::Corruption("leaf at depth " + std::to_string(depth) +
                                ", expected " + std::to_string(leaf_depth));
    }
    uint32_t whites = 0;
    for (const LeafEntry& entry : node->objects) {
      if (colors_[entry.object] == Color::kWhite) ++whites;
      if (node->pivot != kInvalidObject) {
        double d = metric_.Distance(dataset_.point(entry.object),
                                    dataset_.point(node->pivot));
        if (std::fabs(d - entry.parent_dist) > 1e-9) {
          return Status::Corruption("leaf entry parent_dist incorrect");
        }
        if (d > node->radius + 1e-9) {
          return Status::Corruption("object outside leaf covering radius");
        }
      }
    }
    if (whites != node->white_count) {
      return Status::Corruption("leaf white counter out of sync");
    }
    return Status::OK();
  }

  uint32_t white_sum = 0;
  for (const RoutingEntry& entry : node->children) {
    const Node* child = entry.child.get();
    if (child->parent != node) {
      return Status::Corruption("child parent pointer broken");
    }
    if (child->pivot != entry.pivot) {
      return Status::Corruption("child pivot mirror out of sync");
    }
    if (std::fabs(child->radius - entry.radius) > 1e-12) {
      return Status::Corruption("child radius mirror out of sync");
    }
    if (node->pivot != kInvalidObject) {
      double d = metric_.Distance(dataset_.point(entry.pivot),
                                  dataset_.point(node->pivot));
      if (std::fabs(d - entry.parent_dist) > 1e-9) {
        return Status::Corruption("routing entry parent_dist incorrect");
      }
    }
    // Covering property: every object stored below the child lies within the
    // child's covering radius. (Child *balls* need not nest inside parent
    // balls — insertion enlarges radii only along the descent path — so only
    // object containment is an invariant.)
    DISC_RETURN_NOT_OK(ValidateContainment(child, entry.pivot, entry.radius));
    white_sum += child->white_count;
    DISC_RETURN_NOT_OK(ValidateNode(child, depth + 1, leaf_depth, node_count));
  }
  if (white_sum != node->white_count) {
    return Status::Corruption("internal white counter out of sync");
  }
  return Status::OK();
}

}  // namespace disc
