#include "mtree/mtree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

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

Status MTree::Build() {
  if (options_.build.strategy == BuildStrategy::kBulkLoad) {
    return BulkLoad();
  }
  DISC_RETURN_NOT_OK(CheckBuildPreconditions());
  for (ObjectId id = 0; id < dataset_.size(); ++id) {
    Insert(id);
  }
  PackSlots();
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
    DISC_RETURN_NOT_OK(BulkLoad());
    ComputeNeighborCountsPostBuild(radius, counts, pool);
    return Status::OK();
  }
  counts->assign(dataset_.size(), 0);
  std::vector<Neighbor> found;
  for (ObjectId id = 0; id < dataset_.size(); ++id) {
    if (root_ != kNoNode) {
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
  PackSlots();
  built_ = true;
  ResetColors();
  return Status::OK();
}

template <typename Chunk, typename Row, typename Merge>
void MTree::ForEachNeighborhood(double radius, ThreadPool* pool, Row&& row,
                                Merge&& merge) const {
  assert(built_);
  struct Sink {
    Chunk chunk;
    AccessStats stats;
  };
  // Integer sums are exact in any order; the fixed chunk order keeps every
  // order-sensitive merge byte-for-byte the serial pass's.
  const size_t n = dataset_.size();
  const size_t grain = pool == nullptr || pool->threads() <= 1
                           ? n
                           : RecommendedGrain(n, pool->threads());
  ParallelOrderedReduce<Sink>(
      pool, 0, n, grain,
      [&](size_t chunk_begin, size_t chunk_end) {
        Sink sink;
        ThreadStatsScope scope(*this, &sink.stats);
        std::vector<Neighbor> found;
        for (size_t id = chunk_begin; id < chunk_end; ++id) {
          found.clear();
          RangeQueryAround(static_cast<ObjectId>(id), radius,
                           QueryFilter::kAll, /*pruned=*/false, &found);
          row(sink.chunk, static_cast<ObjectId>(id), found);
        }
        return sink;
      },
      [&](Sink& sink) {
        stats_ += sink.stats;
        merge(sink.chunk);
      });
}

void MTree::ComputeNeighborCountsPostBuild(double radius,
                                           std::vector<uint32_t>* counts,
                                           ThreadPool* pool) {
  // Each chunk writes its own slice of `counts`, so there is nothing to
  // merge.
  struct NoRows {};
  counts->assign(dataset_.size(), 0);
  ForEachNeighborhood<NoRows>(
      radius, pool,
      [counts](NoRows&, ObjectId id, const std::vector<Neighbor>& found) {
        (*counts)[id] = static_cast<uint32_t>(found.size());
      },
      [](NoRows&) {});
}

CsrAdjacency MTree::BuildNeighborhoods(double radius, ThreadPool* pool) const {
  // Each chunk concatenates its rows, already in id order, so chunks append
  // straight into the CSR.
  struct Rows {
    decltype(CsrAdjacency::ids) ids;
    std::vector<uint32_t> degrees;
  };
  CsrAdjacency adjacency(dataset_.size());
  size_t next_row = 0;
  ForEachNeighborhood<Rows>(
      radius, pool,
      [](Rows& rows, ObjectId, const std::vector<Neighbor>& found) {
        const size_t row_begin = rows.ids.size();
        for (const Neighbor& nb : found) rows.ids.push_back(nb.id);
        std::sort(rows.ids.begin() + row_begin, rows.ids.end());
        rows.degrees.push_back(static_cast<uint32_t>(found.size()));
      },
      [&](Rows& rows) {
        if (adjacency.ids.empty()) {
          adjacency.ids = std::move(rows.ids);
        } else {
          adjacency.ids.insert(adjacency.ids.end(), rows.ids.begin(),
                               rows.ids.end());
        }
        for (uint32_t degree : rows.degrees) {
          adjacency.offsets[next_row + 1] =
              adjacency.offsets[next_row] + degree;
          ++next_row;
        }
      });
  return adjacency;
}

Status MTree::CheckBuildPreconditions() const {
  if (built_ || root_ != kNoNode) {
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
  leaf_of_.assign(dataset_.size(), kNoNode);
  colors_.assign(dataset_.size(), Color::kWhite);
  closest_black_dist_.assign(dataset_.size(),
                             std::numeric_limits<double>::infinity());
  total_white_ = dataset_.size();
}

MTree::NodeId MTree::NewNode(bool is_leaf, size_t slots) {
  assert(entries_.size() + slots <= std::numeric_limits<uint32_t>::max());
  Node node;
  node.begin = static_cast<uint32_t>(entries_.size());
  node.is_leaf = is_leaf;
  entries_.resize(entries_.size() + slots);
  entry_coords_.resize(entry_coords_.size() + slots * dim_);
  nodes_.push_back(node);
  white_counts_.push_back(0);
  return static_cast<NodeId>(nodes_.size() - 1);
}

void MTree::WriteEntry(size_t slot, const Entry& entry) {
  entries_[slot] = entry;
  const double* point = dataset_.point(entry.id).data();
  std::copy(point, point + dim_, entry_coords_.begin() + slot * dim_);
}

void MTree::AppendEntry(NodeId node, const Entry& entry) {
  Node& target = nodes_[node];
  WriteEntry(target.begin + target.size, entry);
  ++target.size;
}

void MTree::PackSlots() {
  // Nodes are numbered in allocation order, so their blocks lie in node
  // order and each one only moves toward the front.
  size_t next = 0;
  for (Node& node : nodes_) {
    std::copy(entries_.begin() + node.begin,
              entries_.begin() + node.begin + node.size,
              entries_.begin() + next);
    std::copy(entry_coords_.begin() + node.begin * dim_,
              entry_coords_.begin() + (node.begin + node.size) * dim_,
              entry_coords_.begin() + next * dim_);
    node.begin = static_cast<uint32_t>(next);
    next += node.size;
  }
  entries_.resize(next);
  entries_.shrink_to_fit();
  entry_coords_.resize(next * dim_);
  entry_coords_.shrink_to_fit();
}

void MTree::Insert(ObjectId id) {
  const Point& p = dataset_.point(id);
  if (root_ == kNoNode) {
    InitObjectState();
    root_ = NewNode(/*is_leaf=*/true, options_.node_capacity + 1);
    first_leaf_ = root_;
  }

  NodeId node = root_;
  ++LiveStats().node_accesses;
  while (!nodes_[node].is_leaf) {
    // Choose the child needing the least covering-radius enlargement,
    // preferring children that already contain the point.
    Entry* entries = node_entries(node);
    size_t best = 0;
    double best_inside = std::numeric_limits<double>::infinity();
    double best_enlarge = std::numeric_limits<double>::infinity();
    double best_dist = 0.0;
    bool found_inside = false;
    for (size_t i = 0; i < nodes_[node].size; ++i) {
      const Entry& entry = entries[i];
      double d = DistanceToPoint(p, entry.id);
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
    Entry& chosen = entries[best];
    if (best_dist > chosen.radius) chosen.radius = best_dist;
    node = chosen.child;
    ++LiveStats().node_accesses;
  }

  const ObjectId pivot = nodes_[node].pivot;
  double parent_dist =
      pivot == kInvalidObject ? 0.0 : DistanceToPoint(p, pivot);
  AppendEntry(node, Entry{id, kNoNode, parent_dist, 0.0});
  leaf_of_[id] = node;
  AdjustWhiteCount(node, +1);

  if (nodes_[node].size > options_.node_capacity) {
    SplitNode(node);
  }
}

void MTree::AdjustWhiteCount(NodeId leaf, int delta) {
  for (NodeId n = leaf; n != kNoNode; n = nodes_[n].parent) {
    white_counts_[n] = static_cast<uint32_t>(
        static_cast<int64_t>(white_counts_[n]) + delta);
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
  RunQuery(root_, Climb::kNone, &q);
}

void MTree::RangeQueryAround(ObjectId center, double radius,
                             QueryFilter filter, bool pruned,
                             std::vector<Neighbor>* out) const {
  assert(built_);
  Query q{dataset_.point(center).data(), radius, filter, pruned, center, out,
          {}};
  q.stats.range_queries = 1;
  RunQuery(root_, Climb::kNone, &q);
}

void MTree::LeafMatesWithin(ObjectId center, double radius,
                            std::vector<Neighbor>* out) const {
  assert(built_);
  // The leaf alone, no parent-distance shortcut: one node access and one
  // distance per leaf-mate. Not a range query in the stats.
  Query q{dataset_.point(center).data(), radius, QueryFilter::kAll, false,
          center, out, {}};
  RunQuery(leaf_of_[center], Climb::kNone, &q);
}

void MTree::RangeQueryBottomUp(ObjectId center, double radius,
                               QueryFilter filter, bool pruned,
                               bool stop_at_grey,
                               std::vector<Neighbor>* out) const {
  assert(built_);
  Query q{dataset_.point(center).data(), radius, filter, pruned, center, out,
          {}};
  q.stats.range_queries = 1;
  RunQuery(leaf_of_[center], stop_at_grey ? Climb::kUntilGrey : Climb::kToRoot,
           &q);
}

void MTree::RunQuery(NodeId start, Climb climb, Query* q) const {
  switch (metric_.kind()) {
    case MetricKind::kEuclidean:
      RunQueryOfKind<MetricKind::kEuclidean>(start, climb, q);
      break;
    case MetricKind::kManhattan:
      RunQueryOfKind<MetricKind::kManhattan>(start, climb, q);
      break;
    case MetricKind::kChebyshev:
      RunQueryOfKind<MetricKind::kChebyshev>(start, climb, q);
      break;
    case MetricKind::kHamming:
      RunQueryOfKind<MetricKind::kHamming>(start, climb, q);
      break;
  }
  LiveStats() += q->stats;
}

template <MetricKind K>
void MTree::RunQueryOfKind(NodeId start, Climb climb, Query* q) const {
  // The served dimensions (2-D clustered/uniform/cities, 7-D cameras, 8-D
  // uniform) get a kernel whose loop length is a constant.
  switch (dim_) {
    case 2:
      Search<K, 2>(start, climb, q);
      break;
    case 7:
      Search<K, 7>(start, climb, q);
      break;
    case 8:
      Search<K, 8>(start, climb, q);
      break;
    default:
      Search<K, 0>(start, climb, q);
      break;
  }
}

template <MetricKind K, size_t D>
void MTree::Search(NodeId start, Climb climb, Query* q) const {
  // Bottom-up (§5): search the start leaf, then climb toward the root and
  // search the sibling subtrees that intersect the query ball at each
  // ancestor. Climbing to the root makes this exactly the top-down answer;
  // kUntilGrey (Fast-C) ends at the first all-grey ancestor, deliberately
  // accepting that whites in distant leaves are missed (§5.1).
  double dist_to_pivot = kNoPivotDist;
  const ObjectId pivot = nodes_[start].pivot;
  if (climb != Climb::kNone && pivot != kInvalidObject) {
    ++q->stats.distance_computations;
    dist_to_pivot = MetricKernel<K>(q->center, dataset_.point(pivot).data(),
                                    D == 0 ? dim_ : D);
  }
  SearchNode<K, D>(start, dist_to_pivot, /*skip=*/kNoNode, q);
  if (climb == Climb::kNone) return;
  for (NodeId node = start; nodes_[node].parent != kNoNode;
       node = nodes_[node].parent) {
    const NodeId parent = nodes_[node].parent;
    if (climb == Climb::kUntilGrey && white_counts_[parent] == 0) break;
    SearchNode<K, D>(parent, kNoPivotDist, /*skip=*/node, q);
  }
}

template <MetricKind K, size_t D>
void MTree::SearchNode(NodeId node_id, double dist_to_pivot, NodeId skip,
                       Query* q) const {
  ++q->stats.node_accesses;
  const size_t dim = D == 0 ? dim_ : D;
  const Node& node = nodes_[node_id];
  const Entry* const entries = entries_.data() + node.begin;
  const double* const coords =
      entry_coords_.data() + static_cast<size_t>(node.begin) * dim;
  const size_t size = node.size;
  const double* const center = q->center;
  const bool have_pivot_dist = !std::isnan(dist_to_pivot);
  const double radius = q->radius;
  if (node.is_leaf) {
    // Every candidate is written at the cursor, which advances only when it
    // lies in the ball: no branch on the distance.
    std::vector<Neighbor>& out = *q->out;
    const size_t base = out.size();
    out.resize(base + size);
    Neighbor* const first = out.data();
    Neighbor* cursor = first + base;
    const ObjectId exclude = q->exclude;
    const bool white_only = q->filter == QueryFilter::kWhiteOnly;
    uint64_t distances = 0;
    for (size_t i = 0; i < size; ++i) {
      const Entry& entry = entries[i];
      if (entry.id == exclude) continue;
      if (white_only && colors_[entry.id] != Color::kWhite) continue;
      // Triangle-inequality shortcut via the precomputed parent distance.
      if (have_pivot_dist &&
          std::fabs(dist_to_pivot - entry.parent_dist) > radius) {
        continue;
      }
      ++distances;
      const double d = MetricKernel<K>(center, coords + i * dim, dim);
      *cursor = Neighbor{entry.id, d};
      cursor += d <= radius;
    }
    q->stats.distance_computations += distances;
    out.resize(static_cast<size_t>(cursor - first));
    return;
  }
  for (size_t i = 0; i < size; ++i) {
    const Entry& entry = entries[i];
    if (entry.child == skip) continue;
    if (q->pruned && white_counts_[entry.child] == 0) continue;
    if (have_pivot_dist &&
        std::fabs(dist_to_pivot - entry.parent_dist) >
            radius + entry.radius) {
      continue;
    }
    ++q->stats.distance_computations;
    const double d = MetricKernel<K>(center, coords + i * dim, dim);
    if (d <= radius + entry.radius) {
      SearchNode<K, D>(entry.child, d, /*skip=*/kNoNode, q);
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
  RecomputeWhiteCounts(root_);
  return Status::OK();
}

void MTree::ResetColors() {
  assert(built_);
  colors_.assign(dataset_.size(), Color::kWhite);
  total_white_ = dataset_.size();
  ResetClosestBlackDistances();
  RecomputeWhiteCounts(root_);
}

uint32_t MTree::RecomputeWhiteCounts(NodeId node) {
  const Entry* entries = node_entries(node);
  uint32_t count = 0;
  for (size_t i = 0; i < nodes_[node].size; ++i) {
    if (nodes_[node].is_leaf) {
      if (colors_[entries[i].id] == Color::kWhite) ++count;
    } else {
      count += RecomputeWhiteCounts(entries[i].child);
    }
  }
  white_counts_[node] = count;
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
  for (NodeId leaf = first_leaf_; leaf != kNoNode;
       leaf = nodes_[leaf].next_leaf) {
    const Entry* entries = node_entries(leaf);
    for (size_t i = 0; i < nodes_[leaf].size; ++i) {
      order.push_back(entries[i].id);
    }
  }
  return order;
}

void MTree::ScanLeaves(bool skip_grey_leaves,
                       const std::function<void(ObjectId)>& fn) const {
  assert(built_);
  for (NodeId leaf = first_leaf_; leaf != kNoNode;
       leaf = nodes_[leaf].next_leaf) {
    if (skip_grey_leaves && white_counts_[leaf] == 0) continue;
    ++LiveStats().node_accesses;
    const Entry* entries = node_entries(leaf);
    for (size_t i = 0; i < nodes_[leaf].size; ++i) {
      fn(entries[i].id);
    }
  }
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

size_t MTree::num_leaves() const {
  size_t count = 0;
  for (NodeId leaf = first_leaf_; leaf != kNoNode;
       leaf = nodes_[leaf].next_leaf) {
    ++count;
  }
  return count;
}

size_t MTree::height() const {
  if (root_ == kNoNode) return 0;
  size_t h = 1;
  for (NodeId node = root_; !nodes_[node].is_leaf;
       node = node_entries(node)[0].child) {
    ++h;
  }
  return h;
}

uint64_t MTree::PointQueryAccesses(const Point& q) const {
  // Visits every node whose covering ball contains q (no early exit), which
  // is what the fat-factor of Traina et al. measures: an overlap-free tree
  // visits exactly one node per level.
  uint64_t accesses = 0;
  std::vector<NodeId> stack = {root_};
  while (!stack.empty()) {
    const NodeId node = stack.back();
    stack.pop_back();
    ++accesses;
    if (nodes_[node].is_leaf) continue;
    const Entry* entries = node_entries(node);
    for (size_t i = 0; i < nodes_[node].size; ++i) {
      double d = metric_.Distance(q, dataset_.point(entries[i].id));
      if (d <= entries[i].radius) stack.push_back(entries[i].child);
    }
  }
  return accesses;
}

double MTree::FatFactor() const {
  assert(built_);
  const size_t n = dataset_.size();
  const size_t h = height();
  const size_t m = nodes_.size();
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
  DISC_RETURN_NOT_OK(ValidateNode(root_,
                                  std::numeric_limits<double>::infinity(), 1,
                                  leaf_depth, &node_count));
  if (node_count != nodes_.size()) {
    return Status::Corruption("node array holds " +
                              std::to_string(nodes_.size()) +
                              " nodes, the tree reaches " +
                              std::to_string(node_count));
  }

  // Leaf chain covers every object exactly once.
  std::vector<char> seen(dataset_.size(), 0);
  size_t chained = 0;
  NodeId prev = kNoNode;
  for (NodeId leaf = first_leaf_; leaf != kNoNode;
       leaf = nodes_[leaf].next_leaf) {
    if (nodes_[leaf].prev_leaf != prev) {
      return Status::Corruption("leaf chain prev link broken");
    }
    prev = leaf;
    const Entry* entries = node_entries(leaf);
    for (size_t i = 0; i < nodes_[leaf].size; ++i) {
      const ObjectId object = entries[i].id;
      if (object >= dataset_.size() || seen[object]) {
        return Status::Corruption("leaf chain enumerates object " +
                                  std::to_string(object) + " twice");
      }
      seen[object] = 1;
      ++chained;
      if (leaf_of_[object] != leaf) {
        return Status::Corruption("leaf_of map stale for object " +
                                  std::to_string(object));
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
  if (white_counts_[root_] != whites) {
    return Status::Corruption("root white counter out of sync");
  }
  return Status::OK();
}

Status MTree::ValidateContainment(NodeId node, ObjectId pivot,
                                  double radius) const {
  const Entry* entries = node_entries(node);
  for (size_t i = 0; i < nodes_[node].size; ++i) {
    if (!nodes_[node].is_leaf) {
      DISC_RETURN_NOT_OK(
          ValidateContainment(entries[i].child, pivot, radius));
      continue;
    }
    double d = metric_.Distance(dataset_.point(entries[i].id),
                                dataset_.point(pivot));
    if (d > radius + 1e-9) {
      return Status::Corruption("object " + std::to_string(entries[i].id) +
                                " escapes covering radius of pivot " +
                                std::to_string(pivot));
    }
  }
  return Status::OK();
}

Status MTree::ValidateNode(NodeId node, double radius, size_t depth,
                           size_t leaf_depth, size_t* node_count) const {
  ++*node_count;
  const Node& header = nodes_[node];
  const size_t entries_in_use = header.size;
  if (node != root_ && entries_in_use == 0) {
    return Status::Corruption("non-root node is empty");
  }
  if (entries_in_use > options_.node_capacity) {
    return Status::Corruption("node exceeds capacity");
  }
  if (header.begin + entries_in_use > entries_.size()) {
    return Status::Corruption("node's entry block runs past the array");
  }
  const Entry* entries = node_entries(node);
  for (size_t i = 0; i < entries_in_use; ++i) {
    const double* stored =
        entry_coords_.data() + (header.begin + i) * dim_;
    if (!std::equal(stored, stored + dim_,
                    dataset_.point(entries[i].id).data())) {
      return Status::Corruption("entry coordinates differ from object " +
                                std::to_string(entries[i].id));
    }
  }
  if (header.is_leaf) {
    if (depth != leaf_depth) {
      return Status::Corruption("leaf at depth " + std::to_string(depth) +
                                ", expected " + std::to_string(leaf_depth));
    }
    uint32_t whites = 0;
    for (size_t i = 0; i < entries_in_use; ++i) {
      const Entry& entry = entries[i];
      if (entry.child != kNoNode) {
        return Status::Corruption("leaf entry routes to a child");
      }
      if (colors_[entry.id] == Color::kWhite) ++whites;
      if (header.pivot != kInvalidObject) {
        double d = metric_.Distance(dataset_.point(entry.id),
                                    dataset_.point(header.pivot));
        if (std::fabs(d - entry.parent_dist) > 1e-9) {
          return Status::Corruption("leaf entry parent_dist incorrect");
        }
        if (d > radius + 1e-9) {
          return Status::Corruption("object outside leaf covering radius");
        }
      }
    }
    if (whites != white_counts_[node]) {
      return Status::Corruption("leaf white counter out of sync");
    }
    return Status::OK();
  }

  uint32_t white_sum = 0;
  for (size_t i = 0; i < entries_in_use; ++i) {
    const Entry& entry = entries[i];
    const NodeId child = entry.child;
    if (child >= nodes_.size()) {
      return Status::Corruption("routing entry has no child");
    }
    if (nodes_[child].parent != node) {
      return Status::Corruption("child parent link broken");
    }
    if (nodes_[child].pivot != entry.id) {
      return Status::Corruption("child pivot mirror out of sync");
    }
    if (header.pivot != kInvalidObject) {
      double d = metric_.Distance(dataset_.point(entry.id),
                                  dataset_.point(header.pivot));
      if (std::fabs(d - entry.parent_dist) > 1e-9) {
        return Status::Corruption("routing entry parent_dist incorrect");
      }
    }
    // Covering property: every object stored below the child lies within the
    // child's covering radius. (Child *balls* need not nest inside parent
    // balls — insertion enlarges radii only along the descent path — so only
    // object containment is an invariant.)
    DISC_RETURN_NOT_OK(ValidateContainment(child, entry.id, entry.radius));
    white_sum += white_counts_[child];
    DISC_RETURN_NOT_OK(
        ValidateNode(child, entry.radius, depth + 1, leaf_depth, node_count));
  }
  if (white_sum != white_counts_[node]) {
    return Status::Corruption("internal white counter out of sync");
  }
  return Status::OK();
}

}  // namespace disc
