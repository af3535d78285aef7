#include "mtree/mtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <set>
#include <string>

#include "data/cameras.h"
#include "data/generators.h"
#include "metric/metric.h"
#include "util/parallel.h"
#include "util/random.h"

namespace disc {
namespace {

std::vector<ObjectId> SortedIds(std::vector<Neighbor> neighbors) {
  std::vector<ObjectId> ids;
  ids.reserve(neighbors.size());
  for (const Neighbor& nb : neighbors) ids.push_back(nb.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<ObjectId> BruteForceRange(const Dataset& d,
                                      const DistanceMetric& metric,
                                      const Point& center, double radius,
                                      ObjectId exclude = kInvalidObject) {
  std::vector<ObjectId> ids;
  for (ObjectId i = 0; i < d.size(); ++i) {
    if (i == exclude) continue;
    if (metric.Distance(center, d.point(i)) <= radius) ids.push_back(i);
  }
  return ids;
}

TEST(MTreeBuildTest, EmptyDatasetRejected) {
  Dataset d;
  EuclideanMetric metric;
  MTree tree(d, metric);
  Status s = tree.Build();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(MTreeBuildTest, TinyCapacityRejected) {
  Dataset d = MakeUniformDataset(10, 2, 1);
  EuclideanMetric metric;
  MTreeOptions options;
  options.node_capacity = 1;
  MTree tree(d, metric, options);
  Status s = tree.Build();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(MTreeBuildTest, DoubleBuildRejected) {
  Dataset d = MakeUniformDataset(10, 2, 1);
  EuclideanMetric metric;
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  Status s = tree.Build();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(MTreeBuildTest, SingleObjectTree) {
  Dataset d;
  ASSERT_TRUE(d.Add(Point{0.5, 0.5}).ok());
  EuclideanMetric metric;
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  EXPECT_TRUE(tree.Validate().ok());
  EXPECT_EQ(tree.height(), 1u);
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_EQ(tree.LeafOrder(), std::vector<ObjectId>{0});
}

TEST(MTreeBuildTest, StructurallyValidAfterManySplits) {
  Dataset d = MakeUniformDataset(2000, 2, 42);
  EuclideanMetric metric;
  MTreeOptions options;
  options.node_capacity = 8;  // force deep tree
  MTree tree(d, metric, options);
  ASSERT_TRUE(tree.Build().ok());
  EXPECT_TRUE(tree.Validate().ok()) << tree.Validate().ToString();
  EXPECT_GT(tree.height(), 2u);
  EXPECT_GT(tree.num_nodes(), 100u);
}

TEST(MTreeBuildTest, LeafOrderIsAPermutation) {
  Dataset d = MakeClusteredDataset(777, 2, 3);
  EuclideanMetric metric;
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  std::vector<ObjectId> order = tree.LeafOrder();
  ASSERT_EQ(order.size(), d.size());
  std::set<ObjectId> unique(order.begin(), order.end());
  EXPECT_EQ(unique.size(), d.size());
}

TEST(MTreeBuildTest, BuildCountsAccesses) {
  Dataset d = MakeUniformDataset(500, 2, 7);
  EuclideanMetric metric;
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  EXPECT_GT(tree.stats().node_accesses, 500u);  // at least one per insert
  tree.ResetStats();
  EXPECT_EQ(tree.stats().node_accesses, 0u);
}

class MTreePolicyTest : public ::testing::TestWithParam<SplitPolicy> {};

TEST_P(MTreePolicyTest, ValidUnderEveryPolicyAndCapacity) {
  EuclideanMetric metric;
  for (size_t capacity : {3u, 5u, 25u, 50u}) {
    Dataset d = MakeClusteredDataset(600, 2, 11);
    MTreeOptions options;
    options.node_capacity = capacity;
    options.split_policy = GetParam();
    MTree tree(d, metric, options);
    ASSERT_TRUE(tree.Build().ok());
    EXPECT_TRUE(tree.Validate().ok())
        << "capacity " << capacity << ": " << tree.Validate().ToString();
  }
}

TEST_P(MTreePolicyTest, RangeQueriesExactUnderEveryPolicy) {
  EuclideanMetric metric;
  Dataset d = MakeClusteredDataset(400, 2, 13);
  MTreeOptions options;
  options.node_capacity = 10;
  options.split_policy = GetParam();
  MTree tree(d, metric, options);
  ASSERT_TRUE(tree.Build().ok());
  std::vector<Neighbor> found;
  for (ObjectId center : {0u, 17u, 100u, 399u}) {
    for (double radius : {0.01, 0.05, 0.2, 0.7}) {
      found.clear();
      tree.RangeQueryAround(center, radius, QueryFilter::kAll, false, &found);
      EXPECT_EQ(SortedIds(found),
                BruteForceRange(d, metric, d.point(center), radius, center));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, MTreePolicyTest,
    ::testing::Values(SplitPolicy::MinOverlap(),
                      SplitPolicy::MaxDistanceSplit(),
                      SplitPolicy::BalancedSplit(), SplitPolicy::RandomSplit()),
    [](const ::testing::TestParamInfo<SplitPolicy>& param_info) -> std::string {
      switch (param_info.index) {
        case 0:
          return "MinOverlap";
        case 1:
          return "MaxDistance";
        case 2:
          return "Balanced";
        default:
          return "Random";
      }
    });

TEST(MTreeQueryTest, RangeQueryMatchesBruteForceManhattan) {
  ManhattanMetric metric;
  Dataset d = MakeUniformDataset(300, 2, 19);
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  std::vector<Neighbor> found;
  for (double radius : {0.05, 0.15, 0.4}) {
    found.clear();
    tree.RangeQuery(d.point(5), radius, QueryFilter::kAll, false, &found);
    EXPECT_EQ(SortedIds(found),
              BruteForceRange(d, metric, d.point(5), radius));
  }
}

TEST(MTreeQueryTest, RangeQueryHammingCategorical) {
  HammingMetric metric;
  Dataset d;
  Random rng(3);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(d.Add(Point{static_cast<double>(rng.UniformInt(4)),
                            static_cast<double>(rng.UniformInt(4)),
                            static_cast<double>(rng.UniformInt(4)),
                            static_cast<double>(rng.UniformInt(4))})
                    .ok());
  }
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  EXPECT_TRUE(tree.Validate().ok());
  std::vector<Neighbor> found;
  for (double radius : {1.0, 2.0, 3.0}) {
    found.clear();
    tree.RangeQueryAround(42, radius, QueryFilter::kAll, false, &found);
    EXPECT_EQ(SortedIds(found),
              BruteForceRange(d, metric, d.point(42), radius, 42));
  }
}

TEST(MTreeQueryTest, ReportedDistancesAreCorrect) {
  EuclideanMetric metric;
  Dataset d = MakeUniformDataset(200, 2, 23);
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  std::vector<Neighbor> found;
  tree.RangeQueryAround(7, 0.3, QueryFilter::kAll, false, &found);
  for (const Neighbor& nb : found) {
    EXPECT_NEAR(nb.dist, metric.Distance(d.point(7), d.point(nb.id)), 1e-12);
  }
}

TEST(MTreeQueryTest, WhiteFilterReturnsOnlyWhites) {
  EuclideanMetric metric;
  Dataset d = MakeUniformDataset(300, 2, 29);
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  // Grey out every even object.
  for (ObjectId i = 0; i < d.size(); i += 2) tree.SetColor(i, Color::kGrey);
  std::vector<Neighbor> found;
  tree.RangeQueryAround(1, 0.4, QueryFilter::kWhiteOnly, false, &found);
  std::vector<ObjectId> expected;
  for (ObjectId i :
       BruteForceRange(d, metric, d.point(1), 0.4, 1)) {
    if (i % 2 == 1) expected.push_back(i);
  }
  EXPECT_EQ(SortedIds(found), expected);
}

TEST(MTreeQueryTest, PrunedWhiteQueryEqualsUnprunedWhiteQuery) {
  EuclideanMetric metric;
  Dataset d = MakeClusteredDataset(500, 2, 31);
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  Random rng(8);
  for (ObjectId i = 0; i < d.size(); ++i) {
    if (rng.Uniform01() < 0.7) tree.SetColor(i, Color::kGrey);
  }
  std::vector<Neighbor> pruned, unpruned;
  for (ObjectId center : {3u, 99u, 400u}) {
    pruned.clear();
    unpruned.clear();
    tree.RangeQueryAround(center, 0.15, QueryFilter::kWhiteOnly, true,
                          &pruned);
    tree.RangeQueryAround(center, 0.15, QueryFilter::kWhiteOnly, false,
                          &unpruned);
    EXPECT_EQ(SortedIds(pruned), SortedIds(unpruned));
  }
}

TEST(MTreeQueryTest, PruningReducesAccessesWhenMostlyGrey) {
  EuclideanMetric metric;
  Dataset d = MakeClusteredDataset(2000, 2, 37);
  MTreeOptions options;
  options.node_capacity = 10;
  MTree tree(d, metric, options);
  ASSERT_TRUE(tree.Build().ok());
  for (ObjectId i = 0; i < d.size(); ++i) {
    if (i % 100 != 0) tree.SetColor(i, Color::kGrey);
  }
  tree.ResetStats();
  std::vector<Neighbor> found;
  tree.RangeQueryAround(0, 0.3, QueryFilter::kWhiteOnly, false, &found);
  uint64_t unpruned_cost = tree.stats().node_accesses;
  tree.ResetStats();
  found.clear();
  tree.RangeQueryAround(0, 0.3, QueryFilter::kWhiteOnly, true, &found);
  uint64_t pruned_cost = tree.stats().node_accesses;
  EXPECT_LT(pruned_cost, unpruned_cost);
}

TEST(MTreeQueryTest, BottomUpWithoutGreyStopIsExact) {
  EuclideanMetric metric;
  Dataset d = MakeClusteredDataset(600, 2, 41);
  MTreeOptions options;
  options.node_capacity = 10;
  MTree tree(d, metric, options);
  ASSERT_TRUE(tree.Build().ok());
  std::vector<Neighbor> found;
  for (ObjectId center : {10u, 200u, 599u}) {
    for (double radius : {0.02, 0.1, 0.4}) {
      found.clear();
      tree.RangeQueryBottomUp(center, radius, QueryFilter::kAll, false, false,
                              &found);
      EXPECT_EQ(SortedIds(found),
                BruteForceRange(d, metric, d.point(center), radius, center));
    }
  }
}

TEST(MTreeQueryTest, BottomUpGreyStopReturnsSubsetOfWhites) {
  EuclideanMetric metric;
  Dataset d = MakeClusteredDataset(600, 2, 41);
  MTreeOptions options;
  options.node_capacity = 10;
  MTree tree(d, metric, options);
  ASSERT_TRUE(tree.Build().ok());
  // Grey out most objects so some subtrees go fully grey.
  for (ObjectId i = 0; i < d.size(); ++i) {
    if (i % 7 != 0) tree.SetColor(i, Color::kGrey);
  }
  std::vector<Neighbor> fast, exact;
  for (ObjectId center : {3u, 111u, 598u}) {
    fast.clear();
    exact.clear();
    tree.RangeQueryBottomUp(center, 0.15, QueryFilter::kWhiteOnly, true, true,
                            &fast);
    tree.RangeQueryAround(center, 0.15, QueryFilter::kWhiteOnly, true, &exact);
    auto fast_ids = SortedIds(fast);
    auto exact_ids = SortedIds(exact);
    // Grey-stopping may miss whites but never invents results.
    for (ObjectId id : fast_ids) {
      EXPECT_TRUE(
          std::binary_search(exact_ids.begin(), exact_ids.end(), id));
    }
  }
}

TEST(MTreeColorTest, ResetColorsMakesEverythingWhite) {
  EuclideanMetric metric;
  Dataset d = MakeUniformDataset(100, 2, 43);
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  tree.SetColor(5, Color::kBlack);
  tree.SetColor(6, Color::kGrey);
  tree.ResetColors();
  EXPECT_EQ(tree.white_count(), d.size());
  EXPECT_EQ(tree.color(5), Color::kWhite);
  EXPECT_TRUE(tree.Validate().ok());
}

TEST(MTreeColorTest, WhiteCountTracksTransitions) {
  EuclideanMetric metric;
  Dataset d = MakeUniformDataset(50, 2, 47);
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  EXPECT_EQ(tree.white_count(), 50u);
  tree.SetColor(0, Color::kGrey);
  tree.SetColor(1, Color::kBlack);
  EXPECT_EQ(tree.white_count(), 48u);
  tree.SetColor(0, Color::kWhite);
  EXPECT_EQ(tree.white_count(), 49u);
  tree.SetColor(1, Color::kRed);  // black -> red: both non-white
  EXPECT_EQ(tree.white_count(), 49u);
  EXPECT_TRUE(tree.Validate().ok());
}

TEST(MTreeColorTest, ObjectsWithColor) {
  EuclideanMetric metric;
  Dataset d = MakeUniformDataset(10, 2, 53);
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  tree.SetColor(3, Color::kBlack);
  tree.SetColor(7, Color::kBlack);
  tree.SetColor(5, Color::kGrey);
  EXPECT_EQ(tree.ObjectsWithColor(Color::kBlack),
            (std::vector<ObjectId>{3, 7}));
  EXPECT_EQ(tree.ObjectsWithColor(Color::kGrey), (std::vector<ObjectId>{5}));
  EXPECT_EQ(tree.ObjectsWithColor(Color::kWhite).size(), 7u);
}

TEST(MTreeColorTest, ScanLeavesSkipsGreyLeavesWithoutAccess) {
  EuclideanMetric metric;
  Dataset d = MakeUniformDataset(400, 2, 59);
  MTreeOptions options;
  options.node_capacity = 8;
  MTree tree(d, metric, options);
  ASSERT_TRUE(tree.Build().ok());
  for (ObjectId i = 0; i < d.size(); ++i) tree.SetColor(i, Color::kGrey);
  tree.ResetStats();
  size_t visited = 0;
  tree.ScanLeaves(true, [&](ObjectId) { ++visited; });
  EXPECT_EQ(visited, 0u);
  EXPECT_EQ(tree.stats().node_accesses, 0u);
  tree.ResetStats();
  tree.ScanLeaves(false, [&](ObjectId) { ++visited; });
  EXPECT_EQ(visited, d.size());
  EXPECT_EQ(tree.stats().node_accesses, tree.num_leaves());
}

TEST(MTreeZoomSupportTest, ObserveBlackNeighborKeepsMinimum) {
  EuclideanMetric metric;
  Dataset d = MakeUniformDataset(10, 2, 61);
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  EXPECT_TRUE(std::isinf(tree.closest_black_dist(0)));
  tree.ObserveBlackNeighbor(0, 0.5);
  tree.ObserveBlackNeighbor(0, 0.8);  // larger: ignored
  EXPECT_DOUBLE_EQ(tree.closest_black_dist(0), 0.5);
  tree.ObserveBlackNeighbor(0, 0.2);
  EXPECT_DOUBLE_EQ(tree.closest_black_dist(0), 0.2);
  tree.ClearClosestBlackDistance(0);
  EXPECT_TRUE(std::isinf(tree.closest_black_dist(0)));
}

TEST(MTreeZoomSupportTest, RecomputeClosestBlackDistancesIsExact) {
  EuclideanMetric metric;
  Dataset d = MakeClusteredDataset(300, 2, 67);
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  std::vector<ObjectId> blacks = {10, 50, 100, 200};
  for (ObjectId b : blacks) tree.SetColor(b, Color::kBlack);
  const double radius = 0.25;
  tree.RecomputeClosestBlackDistances(radius);
  for (ObjectId i = 0; i < d.size(); ++i) {
    double expected = std::numeric_limits<double>::infinity();
    for (ObjectId b : blacks) {
      if (b == i) continue;
      double dist = metric.Distance(d.point(i), d.point(b));
      if (dist <= radius) expected = std::min(expected, dist);
    }
    EXPECT_DOUBLE_EQ(tree.closest_black_dist(i), expected) << "object " << i;
  }
}

TEST(MTreeStatsTest, FatFactorInUnitRangeAndPolicySensitive) {
  EuclideanMetric metric;
  Dataset d = MakeUniformDataset(1500, 2, 71);
  MTreeOptions low_overlap;
  low_overlap.node_capacity = 25;
  low_overlap.split_policy = SplitPolicy::MinOverlap();
  MTree tree_low(d, metric, low_overlap);
  ASSERT_TRUE(tree_low.Build().ok());

  MTreeOptions high_overlap = low_overlap;
  high_overlap.split_policy = SplitPolicy::RandomSplit();
  MTree tree_high(d, metric, high_overlap);
  ASSERT_TRUE(tree_high.Build().ok());

  double f_low = tree_low.FatFactor();
  double f_high = tree_high.FatFactor();
  EXPECT_GE(f_low, 0.0);
  EXPECT_LE(f_low, 1.0);
  EXPECT_GE(f_high, 0.0);
  EXPECT_LE(f_high, 1.0);
  // The paper (Figure 10): MinOverlap produces the lowest fat-factor,
  // random pivots the highest.
  EXPECT_LT(f_low, f_high);
}

TEST(MTreeStatsTest, CapacityAffectsNodeCount) {
  EuclideanMetric metric;
  Dataset d = MakeUniformDataset(1000, 2, 73);
  MTreeOptions small_nodes;
  small_nodes.node_capacity = 25;
  MTreeOptions large_nodes;
  large_nodes.node_capacity = 100;
  MTree tree_small(d, metric, small_nodes);
  MTree tree_large(d, metric, large_nodes);
  ASSERT_TRUE(tree_small.Build().ok());
  ASSERT_TRUE(tree_large.Build().ok());
  EXPECT_GT(tree_small.num_nodes(), tree_large.num_nodes());
}

TEST(MTreeCountsTest, BuildTimeNeighborCountsMatchPostBuild) {
  EuclideanMetric metric;
  const double radius = 0.1;
  Dataset d = MakeClusteredDataset(500, 2, 79);

  MTree tree_a(d, metric);
  std::vector<uint32_t> counts_build;
  ASSERT_TRUE(tree_a.BuildWithNeighborCounts(radius, &counts_build).ok());

  MTree tree_b(d, metric);
  ASSERT_TRUE(tree_b.Build().ok());
  std::vector<uint32_t> counts_post;
  tree_b.ComputeNeighborCountsPostBuild(radius, &counts_post);

  ASSERT_EQ(counts_build.size(), counts_post.size());
  for (size_t i = 0; i < counts_build.size(); ++i) {
    EXPECT_EQ(counts_build[i], counts_post[i]) << "object " << i;
  }
  // And both must equal the true neighborhood size.
  for (ObjectId i = 0; i < d.size(); ++i) {
    EXPECT_EQ(counts_post[i],
              BruteForceRange(d, metric, d.point(i), radius, i).size());
  }
}

TEST(MTreeCountsTest, BuildTimeCountsCheaperThanPostBuild) {
  EuclideanMetric metric;
  const double radius = 0.05;
  Dataset d = MakeClusteredDataset(2000, 2, 83);

  MTree tree_a(d, metric);
  std::vector<uint32_t> counts;
  ASSERT_TRUE(tree_a.BuildWithNeighborCounts(radius, &counts).ok());
  uint64_t cost_build_time = tree_a.stats().node_accesses;

  MTree tree_b(d, metric);
  ASSERT_TRUE(tree_b.Build().ok());
  tree_b.ComputeNeighborCountsPostBuild(radius, &counts);
  uint64_t cost_post = tree_b.stats().node_accesses;

  EXPECT_LT(cost_build_time, cost_post);
}

// ---------------------------------------------------------------------------
// Query contract pin: for every metric family, both builds and every query
// entry point, the reported ids in their reported order, the distance bits
// and the AccessStats totals. The constants were recorded against the
// original per-call search loop; any rewrite of the search must reproduce
// them exactly (the paper's node-access counts are the cost model).
// ---------------------------------------------------------------------------

enum class PinQuery {
  kAroundAll,         // RangeQueryAround, kAll, unpruned
  kPointAll,          // RangeQuery(Point), kAll, unpruned
  kAroundWhite,       // RangeQueryAround, kWhiteOnly, pruned, after greying
  kPointWhite,        // RangeQuery(Point), kWhiteOnly, pruned, after greying
  kBottomUp,          // RangeQueryBottomUp, kWhiteOnly, pruned, full climb
  kBottomUpGreyStop,  // RangeQueryBottomUp, kWhiteOnly, pruned, stop_at_grey
  kLeafMates,         // LeafMatesWithin
  kCountsSerial,      // ComputeNeighborCountsPostBuild, 1 pool thread
  kCountsPooled,      // ComputeNeighborCountsPostBuild, 4 pool threads
  kBuildCounts,       // BuildWithNeighborCounts (stats include the build)
};

const char* PinQueryName(PinQuery q) {
  switch (q) {
    case PinQuery::kAroundAll:
      return "kAroundAll";
    case PinQuery::kPointAll:
      return "kPointAll";
    case PinQuery::kAroundWhite:
      return "kAroundWhite";
    case PinQuery::kPointWhite:
      return "kPointWhite";
    case PinQuery::kBottomUp:
      return "kBottomUp";
    case PinQuery::kBottomUpGreyStop:
      return "kBottomUpGreyStop";
    case PinQuery::kLeafMates:
      return "kLeafMates";
    case PinQuery::kCountsSerial:
      return "kCountsSerial";
    case PinQuery::kCountsPooled:
      return "kCountsPooled";
    case PinQuery::kBuildCounts:
      return "kBuildCounts";
  }
  return "?";
}

struct PinRow {
  MetricKind metric;
  BuildStrategy build;
  PinQuery query;
  uint64_t ids_hash;  // FNV-1a over every query's size and ids, in order
  AccessStats stats;
};

// FNV-1a, 64-bit, fed one 32-bit word at a time.
void HashWord(uint64_t* h, uint64_t word) {
  for (int byte = 0; byte < 4; ++byte) {
    *h ^= (word >> (8 * byte)) & 0xff;
    *h *= 0x100000001b3ULL;
  }
}

struct PinResult {
  uint64_t ids_hash = 0xcbf29ce484222325ULL;
  AccessStats stats;
};

// The tree a pin row runs on. Hamming rows use the cameras dataset (dim 7);
// the others a uniform dataset of `dim` coordinates, larger at the paper's
// default capacity so the tree still has three levels.
struct PinShape {
  size_t dim;
  size_t capacity;
};

// The original table's shape: dim 3 (cameras: 7) at capacity 10, a few
// levels, so every path is exercised.
constexpr PinShape kSmallShape = {3, 10};

double PinRadius(MetricKind kind, size_t dim) {
  switch (kind) {
    case MetricKind::kEuclidean:
      return dim == 2 ? 0.1 : dim == 8 ? 0.6 : 0.2;
    case MetricKind::kManhattan:
      return dim == 2 ? 0.14 : dim == 8 ? 1.4 : 0.3;
    case MetricKind::kChebyshev:
      return dim == 2 ? 0.07 : dim == 8 ? 0.4 : 0.15;
    case MetricKind::kHamming:
      return 3.0;
  }
  return 0.2;
}

PinResult RunPin(MetricKind kind, BuildStrategy build, PinQuery query,
                 PinShape shape = kSmallShape) {
  const bool hamming = kind == MetricKind::kHamming;
  const size_t n = shape.capacity <= 10 ? 600 : 2500;
  const Dataset d =
      hamming ? MakeCamerasDataset() : MakeUniformDataset(n, shape.dim, 5);
  const double radius = PinRadius(kind, shape.dim);
  std::unique_ptr<DistanceMetric> metric = MakeMetric(kind);
  MTreeOptions options;
  options.node_capacity = shape.capacity;
  options.build.strategy = build;
  MTree tree(d, *metric, options);
  PinResult result;

  if (query == PinQuery::kBuildCounts) {
    std::vector<uint32_t> counts;
    EXPECT_TRUE(tree.BuildWithNeighborCounts(radius, &counts).ok());
    for (uint32_t c : counts) HashWord(&result.ids_hash, c);
    result.stats = tree.stats();
    return result;
  }
  EXPECT_TRUE(tree.Build().ok());
  const bool whites = query == PinQuery::kAroundWhite ||
                      query == PinQuery::kPointWhite ||
                      query == PinQuery::kBottomUp ||
                      query == PinQuery::kBottomUpGreyStop;
  if (whites) {
    // The first half of the leaf chain goes fully grey, so grey subtrees
    // exist for pruning and for the stop_at_grey climb; every third object
    // of the second half stays white.
    const std::vector<ObjectId> order = tree.LeafOrder();
    for (size_t i = 0; i < order.size(); ++i) {
      if (i < order.size() / 2 || i % 3 != 0) {
        tree.SetColor(order[i], Color::kGrey);
      }
    }
  }
  tree.ResetStats();

  if (query == PinQuery::kCountsSerial || query == PinQuery::kCountsPooled) {
    ThreadPool pool(query == PinQuery::kCountsSerial ? 1 : 4);
    std::vector<uint32_t> counts;
    tree.ComputeNeighborCountsPostBuild(radius, &counts, &pool);
    for (uint32_t c : counts) HashWord(&result.ids_hash, c);
    result.stats = tree.stats();
    return result;
  }

  std::vector<Neighbor> found;
  for (ObjectId center = 0; center < d.size(); center += 7) {
    found.clear();
    switch (query) {
      case PinQuery::kAroundAll:
        tree.RangeQueryAround(center, radius, QueryFilter::kAll, false,
                              &found);
        break;
      case PinQuery::kPointAll:
        tree.RangeQuery(d.point(center), radius, QueryFilter::kAll, false,
                        &found);
        break;
      case PinQuery::kAroundWhite:
        tree.RangeQueryAround(center, radius, QueryFilter::kWhiteOnly, true,
                              &found);
        break;
      case PinQuery::kPointWhite:
        tree.RangeQuery(d.point(center), radius, QueryFilter::kWhiteOnly,
                        true, &found);
        break;
      case PinQuery::kBottomUp:
        tree.RangeQueryBottomUp(center, radius, QueryFilter::kWhiteOnly, true,
                                /*stop_at_grey=*/false, &found);
        break;
      case PinQuery::kBottomUpGreyStop:
        tree.RangeQueryBottomUp(center, radius, QueryFilter::kWhiteOnly, true,
                                /*stop_at_grey=*/true, &found);
        break;
      case PinQuery::kLeafMates:
        tree.LeafMatesWithin(center, radius, &found);
        break;
      default:
        break;
    }
    HashWord(&result.ids_hash, found.size());
    for (const Neighbor& nb : found) {
      HashWord(&result.ids_hash, nb.id);
      // Bit-equal, not near: the tree must compute exactly the metric's
      // value for the pair.
      EXPECT_EQ(nb.dist, metric->Distance(d.point(center), d.point(nb.id)))
          << PinQueryName(query) << " center " << center << " id " << nb.id;
      EXPECT_LE(nb.dist, radius);
    }
  }
  result.stats = tree.stats();
  return result;
}

std::string PinRowText(MetricKind kind, BuildStrategy build, PinQuery query,
                       const PinResult& r, const char* shape = "") {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{%sMetricKind::k%s, %s, PinQuery::%s, 0x%016llxULL, "
                "{%llu, %llu, %llu}},",
                shape,
                kind == MetricKind::kEuclidean   ? "Euclidean"
                : kind == MetricKind::kManhattan ? "Manhattan"
                : kind == MetricKind::kChebyshev ? "Chebyshev"
                                                 : "Hamming",
                build == BuildStrategy::kBulkLoad ? "kBulk" : "kInsert",
                PinQueryName(query),
                static_cast<unsigned long long>(r.ids_hash),
                static_cast<unsigned long long>(r.stats.node_accesses),
                static_cast<unsigned long long>(r.stats.range_queries),
                static_cast<unsigned long long>(r.stats.distance_computations));
  return buf;
}

constexpr BuildStrategy kInsert = BuildStrategy::kInsertAtATime;
constexpr BuildStrategy kBulk = BuildStrategy::kBulkLoad;

const PinRow kPinnedQueries[] = {
    {MetricKind::kEuclidean, kInsert, PinQuery::kAroundAll, 0x2e47e23d64aa0db0ULL, {2792, 86, 12047}},
    {MetricKind::kEuclidean, kInsert, PinQuery::kPointAll, 0x2c66da72311d0132ULL, {2792, 86, 12133}},
    {MetricKind::kEuclidean, kInsert, PinQuery::kAroundWhite, 0x3f1ef39bd689f8a8ULL, {1817, 86, 4364}},
    {MetricKind::kEuclidean, kInsert, PinQuery::kPointWhite, 0x19efa7e68447715eULL, {1817, 86, 4379}},
    {MetricKind::kEuclidean, kInsert, PinQuery::kBottomUp, 0x8c836c6af8fd13d8ULL, {1878, 86, 4274}},
    {MetricKind::kEuclidean, kInsert, PinQuery::kBottomUpGreyStop, 0x1fa975b51fa9678fULL, {1391, 86, 3163}},
    {MetricKind::kEuclidean, kInsert, PinQuery::kLeafMates, 0x173577872a7e9a49ULL, {86, 0, 587}},
    {MetricKind::kEuclidean, kInsert, PinQuery::kCountsSerial, 0x6ec140a98f009f5fULL, {20110, 600, 87859}},
    {MetricKind::kEuclidean, kInsert, PinQuery::kCountsPooled, 0x6ec140a98f009f5fULL, {20110, 600, 87859}},
    {MetricKind::kEuclidean, kInsert, PinQuery::kBuildCounts, 0x6ec140a98f009f5fULL, {13740, 599, 61329}},
    {MetricKind::kEuclidean, kBulk, PinQuery::kAroundAll, 0x820bb782674459a0ULL, {2769, 86, 10640}},
    {MetricKind::kEuclidean, kBulk, PinQuery::kPointAll, 0x4eed668e8b1608eeULL, {2769, 86, 10726}},
    {MetricKind::kEuclidean, kBulk, PinQuery::kAroundWhite, 0xaca93ab28b87a004ULL, {1756, 86, 3745}},
    {MetricKind::kEuclidean, kBulk, PinQuery::kPointWhite, 0x282dbeaa023af3e7ULL, {1756, 86, 3753}},
    {MetricKind::kEuclidean, kBulk, PinQuery::kBottomUp, 0x3131b72d9002a79cULL, {1811, 86, 3648}},
    {MetricKind::kEuclidean, kBulk, PinQuery::kBottomUpGreyStop, 0x7d1ec933b2b6850aULL, {1468, 86, 2963}},
    {MetricKind::kEuclidean, kBulk, PinQuery::kLeafMates, 0x3d350bb82edfbc33ULL, {86, 0, 564}},
    {MetricKind::kEuclidean, kBulk, PinQuery::kCountsSerial, 0x6ec140a98f009f5fULL, {19943, 600, 77445}},
    {MetricKind::kEuclidean, kBulk, PinQuery::kCountsPooled, 0x6ec140a98f009f5fULL, {19943, 600, 77445}},
    {MetricKind::kEuclidean, kBulk, PinQuery::kBuildCounts, 0x6ec140a98f009f5fULL, {20057, 600, 88990}},
    {MetricKind::kManhattan, kInsert, PinQuery::kAroundAll, 0x4957e9e8c8303d67ULL, {3129, 86, 12761}},
    {MetricKind::kManhattan, kInsert, PinQuery::kPointAll, 0xeadbe38a9ee3c221ULL, {3129, 86, 12847}},
    {MetricKind::kManhattan, kInsert, PinQuery::kAroundWhite, 0xdbd9934c16ce4a9aULL, {1894, 86, 4319}},
    {MetricKind::kManhattan, kInsert, PinQuery::kPointWhite, 0x7cb2ce6be84b7251ULL, {1894, 86, 4333}},
    {MetricKind::kManhattan, kInsert, PinQuery::kBottomUp, 0xecbd9f9a7ddbdd22ULL, {1970, 86, 4240}},
    {MetricKind::kManhattan, kInsert, PinQuery::kBottomUpGreyStop, 0x9eb6a2faa55b46a7ULL, {1208, 86, 2644}},
    {MetricKind::kManhattan, kInsert, PinQuery::kLeafMates, 0x508c170722e1f97eULL, {86, 0, 526}},
    {MetricKind::kManhattan, kInsert, PinQuery::kCountsSerial, 0x859df20a6243c79bULL, {22844, 600, 93196}},
    {MetricKind::kManhattan, kInsert, PinQuery::kCountsPooled, 0x859df20a6243c79bULL, {22844, 600, 93196}},
    {MetricKind::kManhattan, kInsert, PinQuery::kBuildCounts, 0x859df20a6243c79bULL, {14559, 599, 64112}},
    {MetricKind::kManhattan, kBulk, PinQuery::kAroundAll, 0x9728ea52ecd5d9abULL, {2766, 86, 11531}},
    {MetricKind::kManhattan, kBulk, PinQuery::kPointAll, 0xeb00a564613f76f9ULL, {2766, 86, 11617}},
    {MetricKind::kManhattan, kBulk, PinQuery::kAroundWhite, 0xc395d0f30fc22547ULL, {1725, 86, 4155}},
    {MetricKind::kManhattan, kBulk, PinQuery::kPointWhite, 0xc2c5d38327b81a6bULL, {1725, 86, 4171}},
    {MetricKind::kManhattan, kBulk, PinQuery::kBottomUp, 0xa57986258824ce57ULL, {1776, 86, 4042}},
    {MetricKind::kManhattan, kBulk, PinQuery::kBottomUpGreyStop, 0xb0edea793d48fb5dULL, {1544, 86, 3521}},
    {MetricKind::kManhattan, kBulk, PinQuery::kLeafMates, 0x3113d944b918a2d2ULL, {86, 0, 533}},
    {MetricKind::kManhattan, kBulk, PinQuery::kCountsSerial, 0x859df20a6243c79bULL, {20094, 600, 84366}},
    {MetricKind::kManhattan, kBulk, PinQuery::kCountsPooled, 0x859df20a6243c79bULL, {20094, 600, 84366}},
    {MetricKind::kManhattan, kBulk, PinQuery::kBuildCounts, 0x859df20a6243c79bULL, {20209, 600, 95961}},
    {MetricKind::kChebyshev, kInsert, PinQuery::kAroundAll, 0xc22ad637395c8784ULL, {3103, 86, 12067}},
    {MetricKind::kChebyshev, kInsert, PinQuery::kPointAll, 0x8676a991613d696cULL, {3103, 86, 12153}},
    {MetricKind::kChebyshev, kInsert, PinQuery::kAroundWhite, 0x62ec3a982f66e9adULL, {2015, 86, 4414}},
    {MetricKind::kChebyshev, kInsert, PinQuery::kPointWhite, 0x86670c5b143c5ce4ULL, {2015, 86, 4430}},
    {MetricKind::kChebyshev, kInsert, PinQuery::kBottomUp, 0x6066fea3a032b231ULL, {2091, 86, 4338}},
    {MetricKind::kChebyshev, kInsert, PinQuery::kBottomUpGreyStop, 0x2b1bd1e6e1aaaf30ULL, {1445, 86, 3020}},
    {MetricKind::kChebyshev, kInsert, PinQuery::kLeafMates, 0x30fd5e3de024add5ULL, {86, 0, 549}},
    {MetricKind::kChebyshev, kInsert, PinQuery::kCountsSerial, 0xfe764ee83b53bc69ULL, {22356, 600, 87922}},
    {MetricKind::kChebyshev, kInsert, PinQuery::kCountsPooled, 0xfe764ee83b53bc69ULL, {22356, 600, 87922}},
    {MetricKind::kChebyshev, kInsert, PinQuery::kBuildCounts, 0xfe764ee83b53bc69ULL, {14629, 599, 62081}},
    {MetricKind::kChebyshev, kBulk, PinQuery::kAroundAll, 0x9e578550bac4e354ULL, {2629, 86, 10589}},
    {MetricKind::kChebyshev, kBulk, PinQuery::kPointAll, 0x32b5e8f8d814a11cULL, {2629, 86, 10675}},
    {MetricKind::kChebyshev, kBulk, PinQuery::kAroundWhite, 0x9d60697119a7d311ULL, {1603, 86, 3848}},
    {MetricKind::kChebyshev, kBulk, PinQuery::kPointWhite, 0x7743fc67ebef3fafULL, {1603, 86, 3861}},
    {MetricKind::kChebyshev, kBulk, PinQuery::kBottomUp, 0xab8d8bac6d590715ULL, {1660, 86, 3763}},
    {MetricKind::kChebyshev, kBulk, PinQuery::kBottomUpGreyStop, 0xa534d387c665defcULL, {1325, 86, 3018}},
    {MetricKind::kChebyshev, kBulk, PinQuery::kLeafMates, 0x1a625f99df35842cULL, {86, 0, 538}},
    {MetricKind::kChebyshev, kBulk, PinQuery::kCountsSerial, 0xfe764ee83b53bc69ULL, {18926, 600, 76752}},
    {MetricKind::kChebyshev, kBulk, PinQuery::kCountsPooled, 0xfe764ee83b53bc69ULL, {18926, 600, 76752}},
    {MetricKind::kChebyshev, kBulk, PinQuery::kBuildCounts, 0xfe764ee83b53bc69ULL, {19043, 600, 88387}},
    {MetricKind::kHamming, kInsert, PinQuery::kAroundAll, 0xb994b37b55af006eULL, {8588, 83, 40382}},
    {MetricKind::kHamming, kInsert, PinQuery::kPointAll, 0xa21fc22f5ffa280fULL, {8588, 83, 40465}},
    {MetricKind::kHamming, kInsert, PinQuery::kAroundWhite, 0xa46ccb4be10ff9bfULL, {4675, 83, 10622}},
    {MetricKind::kHamming, kInsert, PinQuery::kPointWhite, 0x1d0c504231e6ff2bULL, {4675, 83, 10637}},
    {MetricKind::kHamming, kInsert, PinQuery::kBottomUp, 0x0a6e5cbcfedcd7c3ULL, {4746, 83, 10527}},
    {MetricKind::kHamming, kInsert, PinQuery::kBottomUpGreyStop, 0x325556496a8253a8ULL, {2871, 83, 6386}},
    {MetricKind::kHamming, kInsert, PinQuery::kLeafMates, 0x9e5fb3bf44f53d8fULL, {83, 0, 495}},
    {MetricKind::kHamming, kInsert, PinQuery::kCountsSerial, 0x52155bc29cfb42e3ULL, {59972, 579, 283234}},
    {MetricKind::kHamming, kInsert, PinQuery::kCountsPooled, 0x52155bc29cfb42e3ULL, {59972, 579, 283234}},
    {MetricKind::kHamming, kInsert, PinQuery::kBuildCounts, 0x52155bc29cfb42e3ULL, {32629, 578, 158283}},
    {MetricKind::kHamming, kBulk, PinQuery::kAroundAll, 0x6dba0fdcf34569ceULL, {8318, 83, 36035}},
    {MetricKind::kHamming, kBulk, PinQuery::kPointAll, 0x2c3431255718e417ULL, {8318, 83, 36118}},
    {MetricKind::kHamming, kBulk, PinQuery::kAroundWhite, 0x474225bb993e3756ULL, {4811, 83, 9443}},
    {MetricKind::kHamming, kBulk, PinQuery::kPointWhite, 0xf5b63a901d9044e2ULL, {4811, 83, 9454}},
    {MetricKind::kHamming, kBulk, PinQuery::kBottomUp, 0x328dddba64e07ddeULL, {4861, 83, 9327}},
    {MetricKind::kHamming, kBulk, PinQuery::kBottomUpGreyStop, 0x2c472c1d558e2637ULL, {4569, 83, 8787}},
    {MetricKind::kHamming, kBulk, PinQuery::kLeafMates, 0xe665c4b49602ef99ULL, {83, 0, 466}},
    {MetricKind::kHamming, kBulk, PinQuery::kCountsSerial, 0x52155bc29cfb42e3ULL, {58109, 579, 252181}},
    {MetricKind::kHamming, kBulk, PinQuery::kCountsPooled, 0x52155bc29cfb42e3ULL, {58109, 579, 252181}},
    {MetricKind::kHamming, kBulk, PinQuery::kBuildCounts, 0x52155bc29cfb42e3ULL, {58233, 579, 263734}},
};

// The same pins on the other tree shapes: dims 2 and 8 (the search loop's
// compile-time dimensions), the paper's default capacity 50 next to 10, and
// dims 3 and 7 at capacity 50.
struct ShapePinRow {
  PinShape shape;
  PinRow row;
};

std::string ShapePrefix(PinShape shape) {
  return "{" + std::to_string(shape.dim) + ", " +
         std::to_string(shape.capacity) + "}, ";
}

const ShapePinRow kPinnedShapes[] = {
    {{2, 10}, MetricKind::kEuclidean, kInsert, PinQuery::kAroundAll, 0x1e7c66ef6067809eULL, {2020, 86, 7618}},
    {{2, 10}, MetricKind::kEuclidean, kInsert, PinQuery::kPointAll, 0x934ba6a9a29b22e0ULL, {2020, 86, 7704}},
    {{2, 10}, MetricKind::kEuclidean, kInsert, PinQuery::kAroundWhite, 0x1af448fc6586948dULL, {1327, 86, 2886}},
    {{2, 10}, MetricKind::kEuclidean, kInsert, PinQuery::kPointWhite, 0x3fc8d0b5ba0098dbULL, {1327, 86, 2896}},
    {{2, 10}, MetricKind::kEuclidean, kInsert, PinQuery::kBottomUp, 0x81f1e1ec4ea70e21ULL, {1389, 86, 2841}},
    {{2, 10}, MetricKind::kEuclidean, kInsert, PinQuery::kBottomUpGreyStop, 0x3aaf22aaddfd7689ULL, {1223, 86, 2534}},
    {{2, 10}, MetricKind::kEuclidean, kInsert, PinQuery::kLeafMates, 0xfcd0220cc86f142eULL, {86, 0, 543}},
    {{2, 10}, MetricKind::kEuclidean, kInsert, PinQuery::kCountsSerial, 0x6ef65bf42a4ff333ULL, {14386, 600, 54345}},
    {{2, 10}, MetricKind::kEuclidean, kInsert, PinQuery::kCountsPooled, 0x6ef65bf42a4ff333ULL, {14386, 600, 54345}},
    {{2, 10}, MetricKind::kEuclidean, kInsert, PinQuery::kBuildCounts, 0x6ef65bf42a4ff333ULL, {10050, 599, 42135}},
    {{2, 10}, MetricKind::kEuclidean, kBulk, PinQuery::kAroundAll, 0xfb965075a930f5aaULL, {1565, 86, 6034}},
    {{2, 10}, MetricKind::kEuclidean, kBulk, PinQuery::kPointAll, 0xf0ce2a17b791b580ULL, {1565, 86, 6120}},
    {{2, 10}, MetricKind::kEuclidean, kBulk, PinQuery::kAroundWhite, 0x5d73be78bee2248eULL, {1088, 86, 2472}},
    {{2, 10}, MetricKind::kEuclidean, kBulk, PinQuery::kPointWhite, 0xb9f734ea43837402ULL, {1088, 86, 2492}},
    {{2, 10}, MetricKind::kEuclidean, kBulk, PinQuery::kBottomUp, 0x7333ac637a0c931aULL, {1148, 86, 2460}},
    {{2, 10}, MetricKind::kEuclidean, kBulk, PinQuery::kBottomUpGreyStop, 0x54adffeae07f4fddULL, {962, 86, 2069}},
    {{2, 10}, MetricKind::kEuclidean, kBulk, PinQuery::kLeafMates, 0x92e1e18a2eb67070ULL, {86, 0, 540}},
    {{2, 10}, MetricKind::kEuclidean, kBulk, PinQuery::kCountsSerial, 0x6ef65bf42a4ff333ULL, {11148, 600, 43134}},
    {{2, 10}, MetricKind::kEuclidean, kBulk, PinQuery::kCountsPooled, 0x6ef65bf42a4ff333ULL, {11148, 600, 43134}},
    {{2, 10}, MetricKind::kEuclidean, kBulk, PinQuery::kBuildCounts, 0x6ef65bf42a4ff333ULL, {11264, 600, 54772}},
    {{2, 10}, MetricKind::kManhattan, kInsert, PinQuery::kAroundAll, 0xebdf7061bca198f7ULL, {1928, 86, 7971}},
    {{2, 10}, MetricKind::kManhattan, kInsert, PinQuery::kPointAll, 0x9aa761784955a827ULL, {1928, 86, 8057}},
    {{2, 10}, MetricKind::kManhattan, kInsert, PinQuery::kAroundWhite, 0x10c61c63022c257cULL, {1316, 86, 3094}},
    {{2, 10}, MetricKind::kManhattan, kInsert, PinQuery::kPointWhite, 0x919d48166cd4cecbULL, {1316, 86, 3107}},
    {{2, 10}, MetricKind::kManhattan, kInsert, PinQuery::kBottomUp, 0xdd2c425aebe0d680ULL, {1377, 86, 3075}},
    {{2, 10}, MetricKind::kManhattan, kInsert, PinQuery::kBottomUpGreyStop, 0xcb079fdc3c0afdb4ULL, {1179, 86, 2642}},
    {{2, 10}, MetricKind::kManhattan, kInsert, PinQuery::kLeafMates, 0xe97f981436f78650ULL, {86, 0, 506}},
    {{2, 10}, MetricKind::kManhattan, kInsert, PinQuery::kCountsSerial, 0x2b15729ad3e5a05dULL, {13489, 600, 56308}},
    {{2, 10}, MetricKind::kManhattan, kInsert, PinQuery::kCountsPooled, 0x2b15729ad3e5a05dULL, {13489, 600, 56308}},
    {{2, 10}, MetricKind::kManhattan, kInsert, PinQuery::kBuildCounts, 0x2b15729ad3e5a05dULL, {10086, 599, 43800}},
    {{2, 10}, MetricKind::kManhattan, kBulk, PinQuery::kAroundAll, 0xc9fb3ee329b68a3fULL, {1595, 86, 6977}},
    {{2, 10}, MetricKind::kManhattan, kBulk, PinQuery::kPointAll, 0x4b4c375b6f891277ULL, {1595, 86, 7063}},
    {{2, 10}, MetricKind::kManhattan, kBulk, PinQuery::kAroundWhite, 0xeaa063e8d46e4279ULL, {1038, 86, 2409}},
    {{2, 10}, MetricKind::kManhattan, kBulk, PinQuery::kPointWhite, 0x4489ccbd3a60e044ULL, {1038, 86, 2423}},
    {{2, 10}, MetricKind::kManhattan, kBulk, PinQuery::kBottomUp, 0xdc941d42a178ae15ULL, {1096, 86, 2407}},
    {{2, 10}, MetricKind::kManhattan, kBulk, PinQuery::kBottomUpGreyStop, 0x5b7dcd978cef14e1ULL, {936, 86, 2097}},
    {{2, 10}, MetricKind::kManhattan, kBulk, PinQuery::kLeafMates, 0x529ad0f20714e452ULL, {86, 0, 530}},
    {{2, 10}, MetricKind::kManhattan, kBulk, PinQuery::kCountsSerial, 0x2b15729ad3e5a05dULL, {11442, 600, 50188}},
    {{2, 10}, MetricKind::kManhattan, kBulk, PinQuery::kCountsPooled, 0x2b15729ad3e5a05dULL, {11442, 600, 50188}},
    {{2, 10}, MetricKind::kManhattan, kBulk, PinQuery::kBuildCounts, 0x2b15729ad3e5a05dULL, {11552, 600, 61655}},
    {{2, 50}, MetricKind::kEuclidean, kInsert, PinQuery::kAroundAll, 0x75503a7277d97594ULL, {6809, 358, 95326}},
    {{2, 50}, MetricKind::kEuclidean, kInsert, PinQuery::kPointAll, 0xdc71a42e91975ac5ULL, {6809, 358, 95684}},
    {{2, 50}, MetricKind::kEuclidean, kInsert, PinQuery::kAroundWhite, 0xb735f159570c524bULL, {3603, 358, 18770}},
    {{2, 50}, MetricKind::kEuclidean, kInsert, PinQuery::kPointWhite, 0x11e3f98b893ab070ULL, {3603, 358, 18844}},
    {{2, 50}, MetricKind::kEuclidean, kInsert, PinQuery::kBottomUp, 0x16d8dea9a9ba6aefULL, {3781, 358, 19762}},
    {{2, 50}, MetricKind::kEuclidean, kInsert, PinQuery::kBottomUpGreyStop, 0x16d8dea9a9ba6aefULL, {3781, 358, 19762}},
    {{2, 50}, MetricKind::kEuclidean, kInsert, PinQuery::kLeafMates, 0xb28d876c046e55c3ULL, {358, 0, 12431}},
    {{2, 50}, MetricKind::kEuclidean, kInsert, PinQuery::kCountsSerial, 0x4de1111664cfc34fULL, {46932, 2500, 656472}},
    {{2, 50}, MetricKind::kEuclidean, kInsert, PinQuery::kCountsPooled, 0x4de1111664cfc34fULL, {46932, 2500, 656472}},
    {{2, 50}, MetricKind::kEuclidean, kInsert, PinQuery::kBuildCounts, 0x4de1111664cfc34fULL, {32654, 2499, 481125}},
    {{2, 50}, MetricKind::kEuclidean, kBulk, PinQuery::kAroundAll, 0x7a10d252ee0eab6cULL, {4971, 358, 85816}},
    {{2, 50}, MetricKind::kEuclidean, kBulk, PinQuery::kPointAll, 0xa3e56b3277c96d51ULL, {4971, 358, 86174}},
    {{2, 50}, MetricKind::kEuclidean, kBulk, PinQuery::kAroundWhite, 0xdd4030235b10904bULL, {3077, 358, 22135}},
    {{2, 50}, MetricKind::kEuclidean, kBulk, PinQuery::kPointWhite, 0xe570d2c9875bcccdULL, {3077, 358, 22197}},
    {{2, 50}, MetricKind::kEuclidean, kBulk, PinQuery::kBottomUp, 0xc15029a09d0ef84fULL, {3253, 358, 24192}},
    {{2, 50}, MetricKind::kEuclidean, kBulk, PinQuery::kBottomUpGreyStop, 0xc15029a09d0ef84fULL, {3253, 358, 24192}},
    {{2, 50}, MetricKind::kEuclidean, kBulk, PinQuery::kLeafMates, 0xc9ca3bffb3dccccbULL, {358, 0, 12002}},
    {{2, 50}, MetricKind::kEuclidean, kBulk, PinQuery::kCountsSerial, 0x4de1111664cfc34fULL, {34248, 2500, 598523}},
    {{2, 50}, MetricKind::kEuclidean, kBulk, PinQuery::kCountsPooled, 0x4de1111664cfc34fULL, {34248, 2500, 598523}},
    {{2, 50}, MetricKind::kEuclidean, kBulk, PinQuery::kBuildCounts, 0x4de1111664cfc34fULL, {34336, 2500, 640632}},
    {{2, 50}, MetricKind::kManhattan, kInsert, PinQuery::kAroundAll, 0x49e94d9a4a38d908ULL, {6665, 358, 103945}},
    {{2, 50}, MetricKind::kManhattan, kInsert, PinQuery::kPointAll, 0xa0f934f26da1523dULL, {6665, 358, 104303}},
    {{2, 50}, MetricKind::kManhattan, kInsert, PinQuery::kAroundWhite, 0x3a5b21dae0b95a09ULL, {3886, 358, 22298}},
    {{2, 50}, MetricKind::kManhattan, kInsert, PinQuery::kPointWhite, 0x30ed9bb7040eb956ULL, {3886, 358, 22362}},
    {{2, 50}, MetricKind::kManhattan, kInsert, PinQuery::kBottomUp, 0x19e757de654135cdULL, {4053, 358, 23579}},
    {{2, 50}, MetricKind::kManhattan, kInsert, PinQuery::kBottomUpGreyStop, 0x19e757de654135cdULL, {4053, 358, 23579}},
    {{2, 50}, MetricKind::kManhattan, kInsert, PinQuery::kLeafMates, 0x8efb6c691bd3dc8dULL, {358, 0, 13409}},
    {{2, 50}, MetricKind::kManhattan, kInsert, PinQuery::kCountsSerial, 0xb4126e29fea165bfULL, {45870, 2500, 720077}},
    {{2, 50}, MetricKind::kManhattan, kInsert, PinQuery::kCountsPooled, 0xb4126e29fea165bfULL, {45870, 2500, 720077}},
    {{2, 50}, MetricKind::kManhattan, kInsert, PinQuery::kBuildCounts, 0xb4126e29fea165bfULL, {35048, 2499, 519308}},
    {{2, 50}, MetricKind::kManhattan, kBulk, PinQuery::kAroundAll, 0x06149fa019df3584ULL, {5425, 358, 88332}},
    {{2, 50}, MetricKind::kManhattan, kBulk, PinQuery::kPointAll, 0xb899659428f0dcb9ULL, {5425, 358, 88690}},
    {{2, 50}, MetricKind::kManhattan, kBulk, PinQuery::kAroundWhite, 0xb9fadc05dc9a2e2dULL, {3181, 358, 21583}},
    {{2, 50}, MetricKind::kManhattan, kBulk, PinQuery::kPointWhite, 0x474c09cfcbc9490dULL, {3181, 358, 21641}},
    {{2, 50}, MetricKind::kManhattan, kBulk, PinQuery::kBottomUp, 0x2f7db6690521d879ULL, {3490, 358, 22900}},
    {{2, 50}, MetricKind::kManhattan, kBulk, PinQuery::kBottomUpGreyStop, 0x46be9246649a2b29ULL, {2912, 358, 20037}},
    {{2, 50}, MetricKind::kManhattan, kBulk, PinQuery::kLeafMates, 0x47b235ac9c51c5a5ULL, {358, 0, 11542}},
    {{2, 50}, MetricKind::kManhattan, kBulk, PinQuery::kCountsSerial, 0xb4126e29fea165bfULL, {37431, 2500, 611799}},
    {{2, 50}, MetricKind::kManhattan, kBulk, PinQuery::kCountsPooled, 0xb4126e29fea165bfULL, {37431, 2500, 611799}},
    {{2, 50}, MetricKind::kManhattan, kBulk, PinQuery::kBuildCounts, 0xb4126e29fea165bfULL, {37519, 2500, 653924}},
    {{2, 50}, MetricKind::kChebyshev, kInsert, PinQuery::kAroundAll, 0x4e1b3747f57ffe6fULL, {6499, 358, 78227}},
    {{2, 50}, MetricKind::kChebyshev, kInsert, PinQuery::kPointAll, 0x0f120b140fc4e39eULL, {6499, 358, 78585}},
    {{2, 50}, MetricKind::kChebyshev, kInsert, PinQuery::kAroundWhite, 0x76e239251f3085a2ULL, {3753, 358, 17930}},
    {{2, 50}, MetricKind::kChebyshev, kInsert, PinQuery::kPointWhite, 0x16a824ece98830ffULL, {3753, 358, 17993}},
    {{2, 50}, MetricKind::kChebyshev, kInsert, PinQuery::kBottomUp, 0x37e60f16236d9eb2ULL, {3934, 358, 19433}},
    {{2, 50}, MetricKind::kChebyshev, kInsert, PinQuery::kBottomUpGreyStop, 0x37e60f16236d9eb2ULL, {3934, 358, 19433}},
    {{2, 50}, MetricKind::kChebyshev, kInsert, PinQuery::kLeafMates, 0xddaf3d26b707e35dULL, {358, 0, 12391}},
    {{2, 50}, MetricKind::kChebyshev, kInsert, PinQuery::kCountsSerial, 0xa2e48de499053c4bULL, {45153, 2500, 543142}},
    {{2, 50}, MetricKind::kChebyshev, kInsert, PinQuery::kCountsPooled, 0xa2e48de499053c4bULL, {45153, 2500, 543142}},
    {{2, 50}, MetricKind::kChebyshev, kInsert, PinQuery::kBuildCounts, 0xa2e48de499053c4bULL, {31134, 2499, 414987}},
    {{2, 50}, MetricKind::kChebyshev, kBulk, PinQuery::kAroundAll, 0xf518e7d969de84cbULL, {4323, 358, 60447}},
    {{2, 50}, MetricKind::kChebyshev, kBulk, PinQuery::kPointAll, 0x98bb51ccea8e6d66ULL, {4323, 358, 60805}},
    {{2, 50}, MetricKind::kChebyshev, kBulk, PinQuery::kAroundWhite, 0xace79a72f3a351dbULL, {2786, 358, 13784}},
    {{2, 50}, MetricKind::kChebyshev, kBulk, PinQuery::kPointWhite, 0x93a1103463372071ULL, {2786, 358, 13840}},
    {{2, 50}, MetricKind::kChebyshev, kBulk, PinQuery::kBottomUp, 0xbc579de92de6f21bULL, {2966, 358, 16200}},
    {{2, 50}, MetricKind::kChebyshev, kBulk, PinQuery::kBottomUpGreyStop, 0xbc579de92de6f21bULL, {2966, 358, 16200}},
    {{2, 50}, MetricKind::kChebyshev, kBulk, PinQuery::kLeafMates, 0x534e9d2eaf8e5f52ULL, {358, 0, 11914}},
    {{2, 50}, MetricKind::kChebyshev, kBulk, PinQuery::kCountsSerial, 0xa2e48de499053c4bULL, {30059, 2500, 420919}},
    {{2, 50}, MetricKind::kChebyshev, kBulk, PinQuery::kCountsPooled, 0xa2e48de499053c4bULL, {30059, 2500, 420919}},
    {{2, 50}, MetricKind::kChebyshev, kBulk, PinQuery::kBuildCounts, 0xa2e48de499053c4bULL, {30147, 2500, 463193}},
    {{8, 10}, MetricKind::kEuclidean, kInsert, PinQuery::kAroundAll, 0x28110f61b559aa00ULL, {8910, 86, 40299}},
    {{8, 10}, MetricKind::kEuclidean, kInsert, PinQuery::kPointAll, 0x014dfc486bf44b06ULL, {8910, 86, 40385}},
    {{8, 10}, MetricKind::kEuclidean, kInsert, PinQuery::kAroundWhite, 0x76eec3b347a3d4ffULL, {5101, 86, 10538}},
    {{8, 10}, MetricKind::kEuclidean, kInsert, PinQuery::kPointWhite, 0x706603c56242bfa5ULL, {5101, 86, 10552}},
    {{8, 10}, MetricKind::kEuclidean, kInsert, PinQuery::kBottomUp, 0xfd463ced449d9053ULL, {5149, 86, 10415}},
    {{8, 10}, MetricKind::kEuclidean, kInsert, PinQuery::kBottomUpGreyStop, 0xe777799b838334d8ULL, {4422, 86, 8978}},
    {{8, 10}, MetricKind::kEuclidean, kInsert, PinQuery::kLeafMates, 0x22b701fef0c2c9d2ULL, {86, 0, 523}},
    {{8, 10}, MetricKind::kEuclidean, kInsert, PinQuery::kCountsSerial, 0xa6fff633715f6f0fULL, {60762, 600, 273766}},
    {{8, 10}, MetricKind::kEuclidean, kInsert, PinQuery::kCountsPooled, 0xa6fff633715f6f0fULL, {60762, 600, 273766}},
    {{8, 10}, MetricKind::kEuclidean, kInsert, PinQuery::kBuildCounts, 0xa6fff633715f6f0fULL, {31389, 599, 152080}},
    {{8, 10}, MetricKind::kEuclidean, kBulk, PinQuery::kAroundAll, 0xeb2cb8a96c1b0794ULL, {8605, 86, 39423}},
    {{8, 10}, MetricKind::kEuclidean, kBulk, PinQuery::kPointAll, 0xdebc866ab6747b9aULL, {8605, 86, 39509}},
    {{8, 10}, MetricKind::kEuclidean, kBulk, PinQuery::kAroundWhite, 0xb6328ed1247a46f1ULL, {5162, 86, 10445}},
    {{8, 10}, MetricKind::kEuclidean, kBulk, PinQuery::kPointWhite, 0xfecfa91c27131cdeULL, {5162, 86, 10459}},
    {{8, 10}, MetricKind::kEuclidean, kBulk, PinQuery::kBottomUp, 0x72ce408ede1b9311ULL, {5209, 86, 10321}},
    {{8, 10}, MetricKind::kEuclidean, kBulk, PinQuery::kBottomUpGreyStop, 0x355f0459551a9e07ULL, {5098, 86, 10116}},
    {{8, 10}, MetricKind::kEuclidean, kBulk, PinQuery::kLeafMates, 0x1cba8b79c637e40fULL, {86, 0, 566}},
    {{8, 10}, MetricKind::kEuclidean, kBulk, PinQuery::kCountsSerial, 0xa6fff633715f6f0fULL, {58835, 600, 266805}},
    {{8, 10}, MetricKind::kEuclidean, kBulk, PinQuery::kCountsPooled, 0xa6fff633715f6f0fULL, {58835, 600, 266805}},
    {{8, 10}, MetricKind::kEuclidean, kBulk, PinQuery::kBuildCounts, 0xa6fff633715f6f0fULL, {58950, 600, 278474}},
    {{8, 10}, MetricKind::kManhattan, kInsert, PinQuery::kAroundAll, 0x42718ab74f869578ULL, {8348, 86, 37570}},
    {{8, 10}, MetricKind::kManhattan, kInsert, PinQuery::kPointAll, 0x5ffe019abbd73414ULL, {8348, 86, 37656}},
    {{8, 10}, MetricKind::kManhattan, kInsert, PinQuery::kAroundWhite, 0x1fcc9eaef4da971cULL, {4577, 86, 9943}},
    {{8, 10}, MetricKind::kManhattan, kInsert, PinQuery::kPointWhite, 0x354b01290892d454ULL, {4577, 86, 9957}},
    {{8, 10}, MetricKind::kManhattan, kInsert, PinQuery::kBottomUp, 0xf057731a4694a7e4ULL, {4640, 86, 9835}},
    {{8, 10}, MetricKind::kManhattan, kInsert, PinQuery::kBottomUpGreyStop, 0xe9d2942a6871f284ULL, {3614, 86, 7628}},
    {{8, 10}, MetricKind::kManhattan, kInsert, PinQuery::kLeafMates, 0x81feb598644c75abULL, {86, 0, 533}},
    {{8, 10}, MetricKind::kManhattan, kInsert, PinQuery::kCountsSerial, 0x421a4e17174ae6efULL, {56838, 600, 253728}},
    {{8, 10}, MetricKind::kManhattan, kInsert, PinQuery::kCountsPooled, 0x421a4e17174ae6efULL, {56838, 600, 253728}},
    {{8, 10}, MetricKind::kManhattan, kInsert, PinQuery::kBuildCounts, 0x421a4e17174ae6efULL, {30899, 599, 143842}},
    {{8, 10}, MetricKind::kManhattan, kBulk, PinQuery::kAroundAll, 0xfb0b567faff4aa60ULL, {8233, 86, 39327}},
    {{8, 10}, MetricKind::kManhattan, kBulk, PinQuery::kPointAll, 0x21caa3ede047dc68ULL, {8233, 86, 39413}},
    {{8, 10}, MetricKind::kManhattan, kBulk, PinQuery::kAroundWhite, 0xd232250e8f143405ULL, {4768, 86, 10616}},
    {{8, 10}, MetricKind::kManhattan, kBulk, PinQuery::kPointWhite, 0x9214df50b37b91f7ULL, {4768, 86, 10624}},
    {{8, 10}, MetricKind::kManhattan, kBulk, PinQuery::kBottomUp, 0x5489af5a2f7eb389ULL, {4813, 86, 10490}},
    {{8, 10}, MetricKind::kManhattan, kBulk, PinQuery::kBottomUpGreyStop, 0x5489af5a2f7eb389ULL, {4813, 86, 10490}},
    {{8, 10}, MetricKind::kManhattan, kBulk, PinQuery::kLeafMates, 0xe990f92fa1abe74bULL, {86, 0, 523}},
    {{8, 10}, MetricKind::kManhattan, kBulk, PinQuery::kCountsSerial, 0x421a4e17174ae6efULL, {56522, 600, 268113}},
    {{8, 10}, MetricKind::kManhattan, kBulk, PinQuery::kCountsPooled, 0x421a4e17174ae6efULL, {56522, 600, 268113}},
    {{8, 10}, MetricKind::kManhattan, kBulk, PinQuery::kBuildCounts, 0x421a4e17174ae6efULL, {56636, 600, 279669}},
    {{8, 50}, MetricKind::kEuclidean, kInsert, PinQuery::kAroundAll, 0xc8e5054c5c7247b3ULL, {26823, 358, 589215}},
    {{8, 50}, MetricKind::kEuclidean, kInsert, PinQuery::kPointAll, 0x1168f8aa22e00cfaULL, {26823, 358, 589573}},
    {{8, 50}, MetricKind::kEuclidean, kInsert, PinQuery::kAroundWhite, 0xbff252679506c478ULL, {14471, 358, 110820}},
    {{8, 50}, MetricKind::kEuclidean, kInsert, PinQuery::kPointWhite, 0xa4b0f49db27c2ee0ULL, {14471, 358, 110895}},
    {{8, 50}, MetricKind::kEuclidean, kInsert, PinQuery::kBottomUp, 0xfed36de496e28e14ULL, {14651, 358, 110645}},
    {{8, 50}, MetricKind::kEuclidean, kInsert, PinQuery::kBottomUpGreyStop, 0xfed36de496e28e14ULL, {14651, 358, 110645}},
    {{8, 50}, MetricKind::kEuclidean, kInsert, PinQuery::kLeafMates, 0x0f00dde4bc14c025ULL, {358, 0, 12977}},
    {{8, 50}, MetricKind::kEuclidean, kInsert, PinQuery::kCountsSerial, 0x57bb906182417d7bULL, {186941, 2500, 4083140}},
    {{8, 50}, MetricKind::kEuclidean, kInsert, PinQuery::kCountsPooled, 0x57bb906182417d7bULL, {186941, 2500, 4083140}},
    {{8, 50}, MetricKind::kEuclidean, kInsert, PinQuery::kBuildCounts, 0x57bb906182417d7bULL, {100822, 2499, 2239654}},
    {{8, 50}, MetricKind::kEuclidean, kBulk, PinQuery::kAroundAll, 0x9cc15da0a9e6c5b7ULL, {29696, 358, 637780}},
    {{8, 50}, MetricKind::kEuclidean, kBulk, PinQuery::kPointAll, 0x40a4506467ed4eaeULL, {29696, 358, 638138}},
    {{8, 50}, MetricKind::kEuclidean, kBulk, PinQuery::kAroundWhite, 0xda9914397fa4cf26ULL, {16449, 358, 115106}},
    {{8, 50}, MetricKind::kEuclidean, kBulk, PinQuery::kPointWhite, 0x4831246c279f76f8ULL, {16449, 358, 115156}},
    {{8, 50}, MetricKind::kEuclidean, kBulk, PinQuery::kBottomUp, 0x48c88ffaafb9270eULL, {16625, 358, 114927}},
    {{8, 50}, MetricKind::kEuclidean, kBulk, PinQuery::kBottomUpGreyStop, 0x48c88ffaafb9270eULL, {16625, 358, 114927}},
    {{8, 50}, MetricKind::kEuclidean, kBulk, PinQuery::kLeafMates, 0xdfaf659b3fc41799ULL, {358, 0, 11799}},
    {{8, 50}, MetricKind::kEuclidean, kBulk, PinQuery::kCountsSerial, 0x57bb906182417d7bULL, {206958, 2500, 4423592}},
    {{8, 50}, MetricKind::kEuclidean, kBulk, PinQuery::kCountsPooled, 0x57bb906182417d7bULL, {206958, 2500, 4423592}},
    {{8, 50}, MetricKind::kEuclidean, kBulk, PinQuery::kBuildCounts, 0x57bb906182417d7bULL, {207046, 2500, 4466828}},
    {{8, 50}, MetricKind::kManhattan, kInsert, PinQuery::kAroundAll, 0xa125241984dc2d2bULL, {25138, 358, 558557}},
    {{8, 50}, MetricKind::kManhattan, kInsert, PinQuery::kPointAll, 0x82c362fd3577b610ULL, {25138, 358, 558915}},
    {{8, 50}, MetricKind::kManhattan, kInsert, PinQuery::kAroundWhite, 0x3eb05949371903b4ULL, {13084, 358, 105141}},
    {{8, 50}, MetricKind::kManhattan, kInsert, PinQuery::kPointWhite, 0xcd0ba2f2e3c2669aULL, {13084, 358, 105192}},
    {{8, 50}, MetricKind::kManhattan, kInsert, PinQuery::kBottomUp, 0x3f67e6574595f900ULL, {13279, 358, 104983}},
    {{8, 50}, MetricKind::kManhattan, kInsert, PinQuery::kBottomUpGreyStop, 0x3f67e6574595f900ULL, {13279, 358, 104983}},
    {{8, 50}, MetricKind::kManhattan, kInsert, PinQuery::kLeafMates, 0xace1412d765b3ec3ULL, {358, 0, 12653}},
    {{8, 50}, MetricKind::kManhattan, kInsert, PinQuery::kCountsSerial, 0x80645ddc52ff8df3ULL, {175193, 2500, 3873061}},
    {{8, 50}, MetricKind::kManhattan, kInsert, PinQuery::kCountsPooled, 0x80645ddc52ff8df3ULL, {175193, 2500, 3873061}},
    {{8, 50}, MetricKind::kManhattan, kInsert, PinQuery::kBuildCounts, 0x80645ddc52ff8df3ULL, {94320, 2499, 2101511}},
    {{8, 50}, MetricKind::kManhattan, kBulk, PinQuery::kAroundAll, 0x09fad6e84bf8ac7bULL, {28025, 358, 588625}},
    {{8, 50}, MetricKind::kManhattan, kBulk, PinQuery::kPointAll, 0x856fb50d0f075d0cULL, {28025, 358, 588983}},
    {{8, 50}, MetricKind::kManhattan, kBulk, PinQuery::kAroundWhite, 0x6af8b01371839987ULL, {14462, 358, 107570}},
    {{8, 50}, MetricKind::kManhattan, kBulk, PinQuery::kPointWhite, 0xe07188bffc0610e0ULL, {14462, 358, 107630}},
    {{8, 50}, MetricKind::kManhattan, kBulk, PinQuery::kBottomUp, 0x0e0286a58792c477ULL, {14645, 358, 107400}},
    {{8, 50}, MetricKind::kManhattan, kBulk, PinQuery::kBottomUpGreyStop, 0x0e0286a58792c477ULL, {14645, 358, 107400}},
    {{8, 50}, MetricKind::kManhattan, kBulk, PinQuery::kLeafMates, 0x1327044e3eca173eULL, {358, 0, 12024}},
    {{8, 50}, MetricKind::kManhattan, kBulk, PinQuery::kCountsSerial, 0x80645ddc52ff8df3ULL, {195312, 2500, 4095673}},
    {{8, 50}, MetricKind::kManhattan, kBulk, PinQuery::kCountsPooled, 0x80645ddc52ff8df3ULL, {195312, 2500, 4095673}},
    {{8, 50}, MetricKind::kManhattan, kBulk, PinQuery::kBuildCounts, 0x80645ddc52ff8df3ULL, {195397, 2500, 4137239}},
    {{8, 50}, MetricKind::kChebyshev, kInsert, PinQuery::kAroundAll, 0xe3493b8ab1a20c23ULL, {27280, 358, 656189}},
    {{8, 50}, MetricKind::kChebyshev, kInsert, PinQuery::kPointAll, 0x0f76096d20438360ULL, {27280, 358, 656547}},
    {{8, 50}, MetricKind::kChebyshev, kInsert, PinQuery::kAroundWhite, 0x123579e615a0dfb9ULL, {13855, 358, 117355}},
    {{8, 50}, MetricKind::kChebyshev, kInsert, PinQuery::kPointWhite, 0xf66db46d8c2c9e58ULL, {13855, 358, 117411}},
    {{8, 50}, MetricKind::kChebyshev, kInsert, PinQuery::kBottomUp, 0x539d1eb2e44f9b6dULL, {14040, 358, 117182}},
    {{8, 50}, MetricKind::kChebyshev, kInsert, PinQuery::kBottomUpGreyStop, 0x539d1eb2e44f9b6dULL, {14040, 358, 117182}},
    {{8, 50}, MetricKind::kChebyshev, kInsert, PinQuery::kLeafMates, 0x8bae7985e2f62a93ULL, {358, 0, 12890}},
    {{8, 50}, MetricKind::kChebyshev, kInsert, PinQuery::kCountsSerial, 0x963048ec41ead385ULL, {190467, 2500, 4546000}},
    {{8, 50}, MetricKind::kChebyshev, kInsert, PinQuery::kCountsPooled, 0x963048ec41ead385ULL, {190467, 2500, 4546000}},
    {{8, 50}, MetricKind::kChebyshev, kInsert, PinQuery::kBuildCounts, 0x963048ec41ead385ULL, {103106, 2499, 2486594}},
    {{8, 50}, MetricKind::kChebyshev, kBulk, PinQuery::kAroundAll, 0x744d1a5238c3e6ffULL, {29990, 358, 714270}},
    {{8, 50}, MetricKind::kChebyshev, kBulk, PinQuery::kPointAll, 0x14af04dc12ff761cULL, {29990, 358, 714628}},
    {{8, 50}, MetricKind::kChebyshev, kBulk, PinQuery::kAroundWhite, 0x208a45caaaeb3682ULL, {17144, 358, 127022}},
    {{8, 50}, MetricKind::kChebyshev, kBulk, PinQuery::kPointWhite, 0x5fa98973c674ef16ULL, {17144, 358, 127082}},
    {{8, 50}, MetricKind::kChebyshev, kBulk, PinQuery::kBottomUp, 0xf8ffef2368f6708eULL, {17325, 358, 126845}},
    {{8, 50}, MetricKind::kChebyshev, kBulk, PinQuery::kBottomUpGreyStop, 0xf8ffef2368f6708eULL, {17325, 358, 126845}},
    {{8, 50}, MetricKind::kChebyshev, kBulk, PinQuery::kLeafMates, 0xff0deaf6c9ce3beaULL, {358, 0, 12920}},
    {{8, 50}, MetricKind::kChebyshev, kBulk, PinQuery::kCountsSerial, 0x963048ec41ead385ULL, {209250, 2500, 4951408}},
    {{8, 50}, MetricKind::kChebyshev, kBulk, PinQuery::kCountsPooled, 0x963048ec41ead385ULL, {209250, 2500, 4951408}},
    {{8, 50}, MetricKind::kChebyshev, kBulk, PinQuery::kBuildCounts, 0x963048ec41ead385ULL, {209336, 2500, 4994042}},
    {{3, 50}, MetricKind::kEuclidean, kInsert, PinQuery::kAroundAll, 0x6bb66899c20eeb25ULL, {10920, 358, 159624}},
    {{3, 50}, MetricKind::kEuclidean, kInsert, PinQuery::kPointAll, 0xf24632975be89456ULL, {10920, 358, 159982}},
    {{3, 50}, MetricKind::kEuclidean, kInsert, PinQuery::kAroundWhite, 0xc01c176945e1256cULL, {6021, 358, 31575}},
    {{3, 50}, MetricKind::kEuclidean, kInsert, PinQuery::kPointWhite, 0xd1ef8d48b16b582aULL, {6021, 358, 31624}},
    {{3, 50}, MetricKind::kEuclidean, kInsert, PinQuery::kBottomUp, 0x6378088f9604cda8ULL, {6212, 358, 31737}},
    {{3, 50}, MetricKind::kEuclidean, kInsert, PinQuery::kBottomUpGreyStop, 0x6378088f9604cda8ULL, {6212, 358, 31737}},
    {{3, 50}, MetricKind::kEuclidean, kInsert, PinQuery::kLeafMates, 0xf94d47531acf3be4ULL, {358, 0, 12730}},
    {{3, 50}, MetricKind::kEuclidean, kInsert, PinQuery::kCountsSerial, 0x8211dfe67da7e625ULL, {76223, 2500, 1119786}},
    {{3, 50}, MetricKind::kEuclidean, kInsert, PinQuery::kCountsPooled, 0x8211dfe67da7e625ULL, {76223, 2500, 1119786}},
    {{3, 50}, MetricKind::kEuclidean, kInsert, PinQuery::kBuildCounts, 0x8211dfe67da7e625ULL, {49009, 2499, 717086}},
    {{3, 50}, MetricKind::kEuclidean, kBulk, PinQuery::kAroundAll, 0x93a039758497cd99ULL, {8995, 358, 145047}},
    {{3, 50}, MetricKind::kEuclidean, kBulk, PinQuery::kPointAll, 0x85b97ae445241d1aULL, {8995, 358, 145405}},
    {{3, 50}, MetricKind::kEuclidean, kBulk, PinQuery::kAroundWhite, 0xa16e235643d7c775ULL, {4976, 358, 33298}},
    {{3, 50}, MetricKind::kEuclidean, kBulk, PinQuery::kPointWhite, 0x4ee12838489f9aa1ULL, {4976, 358, 33355}},
    {{3, 50}, MetricKind::kEuclidean, kBulk, PinQuery::kBottomUp, 0x084fb48237022fddULL, {5128, 358, 34143}},
    {{3, 50}, MetricKind::kEuclidean, kBulk, PinQuery::kBottomUpGreyStop, 0x084fb48237022fddULL, {5128, 358, 34143}},
    {{3, 50}, MetricKind::kEuclidean, kBulk, PinQuery::kLeafMates, 0xd819eed59bbbdc53ULL, {358, 0, 12377}},
    {{3, 50}, MetricKind::kEuclidean, kBulk, PinQuery::kCountsSerial, 0x8211dfe67da7e625ULL, {62893, 2500, 1020556}},
    {{3, 50}, MetricKind::kEuclidean, kBulk, PinQuery::kCountsPooled, 0x8211dfe67da7e625ULL, {62893, 2500, 1020556}},
    {{3, 50}, MetricKind::kEuclidean, kBulk, PinQuery::kBuildCounts, 0x8211dfe67da7e625ULL, {62980, 2500, 1063352}},
    {{7, 50}, MetricKind::kHamming, kInsert, PinQuery::kAroundAll, 0xe520895c4c31629eULL, {1660, 83, 42672}},
    {{7, 50}, MetricKind::kHamming, kInsert, PinQuery::kPointAll, 0xff2f3b345da02e53ULL, {1660, 83, 42755}},
    {{7, 50}, MetricKind::kHamming, kInsert, PinQuery::kAroundWhite, 0x81913cefd759111dULL, {830, 83, 7816}},
    {{7, 50}, MetricKind::kHamming, kInsert, PinQuery::kPointWhite, 0x49d15f1cd2bf0540ULL, {830, 83, 7833}},
    {{7, 50}, MetricKind::kHamming, kInsert, PinQuery::kBottomUp, 0xcf3b47fd4787fb61ULL, {872, 83, 7858}},
    {{7, 50}, MetricKind::kHamming, kInsert, PinQuery::kBottomUpGreyStop, 0xcf3b47fd4787fb61ULL, {872, 83, 7858}},
    {{7, 50}, MetricKind::kHamming, kInsert, PinQuery::kLeafMates, 0x44cee435392f2863ULL, {83, 0, 2779}},
    {{7, 50}, MetricKind::kHamming, kInsert, PinQuery::kCountsSerial, 0x52155bc29cfb42e3ULL, {11580, 579, 298016}},
    {{7, 50}, MetricKind::kHamming, kInsert, PinQuery::kCountsPooled, 0x52155bc29cfb42e3ULL, {11580, 579, 298016}},
    {{7, 50}, MetricKind::kHamming, kInsert, PinQuery::kBuildCounts, 0x52155bc29cfb42e3ULL, {6723, 578, 159386}},
    {{7, 50}, MetricKind::kHamming, kBulk, PinQuery::kAroundAll, 0xfb9663e7b7bd32aeULL, {1726, 83, 40797}},
    {{7, 50}, MetricKind::kHamming, kBulk, PinQuery::kPointAll, 0xd62d00885fcb71c7ULL, {1726, 83, 40880}},
    {{7, 50}, MetricKind::kHamming, kBulk, PinQuery::kAroundWhite, 0x0e536f406af1a2c8ULL, {979, 83, 7117}},
    {{7, 50}, MetricKind::kHamming, kBulk, PinQuery::kPointWhite, 0xe10c18b1cdd609abULL, {979, 83, 7132}},
    {{7, 50}, MetricKind::kHamming, kBulk, PinQuery::kBottomUp, 0x63088a8c29d91988ULL, {1015, 83, 7153}},
    {{7, 50}, MetricKind::kHamming, kBulk, PinQuery::kBottomUpGreyStop, 0x63088a8c29d91988ULL, {1015, 83, 7153}},
    {{7, 50}, MetricKind::kHamming, kBulk, PinQuery::kLeafMates, 0x73de6f5f0a3190ffULL, {83, 0, 2722}},
    {{7, 50}, MetricKind::kHamming, kBulk, PinQuery::kCountsSerial, 0x52155bc29cfb42e3ULL, {12017, 579, 285806}},
    {{7, 50}, MetricKind::kHamming, kBulk, PinQuery::kCountsPooled, 0x52155bc29cfb42e3ULL, {12017, 579, 285806}},
    {{7, 50}, MetricKind::kHamming, kBulk, PinQuery::kBuildCounts, 0x52155bc29cfb42e3ULL, {12038, 579, 292140}},
};

TEST(MTreeQueryContractTest, IdsOrderDistancesAndStatsArePinned) {
  ASSERT_EQ(std::size(kPinnedQueries), 4u * 2u * 10u);
  for (const PinRow& row : kPinnedQueries) {
    const PinResult actual = RunPin(row.metric, row.build, row.query);
    const std::string expected_text = PinRowText(
        row.metric, row.build, row.query, PinResult{row.ids_hash, row.stats});
    EXPECT_EQ(PinRowText(row.metric, row.build, row.query, actual),
              expected_text);
  }
  ASSERT_EQ(std::size(kPinnedShapes), 24u * 10u);
  for (const ShapePinRow& pin : kPinnedShapes) {
    const PinRow& row = pin.row;
    const std::string shape = ShapePrefix(pin.shape);
    const PinResult actual = RunPin(row.metric, row.build, row.query,
                                    pin.shape);
    EXPECT_EQ(
        PinRowText(row.metric, row.build, row.query, actual, shape.c_str()),
        PinRowText(row.metric, row.build, row.query,
                   PinResult{row.ids_hash, row.stats}, shape.c_str()));
  }
}

}  // namespace
}  // namespace disc
