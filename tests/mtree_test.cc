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

PinResult RunPin(MetricKind kind, BuildStrategy build, PinQuery query) {
  const bool hamming = kind == MetricKind::kHamming;
  const Dataset d =
      hamming ? MakeCamerasDataset() : MakeUniformDataset(600, 3, 5);
  double radius = 0.2;
  switch (kind) {
    case MetricKind::kEuclidean:
      radius = 0.2;
      break;
    case MetricKind::kManhattan:
      radius = 0.3;
      break;
    case MetricKind::kChebyshev:
      radius = 0.15;
      break;
    case MetricKind::kHamming:
      radius = 3.0;
      break;
  }
  std::unique_ptr<DistanceMetric> metric = MakeMetric(kind);
  MTreeOptions options;
  options.node_capacity = 10;  // a few levels, so every path is exercised
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
                       const PinResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{MetricKind::k%s, %s, PinQuery::%s, 0x%016llxULL, "
                "{%llu, %llu, %llu}},",
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

TEST(MTreeQueryContractTest, IdsOrderDistancesAndStatsArePinned) {
  ASSERT_EQ(std::size(kPinnedQueries), 4u * 2u * 10u);
  for (const PinRow& row : kPinnedQueries) {
    const PinResult actual = RunPin(row.metric, row.build, row.query);
    const std::string expected_text = PinRowText(
        row.metric, row.build, row.query, PinResult{row.ids_hash, row.stats});
    EXPECT_EQ(PinRowText(row.metric, row.build, row.query, actual),
              expected_text);
  }
}

}  // namespace
}  // namespace disc
