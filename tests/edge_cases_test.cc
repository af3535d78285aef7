// Edge cases and failure injection across the public API: degenerate radii,
// degenerate datasets, zooming to extremes, and every documented error path.

#include <gtest/gtest.h>

#include <limits>

#include "core/disc_algorithms.h"
#include "core/zoom.h"
#include "data/generators.h"
#include "graph/properties.h"
#include "metric/metric.h"
#include "mtree/mtree.h"

namespace disc {
namespace {

class EdgeCaseFixture : public ::testing::Test {
 protected:
  EdgeCaseFixture()
      : dataset_(MakeClusteredDataset(400, 2, 7)), tree_(dataset_, metric_) {
    EXPECT_TRUE(tree_.Build().ok());
  }
  EuclideanMetric metric_;
  Dataset dataset_;
  MTree tree_;
};

TEST_F(EdgeCaseFixture, ZoomInToZeroRadiusSelectsEverything) {
  GreedyDisc(&tree_, 0.1, {});
  tree_.RecomputeClosestBlackDistances(0.1);
  DiscResult all = ZoomIn(&tree_, 0.0, /*greedy=*/false);
  // At r' = 0 only exact duplicates stay covered; this dataset has none.
  EXPECT_EQ(all.size(), dataset_.size());
  EXPECT_TRUE(VerifyDisCDiverse(dataset_, metric_, 0.0, all.solution).ok());
}

TEST_F(EdgeCaseFixture, ZoomOutToHugeRadiusSelectsOne) {
  GreedyDisc(&tree_, 0.05, {});
  DiscResult one = ZoomOut(&tree_, 3.0, ZoomOutVariant::kGreedyMostRed);
  EXPECT_EQ(one.size(), 1u);
  EXPECT_TRUE(VerifyDisCDiverse(dataset_, metric_, 3.0, one.solution).ok());
}

TEST_F(EdgeCaseFixture, ZoomOutArbitraryToHugeRadiusSelectsOne) {
  GreedyDisc(&tree_, 0.05, {});
  DiscResult one = ZoomOut(&tree_, 3.0, ZoomOutVariant::kArbitrary);
  EXPECT_EQ(one.size(), 1u);
}

TEST_F(EdgeCaseFixture, LocalZoomCoveringWholeDatasetActsGlobally) {
  DiscResult base = GreedyDisc(&tree_, 0.1, {});
  tree_.RecomputeClosestBlackDistances(0.1);
  // A region radius spanning the whole unit square: local == global zoom-in.
  ObjectId center = base.solution.front();
  DiscResult local = LocalZoom(&tree_, center, 3.0, 0.05, /*greedy=*/true);
  EXPECT_TRUE(
      VerifyDisCDiverse(dataset_, metric_, 0.05, local.solution).ok());
  EXPECT_GT(local.size(), base.size());
}

TEST_F(EdgeCaseFixture, RepeatedZoomInIsIdempotentAtSameRadius) {
  GreedyDisc(&tree_, 0.08, {});
  tree_.RecomputeClosestBlackDistances(0.08);
  DiscResult once = ZoomIn(&tree_, 0.08, false);
  DiscResult twice = ZoomIn(&tree_, 0.08, false);
  EXPECT_EQ(once.size(), twice.size());
}

TEST_F(EdgeCaseFixture, NegativeRadiusQueriesReturnNothing) {
  std::vector<Neighbor> found;
  tree_.RangeQueryAround(0, -1.0, QueryFilter::kAll, false, &found);
  EXPECT_TRUE(found.empty());
}

TEST_F(EdgeCaseFixture, StatsDeltaNeverNegative) {
  DiscResult a = BasicDisc(&tree_, 0.05, true);
  EXPECT_GT(a.stats.node_accesses, 0u);
  EXPECT_GE(a.wall_ms, 0.0);
}

TEST(DegenerateDatasetTest, TwoPointsAllAlgorithms) {
  Dataset d(1);
  ASSERT_TRUE(d.Add(Point{0.0}).ok());
  ASSERT_TRUE(d.Add(Point{1.0}).ok());
  EuclideanMetric metric;
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  // Radius below the gap: both selected. Above: one selected.
  EXPECT_EQ(BasicDisc(&tree, 0.5, true).size(), 2u);
  EXPECT_EQ(BasicDisc(&tree, 1.0, true).size(), 1u);
  EXPECT_EQ(GreedyDisc(&tree, 0.5, {}).size(), 2u);
  EXPECT_EQ(GreedyC(&tree, 1.0).size(), 1u);
  EXPECT_EQ(FastC(&tree, 1.0).size(), 1u);
}

TEST(DegenerateDatasetTest, BoundaryRadiusExactlyAtPairDistance) {
  // dist == r means "similar": the pair cannot both be selected.
  Dataset d(1);
  ASSERT_TRUE(d.Add(Point{0.0}).ok());
  ASSERT_TRUE(d.Add(Point{0.25}).ok());
  EuclideanMetric metric;
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  EXPECT_EQ(GreedyDisc(&tree, 0.25, {}).size(), 1u);
  // Just below: independent, both needed.
  EXPECT_EQ(GreedyDisc(&tree, 0.2499999, {}).size(), 2u);
}

TEST(DegenerateDatasetTest, HighDimensionalTinyDataset) {
  Dataset d = MakeUniformDataset(5, 10, 3);
  EuclideanMetric metric;
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  DiscResult result = GreedyDisc(&tree, 0.5, {});
  EXPECT_TRUE(VerifyDisCDiverse(d, metric, 0.5, result.solution).ok());
}

TEST(InfinityAndPrecisionTest, VeryCloseButDistinctPoints) {
  Dataset d(1);
  ASSERT_TRUE(d.Add(Point{0.0}).ok());
  ASSERT_TRUE(d.Add(Point{1e-15}).ok());
  ASSERT_TRUE(d.Add(Point{0.5}).ok());
  EuclideanMetric metric;
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  EXPECT_TRUE(tree.Validate().ok());
  DiscResult result = GreedyDisc(&tree, 1e-12, {});
  EXPECT_EQ(result.size(), 2u);  // the 1e-15 twin is covered
}

TEST(ErrorPathTest, GreedyOptionsWithWrongSizedCountsAreSafeInRelease) {
  // initial_counts is validated by assert in debug builds; here we only
  // document the contract (size must equal dataset size) by exercising the
  // correct-size path.
  Dataset d = MakeUniformDataset(50, 2, 9);
  EuclideanMetric metric;
  MTree tree(d, metric);
  std::vector<uint32_t> counts;
  ASSERT_TRUE(tree.BuildWithNeighborCounts(0.2, &counts).ok());
  ASSERT_EQ(counts.size(), d.size());
  AlgorithmRunOptions options;
  options.initial_counts = &counts;
  DiscResult result = GreedyDisc(&tree, 0.2, options);
  EXPECT_TRUE(VerifyDisCDiverse(d, metric, 0.2, result.solution).ok());
}

TEST(ErrorPathTest, BuildWithNegativeRadiusRejected) {
  Dataset d = MakeUniformDataset(10, 2, 1);
  EuclideanMetric metric;
  MTree tree(d, metric);
  std::vector<uint32_t> counts;
  Status s = tree.BuildWithNeighborCounts(-0.1, &counts);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(ErrorPathTest, ZoomWithoutPriorRunStillProducesValidSolution) {
  // Calling ZoomOut on a freshly reset tree (no blacks at all) must not
  // crash: pass 1 is empty and pass 2 covers everything from scratch.
  Dataset d = MakeUniformDataset(200, 2, 11);
  EuclideanMetric metric;
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  tree.ResetColors();
  // All objects are white; recolor step maps them to white again.
  for (ObjectId i = 0; i < d.size(); ++i) tree.SetColor(i, Color::kGrey);
  DiscResult result = ZoomOut(&tree, 0.3, ZoomOutVariant::kGreedyMostRed);
  EXPECT_TRUE(VerifyDisCDiverse(d, metric, 0.3, result.solution).ok());
}

}  // namespace
}  // namespace disc
