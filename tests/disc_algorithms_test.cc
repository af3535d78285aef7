#include "core/disc_algorithms.h"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "core/reference.h"
#include "data/cameras.h"
#include "data/cities.h"
#include "data/generators.h"
#include "graph/properties.h"
#include "metric/metric.h"

namespace disc {
namespace {

// ---------------------------------------------------------------------------
// Property sweep: every algorithm variant must produce a valid r-DisC
// diverse subset (independent + covering, Definition 1) on every workload.
// ---------------------------------------------------------------------------

struct Variant {
  const char* name;
  Algorithm algorithm;
  bool pruned;
};

constexpr Variant kVariants[] = {
    {"Basic", Algorithm::kBasic, false},
    {"BasicPruned", Algorithm::kBasic, true},
    {"GreedyGrey", Algorithm::kGreedy, false},
    {"GreedyGreyPruned", Algorithm::kGreedy, true},
    {"GreedyWhite", Algorithm::kGreedyWhite, true},
    {"GreedyLazyGrey", Algorithm::kLazyGrey, true},
    {"GreedyLazyWhite", Algorithm::kLazyWhite, true},
};

struct Workload {
  const char* name;
  Dataset dataset;
  std::unique_ptr<DistanceMetric> metric;
  double radius;
};

Workload MakeWorkload(int index) {
  switch (index) {
    case 0:
      return {"uniform_small_r", MakeUniformDataset(600, 2, 1),
              MakeMetric(MetricKind::kEuclidean), 0.03};
    case 1:
      return {"uniform_large_r", MakeUniformDataset(600, 2, 2),
              MakeMetric(MetricKind::kEuclidean), 0.2};
    case 2:
      return {"clustered", MakeClusteredDataset(800, 2, 3),
              MakeMetric(MetricKind::kEuclidean), 0.05};
    case 3:
      return {"clustered_3d", MakeClusteredDataset(500, 3, 4),
              MakeMetric(MetricKind::kEuclidean), 0.1};
    case 4:
      return {"manhattan", MakeUniformDataset(500, 2, 5),
              MakeMetric(MetricKind::kManhattan), 0.08};
    case 5:
      return {"cameras_hamming", MakeCamerasDataset(),
              MakeMetric(MetricKind::kHamming), 3.0};
    default:
      return {"grid", MakeGridDataset(20), MakeMetric(MetricKind::kEuclidean),
              0.11};
  }
}
constexpr int kNumWorkloads = 7;

class DiscValidityTest
    : public ::testing::TestWithParam<std::tuple<Variant, int>> {};

TEST_P(DiscValidityTest, ProducesValidDisCDiverseSubset) {
  auto [variant, workload_index] = GetParam();
  Workload w = MakeWorkload(workload_index);
  MTree tree(w.dataset, *w.metric);
  ASSERT_TRUE(tree.Build().ok());
  AlgorithmRunOptions options;
  options.pruned = variant.pruned;
  DiscResult result =
      RunAlgorithm(&tree, variant.algorithm, w.radius, options);
  EXPECT_FALSE(result.solution.empty());
  Status valid =
      VerifyDisCDiverse(w.dataset, *w.metric, w.radius, result.solution);
  EXPECT_TRUE(valid.ok()) << variant.name << " on " << w.name << ": "
                          << valid.ToString();
  // Solutions must also be maximal (Lemma 1: independent + dominating).
  NeighborhoodGraph graph(w.dataset, *w.metric, w.radius);
  EXPECT_TRUE(IsMaximalIndependentSet(graph, result.solution));
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgosAllWorkloads, DiscValidityTest,
    ::testing::Combine(::testing::ValuesIn(kVariants),
                       ::testing::Range(0, kNumWorkloads)),
    [](const ::testing::TestParamInfo<std::tuple<Variant, int>>& param_info) {
      return std::string(std::get<0>(param_info.param).name) + "_w" +
             std::to_string(std::get<1>(param_info.param));
    });

// ---------------------------------------------------------------------------
// Cross-checks against the index-free reference implementations.
// ---------------------------------------------------------------------------

TEST(DiscReferenceEquivalenceTest, BasicMatchesReferenceOnLeafOrder) {
  Dataset d = MakeClusteredDataset(700, 2, 17);
  EuclideanMetric metric;
  const double radius = 0.06;
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  DiscResult indexed = BasicDisc(&tree, radius, true);
  NeighborhoodGraph graph(d, metric, radius);
  std::vector<ObjectId> reference =
      ReferenceBasicDisc(graph, tree.LeafOrder());
  EXPECT_EQ(indexed.solution, reference);
}

TEST(DiscReferenceEquivalenceTest, GreedyGreyMatchesReferenceExactly) {
  // Same tie-breaking + exact counts => identical selection sequences.
  Dataset d = MakeClusteredDataset(600, 2, 19);
  EuclideanMetric metric;
  const double radius = 0.07;
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  DiscResult indexed = GreedyDisc(&tree, radius, {});
  NeighborhoodGraph graph(d, metric, radius);
  EXPECT_EQ(indexed.solution, ReferenceGreedyDisc(graph));
}

TEST(DiscReferenceEquivalenceTest, WhiteVariantMatchesGreyVariantSolutions) {
  // Both maintain exact counts, so they select identical objects.
  Dataset d = MakeClusteredDataset(500, 2, 23);
  EuclideanMetric metric;
  const double radius = 0.08;
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  EXPECT_EQ(GreedyDisc(&tree, radius, {}).solution,
            RunAlgorithm(&tree, Algorithm::kGreedyWhite, radius).solution);
}

TEST(DiscReferenceEquivalenceTest, PruningNeverChangesTheSolution) {
  Dataset d = MakeClusteredDataset(500, 2, 29);
  EuclideanMetric metric;
  for (double radius : {0.03, 0.1}) {
    MTree tree(d, metric);
    ASSERT_TRUE(tree.Build().ok());
    EXPECT_EQ(BasicDisc(&tree, radius, false).solution,
              BasicDisc(&tree, radius, true).solution);
    AlgorithmRunOptions pruned, unpruned;
    pruned.pruned = true;
    unpruned.pruned = false;
    EXPECT_EQ(GreedyDisc(&tree, radius, unpruned).solution,
              GreedyDisc(&tree, radius, pruned).solution);
  }
}

TEST(DiscReferenceEquivalenceTest, PrecomputedCountsChangeNothing) {
  Dataset d = MakeClusteredDataset(400, 2, 31);
  EuclideanMetric metric;
  const double radius = 0.09;
  MTree tree_a(d, metric);
  std::vector<uint32_t> counts;
  ASSERT_TRUE(tree_a.BuildWithNeighborCounts(radius, &counts).ok());
  AlgorithmRunOptions with_counts;
  with_counts.initial_counts = &counts;
  DiscResult a = GreedyDisc(&tree_a, radius, with_counts);

  MTree tree_b(d, metric);
  ASSERT_TRUE(tree_b.Build().ok());
  DiscResult b = GreedyDisc(&tree_b, radius, {});
  EXPECT_EQ(a.solution, b.solution);
}

// ---------------------------------------------------------------------------
// Behavioral expectations from the paper's evaluation (§6).
// ---------------------------------------------------------------------------

TEST(DiscBehaviorTest, GreedyNeverLargerThanBasicAcrossRadii) {
  Dataset d = MakeClusteredDataset(1000, 2, 37);
  EuclideanMetric metric;
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  for (double radius : {0.02, 0.04, 0.08}) {
    size_t basic = BasicDisc(&tree, radius, true).size();
    size_t greedy = GreedyDisc(&tree, radius, {}).size();
    EXPECT_LE(greedy, basic) << "radius " << radius;
  }
}

TEST(DiscBehaviorTest, LargerRadiusSmallerSolution) {
  Dataset d = MakeClusteredDataset(800, 2, 41);
  EuclideanMetric metric;
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  size_t prev = SIZE_MAX;
  for (double radius : {0.01, 0.02, 0.04, 0.08, 0.16}) {
    size_t size = GreedyDisc(&tree, radius, {}).size();
    EXPECT_LE(size, prev) << "radius " << radius;
    prev = size;
  }
}

TEST(DiscBehaviorTest, ZeroRadiusSelectsEverythingDistinct) {
  // With r = 0, only exact duplicates are similar; on duplicate-free data
  // the diverse subset is all of P.
  Dataset d = MakeUniformDataset(200, 2, 43);
  EuclideanMetric metric;
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  EXPECT_EQ(BasicDisc(&tree, 0.0, true).size(), d.size());
}

TEST(DiscBehaviorTest, HugeRadiusSelectsSingleObject) {
  Dataset d = MakeUniformDataset(300, 2, 47);
  EuclideanMetric metric;
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  EXPECT_EQ(GreedyDisc(&tree, 2.0, {}).size(), 1u);
}

TEST(DiscBehaviorTest, PruningSavesAccessesForBasic) {
  Dataset d = MakeClusteredDataset(3000, 2, 53);
  EuclideanMetric metric;
  MTreeOptions options;
  options.node_capacity = 25;
  MTree tree(d, metric, options);
  ASSERT_TRUE(tree.Build().ok());
  const double radius = 0.02;
  uint64_t unpruned = BasicDisc(&tree, radius, false).stats.node_accesses;
  uint64_t pruned = BasicDisc(&tree, radius, true).stats.node_accesses;
  EXPECT_LT(pruned, unpruned);
}

TEST(DiscBehaviorTest, LazyVariantsCostNoMoreAccessesThanExact) {
  Dataset d = MakeClusteredDataset(2000, 2, 59);
  EuclideanMetric metric;
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  const double radius = 0.05;
  uint64_t exact_cost = GreedyDisc(&tree, radius, {}).stats.node_accesses;
  uint64_t lazy_cost =
      RunAlgorithm(&tree, Algorithm::kLazyGrey, radius).stats.node_accesses;
  EXPECT_LE(lazy_cost, exact_cost);
}

TEST(DiscBehaviorTest, SolutionOrderIsDeterministic) {
  Dataset d = MakeClusteredDataset(400, 2, 61);
  EuclideanMetric metric;
  MTree tree_a(d, metric);
  MTree tree_b(d, metric);
  ASSERT_TRUE(tree_a.Build().ok());
  ASSERT_TRUE(tree_b.Build().ok());
  EXPECT_EQ(GreedyDisc(&tree_a, 0.05, {}).solution,
            GreedyDisc(&tree_b, 0.05, {}).solution);
}

TEST(DiscBehaviorTest, StatsAttributedPerRun) {
  Dataset d = MakeUniformDataset(300, 2, 67);
  EuclideanMetric metric;
  MTree tree(d, metric);
  ASSERT_TRUE(tree.Build().ok());
  DiscResult first = GreedyDisc(&tree, 0.1, {});
  DiscResult second = GreedyDisc(&tree, 0.1, {});
  EXPECT_GT(first.stats.node_accesses, 0u);
  // Runs on the same tree report their own work, not cumulative totals.
  EXPECT_EQ(first.stats.node_accesses, second.stats.node_accesses);
  EXPECT_GT(first.stats.range_queries, 0u);
}

}  // namespace
}  // namespace disc
