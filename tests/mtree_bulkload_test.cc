// Bulk-load construction (MTree::BulkLoad / BuildStrategy::kBulkLoad).
//
// The contract under test: a bulk-loaded tree is a *valid* M-tree (every
// structural invariant of MTree::Validate — covering radii, parent
// distances, uniform depth, leaf chain, white counters, node counts) that
// answers every query *identically* to an insert-built tree over the same
// dataset. The centerpiece is a property test sweeping random workloads;
// the rest covers the degenerate shapes and error paths, plus the
// end-to-end behavior of the DisC algorithms on bulk-loaded trees.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/disc_algorithms.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "graph/neighborhood.h"
#include "graph/properties.h"
#include "metric/metric.h"
#include "mtree/mtree.h"
#include "util/parallel.h"

namespace disc {
namespace {

MTreeOptions BulkOptions(size_t capacity = 50, uint64_t seed = 42) {
  MTreeOptions options;
  options.node_capacity = capacity;
  options.random_seed = seed;
  options.build.strategy = BuildStrategy::kBulkLoad;
  return options;
}

MTreeOptions InsertOptions(size_t capacity = 50) {
  MTreeOptions options;
  options.node_capacity = capacity;
  return options;
}

std::vector<ObjectId> SortedIds(const std::vector<Neighbor>& neighbors) {
  std::vector<ObjectId> ids;
  ids.reserve(neighbors.size());
  for (const Neighbor& nb : neighbors) ids.push_back(nb.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

// The acceptance property: over random workloads, bulk-loaded and
// insert-built trees return identical RangeQuery result sets, and both pass
// the full structural invariant checker.
TEST(MTreeBulkLoadProperty, RangeQueryEquivalenceOverRandomWorkloads) {
  EuclideanMetric metric;
  const double radii[] = {0.02, 0.1, 0.3};
  for (uint64_t seed : {1u, 7u, 23u}) {
    for (size_t n : {30u, 120u, 700u}) {
      for (size_t capacity : {4u, 25u}) {
        const Dataset uniform = MakeUniformDataset(n, 2, seed);
        const Dataset clustered = MakeClusteredDataset(n, 3, seed);
        for (const Dataset* dataset : {&uniform, &clustered}) {
          MTree insert_tree(*dataset, metric, InsertOptions(capacity));
          MTree bulk_tree(*dataset, metric, BulkOptions(capacity, seed));
          ASSERT_TRUE(insert_tree.Build().ok());
          ASSERT_TRUE(bulk_tree.Build().ok());
          ASSERT_TRUE(insert_tree.Validate().ok())
              << insert_tree.Validate().ToString();
          ASSERT_TRUE(bulk_tree.Validate().ok())
              << bulk_tree.Validate().ToString();

          for (double radius : radii) {
            for (ObjectId center = 0; center < n; center += n / 9 + 1) {
              std::vector<Neighbor> from_insert, from_bulk;
              insert_tree.RangeQueryAround(center, radius, QueryFilter::kAll,
                                           /*pruned=*/false, &from_insert);
              bulk_tree.RangeQueryAround(center, radius, QueryFilter::kAll,
                                         /*pruned=*/false, &from_bulk);
              EXPECT_EQ(SortedIds(from_insert), SortedIds(from_bulk))
                  << "seed=" << seed << " n=" << n << " cap=" << capacity
                  << " r=" << radius << " center=" << center;
            }
          }
        }
      }
    }
  }
}

// The same equivalence for point-centered queries (arbitrary, non-stored
// centers) — exercised separately because they descend without an exclude id
// and without a precomputed center-to-pivot distance.
TEST(MTreeBulkLoadProperty, PointQueryEquivalence) {
  EuclideanMetric metric;
  const Dataset dataset = MakeClusteredDataset(400, 2, 5);
  MTree insert_tree(dataset, metric, InsertOptions(10));
  MTree bulk_tree(dataset, metric, BulkOptions(10));
  ASSERT_TRUE(insert_tree.Build().ok());
  ASSERT_TRUE(bulk_tree.Build().ok());
  for (double x : {0.1, 0.5, 0.9}) {
    for (double y : {0.2, 0.7}) {
      Point q{x, y};
      for (double radius : {0.05, 0.25}) {
        std::vector<Neighbor> from_insert, from_bulk;
        insert_tree.RangeQuery(q, radius, QueryFilter::kAll, false,
                               &from_insert);
        bulk_tree.RangeQuery(q, radius, QueryFilter::kAll, false, &from_bulk);
        EXPECT_EQ(SortedIds(from_insert), SortedIds(from_bulk))
            << "q=(" << x << "," << y << ") r=" << radius;
      }
    }
  }
}

// Bottom-up queries climb the parent pointers the bulk loader wires up.
TEST(MTreeBulkLoadProperty, BottomUpQueryEquivalence) {
  EuclideanMetric metric;
  const Dataset dataset = MakeUniformDataset(300, 2, 11);
  MTree bulk_tree(dataset, metric, BulkOptions(8));
  ASSERT_TRUE(bulk_tree.Build().ok());
  for (ObjectId center : {0u, 37u, 299u}) {
    std::vector<Neighbor> top_down, bottom_up;
    bulk_tree.RangeQueryAround(center, 0.15, QueryFilter::kAll, false,
                               &top_down);
    bulk_tree.RangeQueryBottomUp(center, 0.15, QueryFilter::kAll, false,
                                 /*stop_at_grey=*/false, &bottom_up);
    EXPECT_EQ(SortedIds(top_down), SortedIds(bottom_up)) << center;
  }
}

TEST(MTreeBulkLoad, NeighborCountsMatchInsertPath) {
  EuclideanMetric metric;
  const Dataset dataset = MakeClusteredDataset(250, 2, 9);
  const double radius = 0.08;
  std::vector<uint32_t> insert_counts, bulk_counts;
  MTree insert_tree(dataset, metric, InsertOptions(16));
  MTree bulk_tree(dataset, metric, BulkOptions(16));
  ASSERT_TRUE(
      insert_tree.BuildWithNeighborCounts(radius, &insert_counts).ok());
  ASSERT_TRUE(bulk_tree.BuildWithNeighborCounts(radius, &bulk_counts).ok());
  EXPECT_EQ(insert_counts, bulk_counts);
  ASSERT_TRUE(bulk_tree.Validate().ok());
}

TEST(MTreeBulkLoad, LeafChainEnumeratesEveryObjectOnce) {
  EuclideanMetric metric;
  const Dataset dataset = MakeUniformDataset(333, 2, 3);
  MTree tree(dataset, metric, BulkOptions(7));
  ASSERT_TRUE(tree.Build().ok());
  std::vector<ObjectId> order = tree.LeafOrder();
  ASSERT_EQ(order.size(), dataset.size());
  std::sort(order.begin(), order.end());
  for (ObjectId id = 0; id < dataset.size(); ++id) EXPECT_EQ(order[id], id);
}

TEST(MTreeBulkLoad, SingleLeafWhenEverythingFits) {
  EuclideanMetric metric;
  const Dataset dataset = MakeUniformDataset(40, 2, 2);
  MTree tree(dataset, metric, BulkOptions(50));
  ASSERT_TRUE(tree.Build().ok());
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_EQ(tree.height(), 1u);
  ASSERT_TRUE(tree.Validate().ok());
}

TEST(MTreeBulkLoad, SinglePointDataset) {
  EuclideanMetric metric;
  const Dataset dataset = MakeUniformDataset(1, 2, 2);
  MTree tree(dataset, metric, BulkOptions(2));
  ASSERT_TRUE(tree.Build().ok());
  ASSERT_TRUE(tree.Validate().ok());
  std::vector<Neighbor> found;
  tree.RangeQueryAround(0, 1.0, QueryFilter::kAll, false, &found);
  EXPECT_TRUE(found.empty());
}

// All-coincident points defeat nearest-seed clustering (every assignment
// lands on one seed); the loader must fall back to positional splitting and
// still produce a valid tree.
TEST(MTreeBulkLoad, DuplicatePointsFallBackToPositionalSplit) {
  Dataset dataset(2);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(dataset.Add(Point{0.5, 0.5}).ok());
  }
  EuclideanMetric metric;
  MTree tree(dataset, metric, BulkOptions(4));
  ASSERT_TRUE(tree.Build().ok());
  ASSERT_TRUE(tree.Validate().ok()) << tree.Validate().ToString();
  std::vector<Neighbor> found;
  tree.RangeQueryAround(0, 0.0, QueryFilter::kAll, false, &found);
  EXPECT_EQ(found.size(), 299u);
}

TEST(MTreeBulkLoad, HammingMetricWorkload) {
  // Categorical coordinates + Hamming distance: many ties, integer
  // distances — a stress case for seed assignment.
  Dataset dataset(3);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(dataset
                    .Add(Point{static_cast<double>(i % 4),
                               static_cast<double>((i / 4) % 5),
                               static_cast<double>(i % 3)})
                    .ok());
  }
  HammingMetric metric;
  MTree insert_tree(dataset, metric, InsertOptions(8));
  MTree bulk_tree(dataset, metric, BulkOptions(8));
  ASSERT_TRUE(insert_tree.Build().ok());
  ASSERT_TRUE(bulk_tree.Build().ok());
  ASSERT_TRUE(bulk_tree.Validate().ok()) << bulk_tree.Validate().ToString();
  for (ObjectId center : {0u, 99u, 199u}) {
    std::vector<Neighbor> from_insert, from_bulk;
    insert_tree.RangeQueryAround(center, 2.0, QueryFilter::kAll, false,
                                 &from_insert);
    bulk_tree.RangeQueryAround(center, 2.0, QueryFilter::kAll, false,
                               &from_bulk);
    EXPECT_EQ(SortedIds(from_insert), SortedIds(from_bulk)) << center;
  }
}

TEST(MTreeBulkLoad, RejectsSamePreconditionsAsInsertBuild) {
  EuclideanMetric metric;
  {
    Dataset empty;
    MTree tree(empty, metric, BulkOptions());
    EXPECT_EQ(tree.Build().code(), StatusCode::kInvalidArgument);
  }
  {
    Dataset dataset = MakeUniformDataset(10, 2, 1);
    MTree tree(dataset, metric, BulkOptions(1));
    EXPECT_EQ(tree.Build().code(), StatusCode::kInvalidArgument);
  }
  {
    Dataset dataset = MakeUniformDataset(10, 2, 1);
    MTree tree(dataset, metric, BulkOptions());
    ASSERT_TRUE(tree.Build().ok());
    EXPECT_EQ(tree.Build().code(), StatusCode::kFailedPrecondition);
  }
}

TEST(MTreeBulkLoad, DeterministicForFixedSeed) {
  EuclideanMetric metric;
  const Dataset dataset = MakeClusteredDataset(500, 2, 13);
  MTree a(dataset, metric, BulkOptions(10, 99));
  MTree b(dataset, metric, BulkOptions(10, 99));
  ASSERT_TRUE(a.Build().ok());
  ASSERT_TRUE(b.Build().ok());
  EXPECT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.LeafOrder(), b.LeafOrder());
}

// The bulk load is a pure function of (dataset, options): two builds give
// the same tree — node count, leaf chain, fat-factor, and construction
// stats — and both validate.
TEST(MTreeBulkLoad, BuildIsDeterministic) {
  EuclideanMetric metric;
  for (uint64_t seed : {13u, 99u}) {
    for (size_t n : {120u, 700u}) {
      for (size_t capacity : {4u, 25u}) {
        const Dataset dataset = MakeClusteredDataset(n, 2, seed);
        MTree first(dataset, metric, BulkOptions(capacity, seed));
        MTree second(dataset, metric, BulkOptions(capacity, seed));
        ASSERT_TRUE(first.Build().ok());
        ASSERT_TRUE(second.Build().ok());
        const std::string label = "seed=" + std::to_string(seed) +
                                  " n=" + std::to_string(n) +
                                  " cap=" + std::to_string(capacity);
        EXPECT_EQ(first.num_nodes(), second.num_nodes()) << label;
        EXPECT_EQ(first.LeafOrder(), second.LeafOrder()) << label;
        EXPECT_EQ(first.FatFactor(), second.FatFactor()) << label;
        EXPECT_TRUE(first.stats() == second.stats()) << label;
        EXPECT_TRUE(first.Validate().ok())
            << label << ": " << first.Validate().ToString();
      }
    }
  }
}

// Colors, the §5.1 pruning rule, and the greedy algorithms must behave on a
// bulk-loaded tree exactly as on an insert-built one: same solution, still a
// verified r-DisC diverse subset.
TEST(MTreeBulkLoad, GreedyDiscSolutionsMatchAndVerify) {
  EuclideanMetric metric;
  const Dataset dataset = MakeClusteredDataset(400, 2, 17);
  const double radius = 0.1;
  MTree insert_tree(dataset, metric, InsertOptions(16));
  MTree bulk_tree(dataset, metric, BulkOptions(16));
  ASSERT_TRUE(insert_tree.Build().ok());
  ASSERT_TRUE(bulk_tree.Build().ok());

  DiscResult from_insert = GreedyDisc(&insert_tree, radius);
  DiscResult from_bulk = GreedyDisc(&bulk_tree, radius);
  // Greedy-DisC is deterministic given the neighborhood structure, which is
  // identical for both trees (ties break on object id, not tree shape).
  EXPECT_EQ(from_insert.solution, from_bulk.solution);
  EXPECT_TRUE(
      VerifyDisCDiverse(dataset, metric, radius, from_bulk.solution).ok());
  ASSERT_TRUE(bulk_tree.Validate().ok()) << bulk_tree.Validate().ToString();
}

TEST(MTreeBulkLoad, IndexBackedNeighborhoodGraphMatchesDirectBuild) {
  EuclideanMetric metric;
  const Dataset dataset = MakeClusteredDataset(350, 2, 21);
  const double radius = 0.07;
  const NeighborhoodGraph direct(dataset, metric, radius);

  for (BuildStrategy strategy :
       {BuildStrategy::kInsertAtATime, BuildStrategy::kBulkLoad}) {
    MTreeOptions options;
    options.node_capacity = 16;
    options.build.strategy = strategy;
    MTree tree(dataset, metric, options);
    const Status built = tree.Build();
    ASSERT_TRUE(built.ok()) << built.ToString();
    const CsrAdjacency indexed = tree.BuildNeighborhoods(radius);
    ASSERT_EQ(indexed.size(), direct.num_vertices());
    EXPECT_EQ(indexed.num_edges(), direct.num_edges());
    for (ObjectId v = 0; v < direct.num_vertices(); ++v) {
      EXPECT_TRUE(std::ranges::equal(indexed.row(v), direct.neighbors(v)))
          << "strategy=" << BuildStrategyToString(strategy) << " v=" << v;
    }
  }
}

}  // namespace
}  // namespace disc
