// Property tests for the G_r builders: graph mode's NeighborBackend
// (neighbor/backend.h) and the index-backed MTree::BuildNeighborhoods.
//
// The contracts under test:
//  * both builders: the adjacency structure is byte-identical to
//    NeighborhoodGraph's direct build, at every thread count — the fan-out
//    may not change a single id — for insert-built and bulk-built trees;
//  * the exact-point guardrail: above max_exact_points the slower kind for
//    the input (exact where the grid applies, grid where it would fall back
//    to the O(n^2) scan) is refused with InvalidArgument naming the other;
//    CreateNeighborBackend refuses the exact kind, whose M-tree engine
//    DiscEngine::Create builds itself;
//  * stats accounting: a build charges one range_queries unit per object,
//    with totals identical at every thread count.

#include "neighbor/backend.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/generators.h"
#include "graph/neighborhood.h"
#include "metric/metric.h"
#include "mtree/mtree.h"
#include "neighbor/adjacency.h"
#include "util/parallel.h"

namespace disc {
namespace {

NeighborBackendOptions Options(NeighborBackendKind kind) {
  NeighborBackendOptions options;
  options.kind = kind;
  return options;
}

std::unique_ptr<NeighborBackend> MustCreate(
    const Dataset& dataset, const DistanceMetric& metric,
    const NeighborBackendOptions& options) {
  auto backend = CreateNeighborBackend(dataset, metric, options);
  EXPECT_TRUE(backend.ok()) << backend.status().ToString();
  return backend.ok() ? std::move(backend).value() : nullptr;
}

/// A built tree over `dataset` with the given construction path and stats
/// reset, or null (with a failure) when the build fails.
std::unique_ptr<MTree> MustBuildTree(const Dataset& dataset,
                                     const DistanceMetric& metric,
                                     BuildStrategy strategy) {
  MTreeOptions options;
  options.build.strategy = strategy;
  auto tree = std::make_unique<MTree>(dataset, metric, options);
  const Status built = tree->Build();
  EXPECT_TRUE(built.ok()) << built.ToString();
  if (!built.ok()) return nullptr;
  tree->ResetStats();
  return tree;
}

/// The ground-truth adjacency structure, straight from the graph layer.
CsrAdjacency OracleLists(const Dataset& dataset, const DistanceMetric& metric,
                         double radius) {
  return NeighborhoodGraph(dataset, metric, radius).adjacency();
}

/// `dataset` with its first and last points moved far from everything.
Dataset WithIsolatedEnds(const Dataset& dataset) {
  Dataset moved(dataset.dim());
  for (ObjectId i = 0; i < dataset.size(); ++i) {
    Point point = dataset.point(i);
    if (i == 0 || i + 1 == dataset.size()) {
      for (size_t d = 0; d < dataset.dim(); ++d) point[d] = i == 0 ? -5 : 5;
    }
    EXPECT_TRUE(moved.Add(point).ok());
  }
  return moved;
}

/// `dataset` followed by a second copy of every point.
Dataset Doubled(const Dataset& dataset) {
  Dataset doubled(dataset.dim());
  for (int copy = 0; copy < 2; ++copy) {
    for (ObjectId i = 0; i < dataset.size(); ++i) {
      EXPECT_TRUE(doubled.Add(dataset.point(i)).ok());
    }
  }
  return doubled;
}

/// `dataset` scaled into [0, scale)^dim.
Dataset Scaled(const Dataset& dataset, double scale) {
  Dataset scaled(dataset.dim());
  for (ObjectId i = 0; i < dataset.size(); ++i) {
    Point point = dataset.point(i);
    for (size_t d = 0; d < dataset.dim(); ++d) point[d] *= scale;
    EXPECT_TRUE(scaled.Add(point).ok());
  }
  return scaled;
}

// ---------------------------------------------------------------------------
// Names
// ---------------------------------------------------------------------------

TEST(NeighborBackendTest, KindNamesRoundTripThroughParse) {
  for (NeighborBackendKind kind :
       {NeighborBackendKind::kExact, NeighborBackendKind::kGrid}) {
    auto parsed = ParseNeighborBackendKind(NeighborBackendKindToString(kind));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(*parsed, kind);
  }
  // "sharded" named a backend that no longer exists.
  for (const char* name : {"bogus", "sharded"}) {
    auto unknown = ParseNeighborBackendKind(name);
    ASSERT_FALSE(unknown.ok()) << name;
    EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(unknown.status().message().find("want one of: exact, grid)"),
              std::string::npos)
        << unknown.status().ToString();
  }
}

// ---------------------------------------------------------------------------
// Both builders: byte-identical to the graph layer at every thread count
// ---------------------------------------------------------------------------

TEST(NeighborBackendTest, BothBuildersMatchGraphLayerAtEveryThreadCount) {
  EuclideanMetric metric;
  struct Input {
    std::string name;
    Dataset dataset;
    double radius;
  };
  // The paper workload plus the CSR edge cases: empty and single-vertex
  // inputs, either side of the grid threshold, isolated first and last
  // vertices, duplicate points at radius 0, one grid cell, and dim 4, where
  // the grid falls back to the O(n^2) scan.
  std::vector<Input> inputs;
  inputs.push_back({"clustered", MakeClusteredDataset(1200, 2, 17), 0.05});
  inputs.push_back({"n=0", Dataset(2), 0.05});
  inputs.push_back({"n=1", MakeUniformDataset(1, 2, 17), 0.05});
  inputs.push_back({"n=255", MakeClusteredDataset(255, 2, 17), 0.05});
  inputs.push_back({"n=256", MakeClusteredDataset(256, 2, 17), 0.05});
  inputs.push_back({"isolated-ends",
                    WithIsolatedEnds(MakeClusteredDataset(600, 2, 17)), 0.05});
  inputs.push_back(
      {"duplicates-r0", Doubled(MakeUniformDataset(150, 2, 17)), 0.0});
  inputs.push_back(
      {"one-cell", Scaled(MakeUniformDataset(400, 2, 17), 0.049), 0.05});
  inputs.push_back({"dim-4", MakeClusteredDataset(500, 4, 17), 0.1});

  for (const Input& input : inputs) {
    const CsrAdjacency oracle =
        OracleLists(input.dataset, metric, input.radius);
    ASSERT_TRUE(oracle == BuildAdjacencyBruteForce(input.dataset, metric,
                                                   input.radius, nullptr))
        << input.name << ": the graph layer differs from brute force";
    const NeighborBackend backend(input.dataset, metric);
    std::unique_ptr<MTree> tree;
    if (input.dataset.size() == 0) {
      // The M-tree refuses an empty dataset by design.
      MTree empty(input.dataset, metric);
      EXPECT_FALSE(empty.Build().ok());
    } else {
      tree = MustBuildTree(input.dataset, metric, BuildStrategy::kBulkLoad);
      ASSERT_NE(tree, nullptr) << input.name;
    }
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      std::unique_ptr<ThreadPool> pool =
          threads > 1 ? std::make_unique<ThreadPool>(threads) : nullptr;
      EXPECT_TRUE(backend.BuildNeighborhoods(input.radius, pool.get()) ==
                  oracle)
          << input.name << ": grid at " << threads
          << " threads diverged from the graph layer";
      if (tree != nullptr) {
        EXPECT_TRUE(tree->BuildNeighborhoods(input.radius, pool.get()) ==
                    oracle)
            << input.name << ": M-tree at " << threads
            << " threads diverged from the graph layer";
      }
    }
  }
}

TEST(NeighborBackendTest, BothBuildersReproduceTheDirectGraph) {
  const Dataset dataset = MakeUniformDataset(800, 3, 5);
  EuclideanMetric metric;
  const double radius = 0.12;
  NeighborhoodGraph direct(dataset, metric, radius);

  auto backend =
      MustCreate(dataset, metric, Options(NeighborBackendKind::kGrid));
  ASSERT_NE(backend, nullptr);
  auto graph = NeighborhoodGraph::FromBackend(*backend, radius);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  ASSERT_EQ(graph->num_vertices(), direct.num_vertices());
  EXPECT_EQ(graph->num_edges(), direct.num_edges());
  EXPECT_TRUE(graph->adjacency() == direct.adjacency());

  for (BuildStrategy strategy :
       {BuildStrategy::kInsertAtATime, BuildStrategy::kBulkLoad}) {
    auto tree = MustBuildTree(dataset, metric, strategy);
    ASSERT_NE(tree, nullptr);
    const CsrAdjacency indexed = tree->BuildNeighborhoods(radius);
    ASSERT_EQ(indexed.size(), direct.num_vertices());
    EXPECT_EQ(indexed.num_edges(), direct.num_edges());
    EXPECT_TRUE(indexed == direct.adjacency())
        << BuildStrategyToString(strategy);
  }
}

TEST(NeighborBackendTest, CreateRefusesTheExactKind) {
  const Dataset dataset = MakeClusteredDataset(600, 2, 3);
  EuclideanMetric metric;
  auto exact = CreateNeighborBackend(dataset, metric,
                                     Options(NeighborBackendKind::kExact));
  ASSERT_FALSE(exact.ok());
  EXPECT_EQ(exact.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(exact.status().message().find("M-tree session engine"),
            std::string::npos)
      << exact.status().ToString();

  auto grid =
      MustCreate(dataset, metric, Options(NeighborBackendKind::kGrid));
  ASSERT_NE(grid, nullptr);
  EXPECT_STREQ(grid->name(), "grid");
}

TEST(NeighborBackendTest, BuildChargesOneRangeQueryPerObject) {
  const Dataset dataset = MakeClusteredDataset(600, 2, 3);
  EuclideanMetric metric;
  const NeighborBackend backend(dataset, metric);
  EXPECT_EQ(backend.stats().range_queries, 0u)
      << "construction stays out of the accounting";
  backend.BuildNeighborhoods(0.05, nullptr);
  const AccessStats serial = backend.stats();
  EXPECT_EQ(serial.range_queries, dataset.size());
  EXPECT_GT(serial.distance_computations, 0u);

  backend.ResetStats();
  ThreadPool pool(4);
  backend.BuildNeighborhoods(0.05, &pool);
  EXPECT_TRUE(backend.stats() == serial)
      << "grid: totals depend on the thread count";
}

TEST(NeighborBackendTest, TreeBuildChargesOneRangeQueryPerObject) {
  const Dataset dataset = MakeClusteredDataset(600, 2, 3);
  EuclideanMetric metric;
  const double radius = 0.05;
  for (BuildStrategy strategy :
       {BuildStrategy::kInsertAtATime, BuildStrategy::kBulkLoad}) {
    auto tree = MustBuildTree(dataset, metric, strategy);
    ASSERT_NE(tree, nullptr);
    const CsrAdjacency serial_rows = tree->BuildNeighborhoods(radius);
    const AccessStats serial = tree->stats();
    EXPECT_EQ(serial.range_queries, dataset.size());
    EXPECT_GT(serial.node_accesses, 0u);
    EXPECT_GT(serial.distance_computations, 0u);

    // The counts pass runs the same queries: same degrees, same charge.
    tree->ResetStats();
    std::vector<uint32_t> counts;
    tree->ComputeNeighborCountsPostBuild(radius, &counts);
    EXPECT_TRUE(tree->stats() == serial) << BuildStrategyToString(strategy);
    for (ObjectId v = 0; v < dataset.size(); ++v) {
      ASSERT_EQ(counts[v], serial_rows.degree(v)) << "v=" << v;
    }

    for (size_t threads : {size_t{2}, size_t{4}}) {
      tree->ResetStats();
      ThreadPool pool(threads);
      EXPECT_TRUE(tree->BuildNeighborhoods(radius, &pool) == serial_rows)
          << BuildStrategyToString(strategy) << " at " << threads
          << " threads";
      EXPECT_TRUE(tree->stats() == serial)
          << BuildStrategyToString(strategy) << " at " << threads
          << " threads: totals depend on the thread count";
    }
  }
}

// ---------------------------------------------------------------------------
// The exact-point cap
// ---------------------------------------------------------------------------

TEST(NeighborBackendTest, ExactKindRefusesDatasetsAboveTheCap) {
  const Dataset dataset = MakeUniformDataset(500, 2, 2);
  EuclideanMetric metric;
  NeighborBackendOptions capped = Options(NeighborBackendKind::kExact);
  capped.max_exact_points = 499;
  auto backend = CreateNeighborBackend(dataset, metric, capped);
  ASSERT_FALSE(backend.ok());
  EXPECT_EQ(backend.status().code(), StatusCode::kInvalidArgument);
  // 2-D Euclidean: the refusal names the grid, which applies here.
  EXPECT_NE(backend.status().message().find("use the grid neighbor backend"),
            std::string::npos)
      << backend.status().ToString();

  // The grid is the supported way past the cap here.
  NeighborBackendOptions grid = Options(NeighborBackendKind::kGrid);
  grid.max_exact_points = 499;
  EXPECT_NE(MustCreate(dataset, metric, grid), nullptr);

  // Where the grid does not apply the M-tree is the faster exact path, so
  // the same cap admits the exact kind.
  const Dataset wide = MakeClusteredDataset(400, 4, 2);
  capped.max_exact_points = 300;
  EXPECT_TRUE(CheckExactPointCap(wide, metric, capped).ok());
  auto tree = MustBuildTree(wide, metric, BuildStrategy::kBulkLoad);
  ASSERT_NE(tree, nullptr);
  EXPECT_TRUE(tree->BuildNeighborhoods(0.1) == OracleLists(wide, metric, 0.1));
}

TEST(NeighborBackendTest, GridKindCapAppliesOnlyWhenGridCannotApply) {
  EuclideanMetric euclidean;
  // 2-D Euclidean: the grid accelerator applies, so the cap is moot.
  const Dataset flat = MakeUniformDataset(600, 2, 4);
  NeighborBackendOptions capped = Options(NeighborBackendKind::kGrid);
  capped.max_exact_points = 100;
  EXPECT_NE(MustCreate(flat, euclidean, capped), nullptr);

  // Dim 4 keeps the grid out; the same cap now refuses the O(n^2) fallback
  // and names the exact kind, which serves the input.
  const Dataset wide = MakeClusteredDataset(400, 4, 4);
  capped.max_exact_points = 300;
  auto refused = CreateNeighborBackend(wide, euclidean, capped);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.status().message().find(
                "dataset has 400 points, above the exact-backend cap of 300; "
                "the grid would fall back to the O(n^2) scan (euclidean "
                "metric, dim 4), so use the exact neighbor backend"),
            std::string::npos)
      << refused.status().ToString();
}

}  // namespace
}  // namespace disc
