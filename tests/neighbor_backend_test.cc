// Property tests for the pluggable neighbor backends (neighbor/backend.h).
//
// The contracts under test:
//  * both backends (exact, grid): the adjacency structure is byte-identical
//    to NeighborhoodGraph's own build paths, at every thread count — the
//    fan-out may not change a single id;
//  * the exact-point guardrail: above max_exact_points the slower kind for
//    the input (exact where the grid applies, grid where it would fall back
//    to the O(n^2) scan) is refused with InvalidArgument naming the other;
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
#include "neighbor/adjacency.h"
#include "neighbor/exact_backend.h"
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

CsrAdjacency BuildLists(const NeighborBackend& backend, double radius,
                        ThreadPool* pool = nullptr) {
  auto adjacency = backend.BuildNeighborhoods(radius, pool);
  EXPECT_TRUE(adjacency.ok()) << adjacency.status().ToString();
  return adjacency.ok() ? std::move(adjacency).value() : CsrAdjacency();
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
// Names and cache keys
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

TEST(NeighborBackendTest, CacheKeyCarriesEveryResultChangingKnob) {
  EXPECT_EQ(NeighborBackendCacheKey(Options(NeighborBackendKind::kExact)),
            "exact");
  EXPECT_EQ(NeighborBackendCacheKey(Options(NeighborBackendKind::kGrid)),
            "grid");
}

// ---------------------------------------------------------------------------
// Both kinds: byte-identical to the graph layer at every thread count
// ---------------------------------------------------------------------------

TEST(NeighborBackendTest, BothKindsMatchGraphLayerAtEveryThreadCount) {
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
    for (NeighborBackendKind kind :
         {NeighborBackendKind::kExact, NeighborBackendKind::kGrid}) {
      if (input.dataset.size() == 0 && kind == NeighborBackendKind::kExact) {
        // The M-tree-backed kind refuses an empty dataset by design.
        EXPECT_FALSE(
            CreateNeighborBackend(input.dataset, metric, Options(kind)).ok());
        continue;
      }
      auto backend = MustCreate(input.dataset, metric, Options(kind));
      ASSERT_NE(backend, nullptr) << input.name;
      for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
        std::unique_ptr<ThreadPool> pool =
            threads > 1 ? std::make_unique<ThreadPool>(threads) : nullptr;
        CsrAdjacency lists = BuildLists(*backend, input.radius, pool.get());
        EXPECT_TRUE(lists == oracle)
            << input.name << ": " << NeighborBackendKindToString(kind)
            << " at " << threads << " threads diverged from the graph layer";
      }
    }
  }
}

TEST(NeighborBackendTest, FromBackendReproducesDirectGraphForBothKinds) {
  const Dataset dataset = MakeUniformDataset(800, 3, 5);
  EuclideanMetric metric;
  const double radius = 0.12;
  NeighborhoodGraph direct(dataset, metric, radius);

  for (NeighborBackendKind kind :
       {NeighborBackendKind::kExact, NeighborBackendKind::kGrid}) {
    auto backend = MustCreate(dataset, metric, Options(kind));
    ASSERT_NE(backend, nullptr);
    auto graph = NeighborhoodGraph::FromBackend(*backend, radius);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    ASSERT_EQ(graph->num_vertices(), direct.num_vertices());
    EXPECT_EQ(graph->num_edges(), direct.num_edges());
    EXPECT_TRUE(graph->adjacency() == direct.adjacency())
        << NeighborBackendKindToString(kind);
  }
}

TEST(NeighborBackendTest, ExactKindBulkLoadsThePaperDefaultTree) {
  const Dataset dataset = MakeClusteredDataset(600, 2, 3);
  EuclideanMetric metric;
  auto backend =
      MustCreate(dataset, metric, Options(NeighborBackendKind::kExact));
  ASSERT_NE(backend, nullptr);
  const MTree& tree = static_cast<const ExactMTreeBackend&>(*backend).tree();
  EXPECT_EQ(tree.options().build.strategy, BuildStrategy::kBulkLoad);
  EXPECT_EQ(tree.options().node_capacity, 50u);
}

TEST(NeighborBackendTest, BuildChargesOneRangeQueryPerObject) {
  const Dataset dataset = MakeClusteredDataset(600, 2, 3);
  EuclideanMetric metric;
  for (NeighborBackendKind kind :
       {NeighborBackendKind::kExact, NeighborBackendKind::kGrid}) {
    auto backend = MustCreate(dataset, metric, Options(kind));
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->stats().range_queries, 0u)
        << "construction stays out of the accounting";
    BuildLists(*backend, 0.05);
    const AccessStats serial = backend->stats();
    EXPECT_EQ(serial.range_queries, dataset.size())
        << NeighborBackendKindToString(kind);
    EXPECT_GT(serial.distance_computations, 0u);

    backend->ResetStats();
    ThreadPool pool(4);
    BuildLists(*backend, 0.05, &pool);
    EXPECT_TRUE(backend->stats() == serial)
        << NeighborBackendKindToString(kind)
        << ": totals depend on the thread count";
  }
}

// ---------------------------------------------------------------------------
// The exact-point cap
// ---------------------------------------------------------------------------

TEST(NeighborBackendTest, ExactBackendRefusesDatasetsAboveTheCap) {
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
  auto exact = MustCreate(wide, metric, capped);
  ASSERT_NE(exact, nullptr);
  EXPECT_TRUE(BuildLists(*exact, 0.1) == OracleLists(wide, metric, 0.1));
}

TEST(NeighborBackendTest, GridBackendCapAppliesOnlyWhenGridCannotApply) {
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
