// Property tests for the pluggable neighbor backends (neighbor/backend.h).
//
// The contracts under test:
//  * every backend (exact, grid, sharded): the adjacency structure is
//    byte-identical to NeighborhoodGraph's own build paths, at every thread
//    count — sharding and fan-out may not change a single id;
//  * the exact-family guardrail refuses datasets above max_exact_points
//    with InvalidArgument instead of risking an oversized index or the
//    O(n^2) fallback, and names the over-cap path that applies;
//  * stats accounting: one range_queries unit per logical query regardless
//    of shard fan-out;
//  * the grid backend retains only the latest radius's index, and
//    replacing it never changes a result.

#include "neighbor/backend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "data/generators.h"
#include "graph/neighborhood.h"
#include "metric/metric.h"
#include "neighbor/adjacency.h"
#include "neighbor/grid_backend.h"
#include "neighbor/sharded_backend.h"
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
    const NeighborBackendOptions& options, ThreadPool* pool = nullptr) {
  auto backend = CreateNeighborBackend(dataset, metric, options, pool);
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
       {NeighborBackendKind::kExact, NeighborBackendKind::kGrid,
        NeighborBackendKind::kSharded}) {
    auto parsed = ParseNeighborBackendKind(NeighborBackendKindToString(kind));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(*parsed, kind);
  }
  auto bogus = ParseNeighborBackendKind("bogus");
  ASSERT_FALSE(bogus.ok());
  EXPECT_EQ(bogus.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bogus.status().message().find("exact, grid, or sharded"),
            std::string::npos)
      << bogus.status().ToString();
}

TEST(NeighborBackendTest, CacheKeyCarriesEveryResultChangingKnob) {
  EXPECT_EQ(NeighborBackendCacheKey(Options(NeighborBackendKind::kExact)),
            "exact");
  EXPECT_EQ(NeighborBackendCacheKey(Options(NeighborBackendKind::kGrid)),
            "grid");
  EXPECT_EQ(NeighborBackendCacheKey(Options(NeighborBackendKind::kSharded)),
            "sharded");
}

TEST(NeighborBackendTest, DefaultShardCountIsAPureFunctionOfN) {
  EXPECT_EQ(ShardedBackend::DefaultShardCount(100), 2u);
  EXPECT_EQ(ShardedBackend::DefaultShardCount(4096), 4u);
  EXPECT_EQ(ShardedBackend::DefaultShardCount(32768), 8u);
  EXPECT_EQ(ShardedBackend::DefaultShardCount(262144), 16u);
  EXPECT_EQ(ShardedBackend::DefaultShardCount(1000000), 16u);
}

// ---------------------------------------------------------------------------
// Exact family: byte-identical to the graph layer at every thread count
// ---------------------------------------------------------------------------

TEST(NeighborBackendTest, ExactFamilyMatchesGraphLayerAtEveryThreadCount) {
  EuclideanMetric metric;
  struct Input {
    std::string name;
    Dataset dataset;
    double radius;
  };
  // The paper workload plus the CSR edge cases: empty and single-vertex
  // inputs, either side of the grid threshold, isolated first and last
  // vertices, duplicate points at radius 0, and one grid cell.
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

  for (const Input& input : inputs) {
    const CsrAdjacency oracle =
        OracleLists(input.dataset, metric, input.radius);
    ASSERT_TRUE(oracle == BuildAdjacencyBruteForce(input.dataset, metric,
                                                   input.radius, nullptr))
        << input.name << ": the graph layer differs from brute force";
    for (NeighborBackendKind kind :
         {NeighborBackendKind::kExact, NeighborBackendKind::kGrid,
          NeighborBackendKind::kSharded}) {
      if (input.dataset.size() == 0 && kind != NeighborBackendKind::kGrid) {
        // The M-tree-backed kinds refuse an empty dataset by design.
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

TEST(NeighborBackendTest, FromBackendReproducesDirectGraphForExactKinds) {
  const Dataset dataset = MakeUniformDataset(800, 3, 5);
  EuclideanMetric metric;
  const double radius = 0.12;
  NeighborhoodGraph direct(dataset, metric, radius);

  for (NeighborBackendKind kind :
       {NeighborBackendKind::kExact, NeighborBackendKind::kSharded}) {
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

TEST(NeighborBackendTest, RangeQueryAroundExcludesCenterAndSorts) {
  const Dataset dataset = MakeGridDataset(10);  // 100 points, spacing 1/9
  EuclideanMetric metric;
  for (NeighborBackendKind kind :
       {NeighborBackendKind::kExact, NeighborBackendKind::kGrid,
        NeighborBackendKind::kSharded}) {
    auto backend = MustCreate(dataset, metric, Options(kind));
    ASSERT_NE(backend, nullptr);
    std::vector<ObjectId> out;
    backend->RangeQueryAround(55, 0.115, &out);  // axis neighbors only
    EXPECT_EQ(out, (std::vector<ObjectId>{45, 54, 56, 65}))
        << NeighborBackendKindToString(kind);
  }
}

TEST(NeighborBackendTest, ShardFanOutChargesOneRangeQueryPerCall) {
  const Dataset dataset = MakeClusteredDataset(600, 2, 3);
  EuclideanMetric metric;
  auto created = ShardedBackend::Create(dataset, metric, 6);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<ShardedBackend> backend = std::move(created).value();
  backend->ResetStats();
  std::vector<ObjectId> out;
  backend->RangeQueryAround(0, 0.05, &out);
  backend->RangeQueryAround(1, 0.05, &out);
  EXPECT_EQ(backend->stats().range_queries, 2u)
      << "fan-out across 6 shards must still count as one logical query";
}

TEST(NeighborBackendTest, OnlyTheLatestRadiusIndexIsRetained) {
  const Dataset dataset = MakeClusteredDataset(800, 2, 19);
  EuclideanMetric metric;
  const std::vector<double> radii = {0.02, 0.03, 0.04, 0.05, 0.06, 0.07};

  // Point queries are what build the grid's cell index.
  auto grid = MustCreate(dataset, metric, Options(NeighborBackendKind::kGrid));
  ASSERT_NE(grid, nullptr);
  const auto& grid_backend = static_cast<const GridBackend&>(*grid);
  EXPECT_EQ(grid_backend.index_radius(), std::nullopt);
  const CsrAdjacency direct = OracleLists(dataset, metric, radii.front());
  std::vector<ObjectId> out;
  for (int round = 0; round < 2; ++round) {
    for (double radius : radii) {
      grid->RangeQueryAround(7, radius, &out);
      EXPECT_EQ(grid_backend.index_radius(), radius);
    }
  }
  for (ObjectId v = 0; v < dataset.size(); ++v) {
    grid->RangeQueryAround(v, radii.front(), &out);
    ASSERT_TRUE(std::ranges::equal(out, direct.row(v))) << "vertex " << v;
  }
  EXPECT_EQ(grid_backend.index_radius(), radii.front());
}

// ---------------------------------------------------------------------------
// The exact-family guardrail
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

  // Grid and sharded are the supported ways past the cap.
  for (NeighborBackendKind kind :
       {NeighborBackendKind::kGrid, NeighborBackendKind::kSharded}) {
    NeighborBackendOptions exempt = Options(kind);
    exempt.max_exact_points = 499;
    EXPECT_NE(MustCreate(dataset, metric, exempt), nullptr)
        << NeighborBackendKindToString(kind);
  }

  // Where the grid does not apply, the refusal names sharded instead.
  const Dataset wide = MakeUniformDataset(500, 4, 2);
  auto wide_refused = CreateNeighborBackend(wide, metric, capped);
  ASSERT_FALSE(wide_refused.ok());
  EXPECT_NE(wide_refused.status().message().find(
                "use the sharded neighbor backend"),
            std::string::npos)
      << wide_refused.status().ToString();
}

TEST(NeighborBackendTest, GridBackendCapAppliesOnlyWhenGridCannotApply) {
  EuclideanMetric euclidean;
  // 2-D Euclidean: the grid accelerator applies, so the cap is moot.
  const Dataset flat = MakeUniformDataset(600, 2, 4);
  NeighborBackendOptions capped = Options(NeighborBackendKind::kGrid);
  capped.max_exact_points = 100;
  EXPECT_NE(MustCreate(flat, euclidean, capped), nullptr);

  // Dim 4 keeps the grid out; the same cap now refuses the O(n^2) fallback.
  const Dataset wide = MakeUniformDataset(600, 4, 4);
  auto refused = CreateNeighborBackend(wide, euclidean, capped);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.status().message().find(
                "the grid would fall back to the O(n^2) scan (euclidean "
                "metric, dim 4), so use the sharded neighbor backend"),
            std::string::npos)
      << refused.status().ToString();
}

}  // namespace
}  // namespace disc
