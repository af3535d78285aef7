// Property tests for the pluggable neighbor backends (neighbor/backend.h).
//
// The contracts under test (ISSUE 8):
//  * exact family (exact, grid, sharded-with-exact-shards): the adjacency
//    structure is byte-identical to NeighborhoodGraph's own build paths, at
//    every thread count — sharding and fan-out may not change a single id;
//  * LSH family: deterministic for a fixed seed, always a SUBSET of the true
//    neighbor sets (candidates are distance-verified), and recall on the
//    paper workloads clears the documented default-config floor;
//  * lsh-sharded equals unsharded lsh byte-for-byte (same seed per shard);
//  * the exact-family guardrail refuses datasets above max_exact_points
//    with InvalidArgument instead of risking the O(n^2) fallback;
//  * stats accounting: one range_queries unit per logical query regardless
//    of shard fan-out;
//  * the grid and LSH backends retain only the latest radius's index, and
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
#include "eval/neighbor_eval.h"
#include "graph/neighborhood.h"
#include "metric/metric.h"
#include "neighbor/adjacency.h"
#include "neighbor/grid_backend.h"
#include "neighbor/lsh_backend.h"
#include "neighbor/sharded_backend.h"
#include "util/parallel.h"

namespace disc {
namespace {

NeighborBackendOptions Options(NeighborBackendKind kind, size_t shards = 0) {
  NeighborBackendOptions options;
  options.kind = kind;
  options.shards = shards;
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
        NeighborBackendKind::kLsh, NeighborBackendKind::kSharded,
        NeighborBackendKind::kLshSharded}) {
    auto parsed = ParseNeighborBackendKind(NeighborBackendKindToString(kind));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(*parsed, kind);
  }
  auto bogus = ParseNeighborBackendKind("bogus");
  ASSERT_FALSE(bogus.ok());
  EXPECT_EQ(bogus.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bogus.status().message().find("lsh-sharded"), std::string::npos)
      << bogus.status().ToString();
}

TEST(NeighborBackendTest, ExactnessPredicateMatchesTheLshFamily) {
  EXPECT_TRUE(NeighborBackendIsExact(NeighborBackendKind::kExact));
  EXPECT_TRUE(NeighborBackendIsExact(NeighborBackendKind::kGrid));
  EXPECT_TRUE(NeighborBackendIsExact(NeighborBackendKind::kSharded));
  EXPECT_FALSE(NeighborBackendIsExact(NeighborBackendKind::kLsh));
  EXPECT_FALSE(NeighborBackendIsExact(NeighborBackendKind::kLshSharded));
}

TEST(NeighborBackendTest, CacheKeyCarriesEveryResultChangingKnob) {
  EXPECT_EQ(NeighborBackendCacheKey(Options(NeighborBackendKind::kExact)),
            "exact");
  EXPECT_EQ(NeighborBackendCacheKey(Options(NeighborBackendKind::kGrid)),
            "grid");
  EXPECT_EQ(NeighborBackendCacheKey(Options(NeighborBackendKind::kLsh)),
            "lsh:t6:h4:p8:w4:s42");
  EXPECT_EQ(NeighborBackendCacheKey(Options(NeighborBackendKind::kSharded)),
            "sharded");
  EXPECT_EQ(
      NeighborBackendCacheKey(Options(NeighborBackendKind::kSharded, 8)),
      "sharded:n8");
  NeighborBackendOptions tuned = Options(NeighborBackendKind::kLshSharded, 4);
  tuned.lsh.tables = 3;
  tuned.lsh.seed = 7;
  EXPECT_EQ(NeighborBackendCacheKey(tuned), "lsh-sharded:t3:h4:p8:w4:s7:n4");
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
    auto backend = MustCreate(dataset, metric, Options(kind, 4));
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
  auto backend =
      MustCreate(dataset, metric, Options(NeighborBackendKind::kSharded, 6));
  ASSERT_NE(backend, nullptr);
  backend->ResetStats();
  std::vector<ObjectId> out;
  backend->RangeQueryAround(0, 0.05, &out);
  backend->RangeQueryAround(1, 0.05, &out);
  EXPECT_EQ(backend->stats().range_queries, 2u)
      << "fan-out across 6 shards must still count as one logical query";
}

// ---------------------------------------------------------------------------
// LSH family: determinism, subset-of-truth, recall, sharding transparency
// ---------------------------------------------------------------------------

TEST(NeighborBackendTest, LshIsDeterministicForAFixedSeed) {
  const Dataset dataset = MakeClusteredDataset(1500, 2, 23);
  EuclideanMetric metric;
  const double radius = 0.04;
  auto first = MustCreate(dataset, metric, Options(NeighborBackendKind::kLsh));
  auto second =
      MustCreate(dataset, metric, Options(NeighborBackendKind::kLsh));
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_TRUE(BuildLists(*first, radius) == BuildLists(*second, radius));

  NeighborBackendOptions reseeded = Options(NeighborBackendKind::kLsh);
  reseeded.lsh.seed = 1234;
  auto other = MustCreate(dataset, metric, reseeded);
  ASSERT_NE(other, nullptr);
  // The graphs themselves may coincide (both seeds can reach full recall on
  // an easy workload), so seed sensitivity is asserted where it is a hard
  // invariant: the memo identity, and the work the hash family induces.
  EXPECT_NE(NeighborBackendCacheKey(Options(NeighborBackendKind::kLsh)),
            NeighborBackendCacheKey(reseeded));
  first->ResetStats();
  other->ResetStats();
  BuildLists(*first, radius);
  BuildLists(*other, radius);
  EXPECT_NE(first->stats().distance_computations,
            other->stats().distance_computations)
      << "a different hash family must induce different candidate sets";
}

TEST(NeighborBackendTest, LshReportsOnlyTrueNeighborsAndClearsRecallFloor) {
  const Dataset dataset = MakeClusteredDataset(2000, 2, 42);
  EuclideanMetric metric;
  const double radius = 0.04;
  const CsrAdjacency oracle = OracleLists(dataset, metric, radius);
  auto lsh = MustCreate(dataset, metric, Options(NeighborBackendKind::kLsh));
  ASSERT_NE(lsh, nullptr);
  const CsrAdjacency lists = BuildLists(*lsh, radius);

  AdjacencyComparison comparison = CompareAdjacency(oracle, lists);
  EXPECT_EQ(comparison.false_edges, 0u)
      << "distance verification must keep every reported edge true";
  EXPECT_GE(comparison.recall, 0.9)
      << "default LSH config under the documented floor: "
      << comparison.missing_edges << "/" << comparison.oracle_edges
      << " edges missed";
}

TEST(NeighborBackendTest, LshShardedEqualsUnshardedLshByteForByte) {
  const Dataset dataset = MakeClusteredDataset(1800, 2, 11);
  EuclideanMetric metric;
  const double radius = 0.045;
  auto lsh = MustCreate(dataset, metric, Options(NeighborBackendKind::kLsh));
  auto sharded = MustCreate(dataset, metric,
                            Options(NeighborBackendKind::kLshSharded, 4));
  ASSERT_NE(lsh, nullptr);
  ASSERT_NE(sharded, nullptr);
  // Same seed => same hash family in every shard => identical unions; the
  // property that makes the shard count a pure capacity knob.
  EXPECT_TRUE(BuildLists(*lsh, radius) == BuildLists(*sharded, radius));
}

TEST(NeighborBackendTest, LshAdjacencyIsSymmetric) {
  const Dataset dataset = MakeUniformDataset(1000, 2, 31);
  EuclideanMetric metric;
  auto lsh = MustCreate(dataset, metric, Options(NeighborBackendKind::kLsh));
  ASSERT_NE(lsh, nullptr);
  const CsrAdjacency lists = BuildLists(*lsh, 0.05);
  for (ObjectId i = 0; i < lists.size(); ++i) {
    for (ObjectId j : lists.row(i)) {
      const auto back = lists.row(j);
      EXPECT_TRUE(std::binary_search(back.begin(), back.end(), i))
          << "edge " << i << "->" << j << " has no reverse entry";
    }
  }
}

TEST(NeighborBackendTest, OnlyTheLatestRadiusIndexIsRetained) {
  const Dataset dataset = MakeClusteredDataset(800, 2, 19);
  EuclideanMetric metric;
  const std::vector<double> radii = {0.02, 0.03, 0.04, 0.05, 0.06, 0.07};

  // LSH: graph builds. Every build must match a fresh backend's build at the
  // same radius, so replacing the index never changes a graph.
  auto lsh = MustCreate(dataset, metric, Options(NeighborBackendKind::kLsh));
  ASSERT_NE(lsh, nullptr);
  for (int round = 0; round < 2; ++round) {
    for (double radius : radii) {
      auto fresh =
          MustCreate(dataset, metric, Options(NeighborBackendKind::kLsh));
      ASSERT_NE(fresh, nullptr);
      EXPECT_TRUE(BuildLists(*lsh, radius) == BuildLists(*fresh, radius))
          << "lsh graph changed at radius " << radius;
    }
  }
  const auto& lsh_backend = static_cast<const LshBackend&>(*lsh);
  EXPECT_EQ(lsh_backend.index_radius(), radii.back());

  // Grid: point queries, which are what build its cell index.
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

TEST(NeighborBackendTest, LshRejectsTheHammingMetric) {
  const Dataset dataset = MakeUniformDataset(50, 4, 1);
  HammingMetric metric;
  for (NeighborBackendKind kind :
       {NeighborBackendKind::kLsh, NeighborBackendKind::kLshSharded}) {
    auto backend = CreateNeighborBackend(dataset, metric, Options(kind));
    ASSERT_FALSE(backend.ok()) << NeighborBackendKindToString(kind);
    EXPECT_EQ(backend.status().code(), StatusCode::kInvalidArgument);
  }
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
  EXPECT_NE(backend.status().message().find("lsh-sharded"), std::string::npos)
      << backend.status().ToString();

  // The sharded and LSH kinds are the supported way past the cap.
  for (NeighborBackendKind kind :
       {NeighborBackendKind::kSharded, NeighborBackendKind::kLsh,
        NeighborBackendKind::kLshSharded}) {
    NeighborBackendOptions exempt = Options(kind);
    exempt.max_exact_points = 499;
    EXPECT_NE(MustCreate(dataset, metric, exempt), nullptr)
        << NeighborBackendKindToString(kind);
  }
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
}

}  // namespace
}  // namespace disc
