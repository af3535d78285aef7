// DiscEngine in graph mode (EngineConfig::neighbor != kExact): algorithms
// run on the backend-built neighborhood graph instead of tree colors.
//
// The contracts under test:
//  * the graph-mode backend (grid) is exact — through its accelerator and
//    through its O(n^2) scan fallback alike — so it reproduces the
//    reference graph algorithms and the exact engine's own solutions
//    byte-for-byte;
//  * index-bound algorithm variants answer Unimplemented, the adaptive
//    operations (Zoom, Weighted, MultiRadius) answer FailedPrecondition;
//  * the solution cache works in graph mode (repeat = from_cache, zero
//    additional stats);
//  * Snapshot reports the backend, graph mode (no tree), and the zoom
//    blocker; Create enforces the exact-point cap: above it, the slower
//    kind for the input is refused and the refusal names the other.

#include "engine/engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/reference.h"
#include "data/generators.h"
#include "graph/neighborhood.h"
#include "metric/metric.h"
#include "util/status.h"

namespace disc {
namespace {

EngineConfig GraphModeConfig(NeighborBackendKind kind, size_t n = 600,
                             size_t dim = 2) {
  EngineConfig config;
  config.dataset = DatasetSpec::Clustered(n, dim, 9);
  config.threads = 1;
  config.neighbor.kind = kind;
  return config;
}

std::unique_ptr<DiscEngine> MustCreate(EngineConfig config) {
  auto engine = DiscEngine::Create(std::move(config));
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return engine.ok() ? std::move(engine).value() : nullptr;
}

DiversifyRequest Request(Algorithm algorithm, double radius) {
  DiversifyRequest request;
  request.algorithm = algorithm;
  request.radius = radius;
  return request;
}

TEST(EngineBackendTest, GridScanFallbackMatchesReferenceAlgorithms) {
  // Dim 4 keeps the grid accelerator out: the backend builds the graph with
  // its O(n^2) scan.
  const double radius = 0.1;
  auto engine = MustCreate(GraphModeConfig(NeighborBackendKind::kGrid, 600, 4));
  ASSERT_NE(engine, nullptr);

  // The same graph, built directly at the graph layer.
  const Dataset dataset = MakeClusteredDataset(600, 4, 9);
  EuclideanMetric metric;
  NeighborhoodGraph graph(dataset, metric, radius);
  std::vector<ObjectId> order(dataset.size());
  std::iota(order.begin(), order.end(), 0);

  auto basic = engine->Diversify(Request(Algorithm::kBasic, radius));
  ASSERT_TRUE(basic.ok()) << basic.status().ToString();
  EXPECT_EQ(basic->solution, ReferenceBasicDisc(graph, order));

  auto greedy = engine->Diversify(Request(Algorithm::kGreedy, radius));
  ASSERT_TRUE(greedy.ok()) << greedy.status().ToString();
  EXPECT_EQ(greedy->solution, ReferenceGreedyDisc(graph));

  auto covering = engine->Diversify(Request(Algorithm::kGreedyC, radius));
  ASSERT_TRUE(covering.ok()) << covering.status().ToString();
  EXPECT_EQ(covering->solution, ReferenceGreedyC(graph));
}

TEST(EngineBackendTest, GraphModeGreedyEqualsTheExactEngineSolution) {
  const double radius = 0.1;
  auto exact =
      MustCreate(GraphModeConfig(NeighborBackendKind::kExact, 600, 4));
  auto grid = MustCreate(GraphModeConfig(NeighborBackendKind::kGrid, 600, 4));
  ASSERT_NE(exact, nullptr);
  ASSERT_NE(grid, nullptr);

  auto tree_solution = exact->Diversify(Request(Algorithm::kGreedy, radius));
  auto graph_solution = grid->Diversify(Request(Algorithm::kGreedy, radius));
  ASSERT_TRUE(tree_solution.ok()) << tree_solution.status().ToString();
  ASSERT_TRUE(graph_solution.ok()) << graph_solution.status().ToString();
  // Greedy-DisC is deterministic in the neighborhood structure, and the
  // grid's scan fallback reproduces it exactly — the two engine modes must
  // agree.
  EXPECT_EQ(tree_solution->solution, graph_solution->solution);
}

TEST(EngineBackendTest, IndexBoundVariantsAnswerUnimplemented) {
  auto engine = MustCreate(GraphModeConfig(NeighborBackendKind::kGrid));
  ASSERT_NE(engine, nullptr);
  for (Algorithm algorithm :
       {Algorithm::kGreedyWhite, Algorithm::kLazyGrey, Algorithm::kLazyWhite,
        Algorithm::kFastC}) {
    auto response = engine->Diversify(Request(algorithm, 0.07));
    ASSERT_FALSE(response.ok()) << AlgorithmToString(algorithm);
    EXPECT_EQ(response.status().code(), StatusCode::kUnimplemented)
        << response.status().ToString();
  }
}

TEST(EngineBackendTest, AdaptiveOperationsAnswerFailedPrecondition) {
  auto engine = MustCreate(GraphModeConfig(NeighborBackendKind::kGrid));
  ASSERT_NE(engine, nullptr);
  auto solved = engine->Diversify(Request(Algorithm::kGreedy, 0.07));
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();

  ZoomRequest zoom;
  zoom.radius = 0.05;
  auto zoomed = engine->Zoom(zoom);
  ASSERT_FALSE(zoomed.ok());
  EXPECT_EQ(zoomed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(zoomed.status().message().find("'grid'"), std::string::npos)
      << zoomed.status().ToString();

  WeightedRequest weighted;
  weighted.radius = 0.07;
  weighted.weights.assign(engine->dataset().size(), 1.0);
  auto heavy = engine->WeightedDiversify(weighted);
  ASSERT_FALSE(heavy.ok());
  EXPECT_EQ(heavy.status().code(), StatusCode::kFailedPrecondition);

  MultiRadiusRequest multi;
  multi.r_min = 0.05;
  multi.r_max = 0.1;
  multi.relevance.assign(engine->dataset().size(), 0.5);
  auto ranged = engine->MultiRadiusDiversify(multi);
  ASSERT_FALSE(ranged.ok());
  EXPECT_EQ(ranged.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EngineBackendTest, RepeatedRequestIsServedFromTheSolutionCache) {
  auto engine = MustCreate(GraphModeConfig(NeighborBackendKind::kGrid));
  ASSERT_NE(engine, nullptr);
  const DiversifyRequest request = Request(Algorithm::kGreedy, 0.06);

  auto cold = engine->Diversify(request);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold->from_cache);
  EXPECT_GT(cold->stats.range_queries, 0u);

  auto warm = engine->Diversify(request);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->from_cache);
  EXPECT_EQ(warm->solution, cold->solution);
  EXPECT_EQ(warm->stats.range_queries, 0u);
  EXPECT_EQ(warm->stats.node_accesses, 0u);
  EXPECT_EQ(warm->stats.distance_computations, 0u);

  EngineSnapshot snapshot = engine->Snapshot();
  EXPECT_EQ(snapshot.cache_hits, 1u);
  EXPECT_EQ(snapshot.computations, 1u);
}

TEST(EngineBackendTest, SnapshotDescribesGraphMode) {
  auto engine = MustCreate(GraphModeConfig(NeighborBackendKind::kGrid));
  ASSERT_NE(engine, nullptr);

  EngineSnapshot before = engine->Snapshot();
  EXPECT_EQ(before.backend, NeighborBackendKind::kGrid);
  EXPECT_EQ(before.tree_nodes, 0u);
  EXPECT_EQ(before.tree_height, 0u);
  EXPECT_FALSE(before.has_solution);

  auto solved = engine->Diversify(Request(Algorithm::kGreedy, 0.06));
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  EngineSnapshot after = engine->Snapshot();
  EXPECT_TRUE(after.has_solution);
  EXPECT_FALSE(after.zoomable);
  EXPECT_NE(after.zoom_blocker.find("'grid'"), std::string::npos)
      << after.zoom_blocker;
  EXPECT_EQ(after.solution_size, solved->solution.size());
  EXPECT_GT(after.lifetime_stats.range_queries, 0u);
}

TEST(EngineBackendTest, CreateRefusesExactEngineAboveTheCap) {
  EngineConfig config = GraphModeConfig(NeighborBackendKind::kExact, 500);
  config.neighbor.max_exact_points = 499;
  auto refused = DiscEngine::Create(std::move(config));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  // Clustered 2-D Euclidean: the grid applies, so the refusal names it.
  EXPECT_NE(refused.status().message().find(
                "dataset has 500 points, above the exact-backend cap of 499; "
                "use the grid neighbor backend"),
            std::string::npos)
      << refused.status().ToString();

  EngineConfig grid = GraphModeConfig(NeighborBackendKind::kGrid, 500);
  grid.neighbor.max_exact_points = 499;
  EXPECT_NE(MustCreate(std::move(grid)), nullptr);
}

TEST(EngineBackendTest, CreateServesANonGridInputAboveTheCapOnExact) {
  // Dim 4: the grid would fall back to the O(n^2) scan, so above the cap
  // the grid is the refused kind and the one-tree session engine serves.
  EngineConfig grid = GraphModeConfig(NeighborBackendKind::kGrid, 400, 4);
  grid.neighbor.max_exact_points = 300;
  auto refused = DiscEngine::Create(std::move(grid));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.status().message().find(
                "dataset has 400 points, above the exact-backend cap of 300; "
                "the grid would fall back to the O(n^2) scan (euclidean "
                "metric, dim 4), so use the exact neighbor backend"),
            std::string::npos)
      << refused.status().ToString();

  EngineConfig exact = GraphModeConfig(NeighborBackendKind::kExact, 400, 4);
  exact.neighbor.max_exact_points = 300;
  auto engine = MustCreate(std::move(exact));
  ASSERT_NE(engine, nullptr);
  EXPECT_GT(engine->Snapshot().tree_nodes, 0u);
  auto solved = engine->Diversify(Request(Algorithm::kGreedy, 0.1));
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();

  // The exact engine is the index-mode session: it zooms.
  ZoomRequest zoom;
  zoom.radius = 0.08;
  auto zoomed = engine->Zoom(zoom);
  ASSERT_TRUE(zoomed.ok()) << zoomed.status().ToString();
  EXPECT_FALSE(zoomed->solution.empty());
}

}  // namespace
}  // namespace disc
