// DiscEngine in graph mode (EngineConfig::neighbor != kExact): algorithms
// run on the backend-built neighborhood graph instead of tree colors.
//
// The contracts under test:
//  * every graph-mode backend (grid, sharded) is exact, so it reproduces the reference graph algorithms
//    and the exact engine's own solutions byte-for-byte;
//  * index-bound algorithm variants answer Unimplemented, the adaptive
//    operations (Zoom, Weighted, MultiRadius) answer FailedPrecondition;
//  * the solution cache works in graph mode (repeat = from_cache, zero
//    additional stats);
//  * Snapshot reports the backend, graph mode (no tree), and the zoom
//    blocker; Create enforces the exact-backend dataset cap and names the
//    over-cap path that applies.

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
                             uint64_t seed = 9) {
  EngineConfig config;
  config.dataset = DatasetSpec::Clustered(n, 2, seed);
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

TEST(EngineBackendTest, ExactShardedBackendMatchesReferenceAlgorithms) {
  const double radius = 0.07;
  auto engine = MustCreate(GraphModeConfig(NeighborBackendKind::kSharded));
  ASSERT_NE(engine, nullptr);

  // The same graph, built directly at the graph layer.
  const Dataset dataset = MakeClusteredDataset(600, 2, 9);
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
  const double radius = 0.08;
  auto exact = MustCreate(GraphModeConfig(NeighborBackendKind::kExact));
  auto sharded = MustCreate(GraphModeConfig(NeighborBackendKind::kSharded));
  ASSERT_NE(exact, nullptr);
  ASSERT_NE(sharded, nullptr);

  auto tree_solution = exact->Diversify(Request(Algorithm::kGreedy, radius));
  auto graph_solution =
      sharded->Diversify(Request(Algorithm::kGreedy, radius));
  ASSERT_TRUE(tree_solution.ok()) << tree_solution.status().ToString();
  ASSERT_TRUE(graph_solution.ok()) << graph_solution.status().ToString();
  // Greedy-DisC is deterministic in the neighborhood structure, and exact
  // shards reproduce it exactly — the two engine modes must agree.
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
  auto engine = MustCreate(GraphModeConfig(NeighborBackendKind::kSharded));
  ASSERT_NE(engine, nullptr);
  auto solved = engine->Diversify(Request(Algorithm::kGreedy, 0.07));
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();

  ZoomRequest zoom;
  zoom.radius = 0.05;
  auto zoomed = engine->Zoom(zoom);
  ASSERT_FALSE(zoomed.ok());
  EXPECT_EQ(zoomed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(zoomed.status().message().find("'sharded'"), std::string::npos)
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

  for (NeighborBackendKind kind :
       {NeighborBackendKind::kGrid, NeighborBackendKind::kSharded}) {
    EngineConfig exempt = GraphModeConfig(kind, 500);
    exempt.neighbor.max_exact_points = 499;
    EXPECT_NE(MustCreate(std::move(exempt)), nullptr)
        << NeighborBackendKindToString(kind);
  }
}

}  // namespace
}  // namespace disc
