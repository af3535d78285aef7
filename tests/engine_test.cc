// Tests for the DiscEngine façade: request routing, session-state
// tracking, zoom preconditions (previously undefined behavior at the core
// layer), the solution cache, and the §8 extension endpoints.

#include "engine/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/disc_algorithms.h"
#include "data/generators.h"
#include "graph/properties.h"
#include "metric/metric.h"
#include "mtree/mtree.h"
#include "server/protocol.h"
#include "util/parallel.h"
#include "util/status.h"

namespace disc {
namespace {

std::unique_ptr<DiscEngine> MakeEngine(size_t n = 300, uint64_t seed = 7,
                                       BuildStrategy strategy =
                                           BuildStrategy::kInsertAtATime) {
  EngineConfig config;
  config.dataset = DatasetSpec::Clustered(n, 2, seed);
  config.tree.build.strategy = strategy;
  auto engine = DiscEngine::Create(std::move(config));
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

bool IsSubset(const std::vector<ObjectId>& small,
              const std::vector<ObjectId>& big) {
  std::set<ObjectId> big_set(big.begin(), big.end());
  for (ObjectId id : small) {
    if (!big_set.count(id)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

TEST(EngineCreateTest, BuildsFromGeneratorSpecs) {
  for (auto source : {DatasetSpec::Source::kUniform,
                      DatasetSpec::Source::kClustered}) {
    EngineConfig config;
    config.dataset = source == DatasetSpec::Source::kUniform
                         ? DatasetSpec::Uniform(100, 2, 1)
                         : DatasetSpec::Clustered(100, 2, 1);
    auto engine = DiscEngine::Create(std::move(config));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_EQ((*engine)->dataset().size(), 100u);
    EXPECT_EQ((*engine)->Snapshot().dataset_size, 100u);
  }
}

TEST(EngineCreateTest, BuildsFromProvidedDataset) {
  EngineConfig config;
  config.dataset = DatasetSpec::Provided(MakeGridDataset(10));
  auto engine = DiscEngine::Create(std::move(config));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->dataset().size(), 100u);
}

TEST(EngineCreateTest, EmptyProvidedDatasetFails) {
  EngineConfig config;
  config.dataset = DatasetSpec::Provided(Dataset(2));
  auto engine = DiscEngine::Create(std::move(config));
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineCreateTest, MissingCsvPropagatesLoaderError) {
  EngineConfig config;
  config.dataset = DatasetSpec::Csv("/nonexistent/points.csv");
  auto engine = DiscEngine::Create(std::move(config));
  EXPECT_FALSE(engine.ok());
}

TEST(EngineCreateTest, ParseDatasetSpecCoversCliNames) {
  auto clustered = ParseDatasetSpec("clustered", 50, 3, 9);
  ASSERT_TRUE(clustered.ok());
  EXPECT_EQ(clustered->source, DatasetSpec::Source::kClustered);
  EXPECT_EQ(clustered->n, 50u);
  EXPECT_EQ(clustered->dim, 3u);

  auto csv = ParseDatasetSpec("csv:/tmp/p.csv", 0, 0, 0);
  ASSERT_TRUE(csv.ok());
  EXPECT_EQ(csv->source, DatasetSpec::Source::kCsv);
  EXPECT_EQ(csv->csv_path, "/tmp/p.csv");

  auto bad = ParseDatasetSpec("no-such-dataset", 0, 0, 0);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Diversify
// ---------------------------------------------------------------------------

TEST(EngineDiversifyTest, EveryAlgorithmProducesVerifiedSolution) {
  auto engine = MakeEngine();
  for (Algorithm algorithm :
       {Algorithm::kBasic, Algorithm::kGreedy, Algorithm::kGreedyWhite,
        Algorithm::kLazyGrey, Algorithm::kLazyWhite, Algorithm::kGreedyC,
        Algorithm::kFastC}) {
    DiversifyRequest request;
    request.algorithm = algorithm;
    request.radius = 0.1;
    request.compute_quality = true;
    auto response = engine->Diversify(request);
    ASSERT_TRUE(response.ok())
        << AlgorithmToString(algorithm) << ": " << response.status().ToString();
    EXPECT_GT(response->size(), 0u) << AlgorithmToString(algorithm);
    ASSERT_TRUE(response->quality.has_value());
    EXPECT_TRUE(response->quality->verification.ok())
        << AlgorithmToString(algorithm) << ": "
        << response->quality->verification.ToString();
    EXPECT_GT(response->stats.node_accesses, 0u);
    EXPECT_DOUBLE_EQ(response->quality->coverage, 1.0);
  }
}

TEST(EngineDiversifyTest, NegativeOrNonFiniteRadiusIsInvalid) {
  auto engine = MakeEngine();
  DiversifyRequest request;
  request.radius = -0.5;
  EXPECT_EQ(engine->Diversify(request).status().code(),
            StatusCode::kInvalidArgument);
  request.radius = std::nan("");
  EXPECT_EQ(engine->Diversify(request).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineDiversifyTest, MatchesDirectAlgorithmRunOnBothBuildStrategies) {
  // The engine must not change what gets computed, only who owns the state.
  auto insert_engine = MakeEngine(300, 7, BuildStrategy::kInsertAtATime);
  auto bulk_engine = MakeEngine(300, 7, BuildStrategy::kBulkLoad);
  DiversifyRequest request;
  request.radius = 0.1;
  auto a = insert_engine->Diversify(request);
  auto b = bulk_engine->Diversify(request);
  ASSERT_TRUE(a.ok() && b.ok());
  // Greedy-DisC is deterministic in the neighborhood structure, which both
  // index shapes answer identically.
  EXPECT_EQ(a->solution, b->solution);
}

// ---------------------------------------------------------------------------
// Zoom preconditions (previously UB at the core layer)
// ---------------------------------------------------------------------------

TEST(EngineZoomPreconditionTest, ZoomBeforeDiversifyFails) {
  auto engine = MakeEngine();
  ZoomRequest zoom;
  zoom.radius = 0.05;
  auto response = engine->Zoom(zoom);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EngineZoomPreconditionTest, ZoomAfterCoveringOnlyRunFails) {
  auto engine = MakeEngine();
  for (Algorithm algorithm : {Algorithm::kGreedyC, Algorithm::kFastC}) {
    DiversifyRequest request;
    request.algorithm = algorithm;
    request.radius = 0.1;
    ASSERT_TRUE(engine->Diversify(request).ok());
    ZoomRequest zoom;
    zoom.radius = 0.05;
    auto response = engine->Zoom(zoom);
    ASSERT_FALSE(response.ok()) << AlgorithmToString(algorithm);
    EXPECT_EQ(response.status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST(EngineZoomPreconditionTest, StaleDistancesFailUnderRequireExact) {
  auto engine = MakeEngine();
  DiversifyRequest request;
  request.radius = 0.1;
  request.pruned = true;
  ASSERT_TRUE(engine->Diversify(request).ok());
  EXPECT_FALSE(engine->Snapshot().distances_exact);

  ZoomRequest zoom;
  zoom.radius = 0.05;
  zoom.distances = DistancePolicy::kRequireExact;
  auto response = engine->Zoom(zoom);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kFailedPrecondition);

  // kAuto recomputes and succeeds on the same session; with a non-greedy
  // pass the recomputed distances then stay exact.
  zoom.distances = DistancePolicy::kAuto;
  zoom.greedy = false;
  auto ok_response = engine->Zoom(zoom);
  ASSERT_TRUE(ok_response.ok()) << ok_response.status().ToString();
  EXPECT_TRUE(engine->Snapshot().distances_exact);
}

TEST(EngineZoomPreconditionTest, UnprunedRunSatisfiesRequireExact) {
  auto engine = MakeEngine();
  DiversifyRequest request;
  request.radius = 0.1;
  request.pruned = false;
  ASSERT_TRUE(engine->Diversify(request).ok());
  EXPECT_TRUE(engine->Snapshot().distances_exact);

  ZoomRequest zoom;
  zoom.radius = 0.05;
  zoom.distances = DistancePolicy::kRequireExact;
  EXPECT_TRUE(engine->Zoom(zoom).ok());
}

TEST(EngineZoomPreconditionTest, SameRadiusAndBadCenterAreInvalid) {
  auto engine = MakeEngine();
  DiversifyRequest request;
  request.radius = 0.1;
  ASSERT_TRUE(engine->Diversify(request).ok());

  ZoomRequest same;
  same.radius = 0.1;
  EXPECT_EQ(engine->Zoom(same).status().code(), StatusCode::kInvalidArgument);

  // Also invalid for local zooms: LocalZoom's contract only defines
  // new_radius strictly below or above the old one.
  ZoomRequest local_same = same;
  local_same.center = 0;
  EXPECT_EQ(engine->Zoom(local_same).status().code(),
            StatusCode::kInvalidArgument);

  // A default-constructed ZoomRequest (radius 0) must not silently zoom the
  // whole dataset in.
  ZoomRequest zero;
  EXPECT_EQ(engine->Zoom(zero).status().code(), StatusCode::kInvalidArgument);

  ZoomRequest bad_center;
  bad_center.radius = 0.05;
  bad_center.center = static_cast<ObjectId>(engine->dataset().size());
  EXPECT_EQ(engine->Zoom(bad_center).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineZoomPreconditionTest, ZoomAfterResetFails) {
  auto engine = MakeEngine();
  DiversifyRequest request;
  request.radius = 0.1;
  ASSERT_TRUE(engine->Diversify(request).ok());
  engine->Reset();
  ZoomRequest zoom;
  zoom.radius = 0.05;
  EXPECT_EQ(engine->Zoom(zoom).status().code(),
            StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Zooming behavior
// ---------------------------------------------------------------------------

class EngineZoomTest : public ::testing::TestWithParam<bool> {};

TEST_P(EngineZoomTest, ZoomInProducesValidSupersetAfterPrunedAndUnpruned) {
  const bool pruned = GetParam();
  auto engine = MakeEngine(500, 3);
  DiversifyRequest request;
  request.radius = 0.1;
  request.pruned = pruned;
  auto base = engine->Diversify(request);
  ASSERT_TRUE(base.ok());

  ZoomRequest zoom;
  zoom.radius = 0.05;
  zoom.compute_quality = true;
  auto finer = engine->Zoom(zoom);
  ASSERT_TRUE(finer.ok()) << finer.status().ToString();
  EXPECT_TRUE(IsSubset(base->solution, finer->solution));
  EXPECT_TRUE(finer->quality->verification.ok())
      << finer->quality->verification.ToString();
  EXPECT_DOUBLE_EQ(finer->radius, 0.05);
  EXPECT_DOUBLE_EQ(engine->Snapshot().radius, 0.05);
}

TEST_P(EngineZoomTest, ZoomOutProducesValidSolutionAfterPrunedAndUnpruned) {
  const bool pruned = GetParam();
  auto engine = MakeEngine(500, 3);
  DiversifyRequest request;
  request.radius = 0.08;
  request.pruned = pruned;
  ASSERT_TRUE(engine->Diversify(request).ok());

  ZoomRequest zoom;
  zoom.radius = 0.16;
  zoom.compute_quality = true;
  auto coarser = engine->Zoom(zoom);
  ASSERT_TRUE(coarser.ok()) << coarser.status().ToString();
  EXPECT_TRUE(coarser->quality->verification.ok())
      << coarser->quality->verification.ToString();
  // The greedy zoom-out pass leaves only distance upper bounds behind
  // (core/zoom.h), so a follow-up zoom-in must recompute — the engine
  // tracks that and kAuto handles it.
  EXPECT_FALSE(engine->Snapshot().distances_exact);
  ZoomRequest again;
  again.radius = 0.08;
  again.compute_quality = true;
  auto back = engine->Zoom(again);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->quality->verification.ok())
      << back->quality->verification.ToString();
}

INSTANTIATE_TEST_SUITE_P(PrunedAndUnpruned, EngineZoomTest,
                         ::testing::Bool());

TEST(EngineZoomChainTest, GreedyPassStalenessIsTrackedPerVariant) {
  // Arbitrary (non-greedy) zoom-out leaves exact distances: a chained
  // zoom-in may demand them. A greedy zoom-out does not.
  auto engine = MakeEngine(400, 13);
  DiversifyRequest request;
  request.radius = 0.08;
  request.pruned = false;
  ASSERT_TRUE(engine->Diversify(request).ok());

  ZoomRequest arbitrary_out;
  arbitrary_out.radius = 0.16;
  arbitrary_out.zoom_out_variant = ZoomOutVariant::kArbitrary;
  ASSERT_TRUE(engine->Zoom(arbitrary_out).ok());
  EXPECT_TRUE(engine->Snapshot().distances_exact);

  ZoomRequest strict_in;
  strict_in.radius = 0.08;
  strict_in.distances = DistancePolicy::kRequireExact;
  strict_in.greedy = false;
  strict_in.compute_quality = true;
  auto back = engine->Zoom(strict_in);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->quality->verification.ok())
      << back->quality->verification.ToString();
  // The non-greedy zoom-in also kept distances exact.
  EXPECT_TRUE(engine->Snapshot().distances_exact);

  ZoomRequest greedy_out;
  greedy_out.radius = 0.16;
  ASSERT_TRUE(engine->Zoom(greedy_out).ok());
  EXPECT_FALSE(engine->Snapshot().distances_exact);
  auto strict_back = engine->Zoom(strict_in);
  ASSERT_FALSE(strict_back.ok());
  EXPECT_EQ(strict_back.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EngineLocalZoomTest, LocalZoomKeepsCoverageAndBlocksFurtherZooms) {
  auto engine = MakeEngine(500, 5);
  DiversifyRequest request;
  request.radius = 0.1;
  auto base = engine->Diversify(request);
  ASSERT_TRUE(base.ok());

  ZoomRequest local;
  local.radius = 0.04;
  local.center = base->solution.front();
  local.compute_quality = true;
  auto zoomed = engine->Zoom(local);
  ASSERT_TRUE(zoomed.ok()) << zoomed.status().ToString();
  // Coverage holds globally at the larger of the two radii.
  EXPECT_TRUE(zoomed->quality->verification.ok())
      << zoomed->quality->verification.ToString();
  EXPECT_DOUBLE_EQ(zoomed->radius, 0.1);

  EngineSnapshot snapshot = engine->Snapshot();
  EXPECT_TRUE(snapshot.has_solution);
  EXPECT_FALSE(snapshot.zoomable);
  EXPECT_FALSE(snapshot.zoom_blocker.empty());

  ZoomRequest follow_up;
  follow_up.radius = 0.02;
  EXPECT_EQ(engine->Zoom(follow_up).status().code(),
            StatusCode::kFailedPrecondition);

  // A fresh Diversify re-arms zooming.
  ASSERT_TRUE(engine->Diversify(request).ok());
  EXPECT_TRUE(engine->Snapshot().zoomable);
  EXPECT_TRUE(engine->Zoom(follow_up).ok());
}

// ---------------------------------------------------------------------------
// Solution cache
// ---------------------------------------------------------------------------

TEST(EngineCacheTest, RepeatedRequestIsServedFromCacheWithZeroAccesses) {
  auto engine = MakeEngine();
  DiversifyRequest request;
  request.radius = 0.1;
  auto first = engine->Diversify(request);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->from_cache);
  EXPECT_GT(first->stats.node_accesses, 0u);

  auto second = engine->Diversify(request);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->from_cache);
  EXPECT_EQ(second->stats.node_accesses, 0u);
  EXPECT_EQ(second->stats.range_queries, 0u);
  EXPECT_EQ(second->stats.distance_computations, 0u);
  EXPECT_EQ(second->solution, first->solution);
  EXPECT_EQ(engine->Snapshot().cached_solutions, 1u);
}

TEST(EngineCacheTest, DifferentRequestsMissTheCache) {
  auto engine = MakeEngine();
  DiversifyRequest request;
  request.radius = 0.1;
  ASSERT_TRUE(engine->Diversify(request).ok());

  DiversifyRequest other_radius = request;
  other_radius.radius = 0.2;
  auto response = engine->Diversify(other_radius);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->from_cache);

  DiversifyRequest other_algorithm = request;
  other_algorithm.algorithm = Algorithm::kBasic;
  response = engine->Diversify(other_algorithm);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->from_cache);

  DiversifyRequest unpruned = request;
  unpruned.pruned = false;
  response = engine->Diversify(unpruned);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->from_cache);
}

TEST(EngineCacheTest, CacheHitRestoresZoomableSessionState) {
  // A -> B -> A(cached) -> zoom must behave exactly like A -> zoom.
  auto reference = MakeEngine(400, 11);
  DiversifyRequest request_a;
  request_a.radius = 0.1;
  ASSERT_TRUE(reference->Diversify(request_a).ok());
  ZoomRequest zoom;
  zoom.radius = 0.05;
  auto expected = reference->Zoom(zoom);
  ASSERT_TRUE(expected.ok());

  auto engine = MakeEngine(400, 11);
  ASSERT_TRUE(engine->Diversify(request_a).ok());
  DiversifyRequest request_b;
  request_b.radius = 0.2;
  ASSERT_TRUE(engine->Diversify(request_b).ok());
  auto cached = engine->Diversify(request_a);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->from_cache);

  auto zoomed = engine->Zoom(zoom);
  ASSERT_TRUE(zoomed.ok()) << zoomed.status().ToString();
  EXPECT_EQ(zoomed->solution, expected->solution);
}

TEST(EngineCacheTest, AutoRecomputedDistancesAreBankedIntoTheCacheEntry) {
  // Pruned Diversify -> zoom-in (kAuto recomputes §5.2 distances) ->
  // restore the same view -> the entry now carries exact distances, so a
  // strict zoom-in succeeds without another recomputation.
  auto engine = MakeEngine(400, 17);
  DiversifyRequest request;
  request.radius = 0.1;
  ASSERT_TRUE(engine->Diversify(request).ok());
  ZoomRequest zoom;
  zoom.radius = 0.05;
  ASSERT_TRUE(engine->Zoom(zoom).ok());

  auto restored = engine->Diversify(request);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->from_cache);
  EXPECT_TRUE(engine->Snapshot().distances_exact);

  ZoomRequest strict = zoom;
  strict.distances = DistancePolicy::kRequireExact;
  strict.compute_quality = true;
  auto again = engine->Zoom(strict);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again->quality->verification.ok())
      << again->quality->verification.ToString();
}

TEST(EngineCacheTest, CacheHitComputesQualityOnDemand) {
  auto engine = MakeEngine();
  DiversifyRequest request;
  request.radius = 0.1;
  ASSERT_TRUE(engine->Diversify(request).ok());

  request.compute_quality = true;
  auto cached = engine->Diversify(request);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->from_cache);
  ASSERT_TRUE(cached->quality.has_value());
  EXPECT_TRUE(cached->quality->verification.ok());
}

TEST(EngineCacheTest, ResetDropsTheCache) {
  auto engine = MakeEngine();
  DiversifyRequest request;
  request.radius = 0.1;
  ASSERT_TRUE(engine->Diversify(request).ok());
  EXPECT_EQ(engine->Snapshot().cached_solutions, 1u);
  engine->Reset();
  EXPECT_EQ(engine->Snapshot().cached_solutions, 0u);
  auto response = engine->Diversify(request);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->from_cache);
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

TEST(EngineSnapshotTest, TracksSessionLifecycle) {
  auto engine = MakeEngine();
  EngineSnapshot fresh = engine->Snapshot();
  EXPECT_FALSE(fresh.has_solution);
  EXPECT_FALSE(fresh.zoomable);
  EXPECT_GT(fresh.tree_nodes, 0u);
  EXPECT_GT(fresh.tree_height, 0u);

  DiversifyRequest request;
  request.radius = 0.1;
  auto response = engine->Diversify(request);
  ASSERT_TRUE(response.ok());
  EngineSnapshot after = engine->Snapshot();
  EXPECT_TRUE(after.has_solution);
  EXPECT_TRUE(after.zoomable);
  EXPECT_EQ(after.algorithm, Algorithm::kGreedy);
  EXPECT_DOUBLE_EQ(after.radius, 0.1);
  EXPECT_EQ(after.solution_size, response->size());
  EXPECT_GT(after.lifetime_stats.node_accesses, 0u);
  EXPECT_EQ(after.cached_count_radii, 1u);

  engine->Reset();
  EngineSnapshot reset = engine->Snapshot();
  EXPECT_FALSE(reset.has_solution);
  // Neighborhood counts are color-independent and survive Reset.
  EXPECT_EQ(reset.cached_count_radii, 1u);
}

TEST(EngineSnapshotTest, CountsCacheKeepsTheLatestEightRadii) {
  // A pooled engine that never sees a radius twice must not keep every
  // radius's n x 4 bytes of counts: the cache is bounded like the solution
  // cache, oldest insert evicted first.
  auto engine = MakeEngine();
  std::vector<double> radii;
  for (int i = 0; i < 12; ++i) radii.push_back(0.05 + 0.01 * i);
  for (double radius : radii) {
    DiversifyRequest request;
    request.radius = radius;
    ASSERT_TRUE(engine->Diversify(request).ok());
  }
  EXPECT_EQ(engine->Snapshot().cached_count_radii, 8u);

  // The first radius's counts and solution are both evicted; recomputing
  // them answers exactly what a fresh engine answers.
  DiversifyRequest evicted;
  evicted.radius = radii.front();
  auto again = engine->Diversify(evicted);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->from_cache);
  auto fresh = MakeEngine()->Diversify(evicted);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(SerializeDiversifyResponse(Verb::kDiversify, *again,
                                       /*include_wall_ms=*/false),
            SerializeDiversifyResponse(Verb::kDiversify, *fresh,
                                       /*include_wall_ms=*/false));
  EXPECT_EQ(engine->Snapshot().cached_count_radii, 8u);
}

// ---------------------------------------------------------------------------
// §8 extensions
// ---------------------------------------------------------------------------

TEST(EngineWeightedTest, ProducesVerifiedSolutionAndKeepsSessionUntouched) {
  auto engine = MakeEngine();
  WeightedRequest request;
  request.radius = 0.1;
  request.weights.assign(engine->dataset().size(), 1.0);
  request.compute_quality = true;
  auto response = engine->WeightedDiversify(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_GT(response->size(), 0u);
  EXPECT_TRUE(response->quality->verification.ok())
      << response->quality->verification.ToString();
  // Stateless: no session, so zooming still requires a Diversify.
  EXPECT_FALSE(engine->Snapshot().has_solution);
}

TEST(EngineWeightedTest, RejectsMismatchedWeights) {
  auto engine = MakeEngine();
  WeightedRequest request;
  request.radius = 0.1;
  request.weights = {1.0, 2.0};
  EXPECT_EQ(engine->WeightedDiversify(request).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineMultiRadiusTest, CoversEveryObjectWithinItsRadius) {
  auto engine = MakeEngine();
  const size_t n = engine->dataset().size();
  std::vector<double> relevance(n, 0.5);
  MultiRadiusRequest request;
  request.r_min = 0.05;
  request.r_max = 0.2;
  request.relevance = relevance;
  request.compute_quality = true;
  auto response = engine->MultiRadiusDiversify(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_GT(response->size(), 0u);
  EXPECT_TRUE(response->quality->verification.ok())
      << response->quality->verification.ToString();
  EXPECT_DOUBLE_EQ(response->radius, 0.2);
}

TEST(EngineMultiRadiusTest, RejectsBadRadiusRange) {
  auto engine = MakeEngine();
  MultiRadiusRequest request;
  request.r_min = 0.2;
  request.r_max = 0.1;
  request.relevance.assign(engine->dataset().size(), 0.5);
  EXPECT_EQ(engine->MultiRadiusDiversify(request).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Threaded engines: EngineConfig::threads changes wall time, nothing else.
// ---------------------------------------------------------------------------

std::unique_ptr<DiscEngine> MakeThreadedEngine(DatasetSpec spec,
                                               MetricKind metric,
                                               size_t threads) {
  EngineConfig config;
  config.dataset = std::move(spec);
  config.metric = metric;
  config.threads = threads;
  auto engine = DiscEngine::Create(std::move(config));
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

// Every algorithm on every dataset shape: a threads=4 engine must produce
// byte-identical responses to a threads=1 engine — solution membership AND
// order, plus the reported node-access / range-query / distance totals.
// This suite runs under TSan in CI, which also proves the fan-out is
// race-free.
TEST(EngineThreadedTest, AllAlgorithmsByteIdenticalAcrossThreadCounts) {
  const struct {
    DatasetSpec spec;
    MetricKind metric;
    double radius;
  } kWorkloads[] = {
      {DatasetSpec::Clustered(1500, 2, 7), MetricKind::kEuclidean, 0.05},
      {DatasetSpec::Uniform(800, 5, 7), MetricKind::kManhattan, 0.6},
      {DatasetSpec::Cameras(), MetricKind::kHamming, 3.0},
  };
  const Algorithm kAlgorithms[] = {
      Algorithm::kBasic,     Algorithm::kGreedy,  Algorithm::kGreedyWhite,
      Algorithm::kLazyGrey,  Algorithm::kLazyWhite,
      Algorithm::kGreedyC,   Algorithm::kFastC,
  };

  for (const auto& workload : kWorkloads) {
    auto serial = MakeThreadedEngine(workload.spec, workload.metric, 1);
    auto threaded = MakeThreadedEngine(workload.spec, workload.metric, 4);
    EXPECT_EQ(serial->Snapshot().threads, 1u);
    EXPECT_EQ(threaded->Snapshot().threads, 4u);

    for (Algorithm algorithm : kAlgorithms) {
      DiversifyRequest request;
      request.algorithm = algorithm;
      request.radius = workload.radius;
      auto serial_response = serial->Diversify(request);
      auto threaded_response = threaded->Diversify(request);
      ASSERT_TRUE(serial_response.ok())
          << serial_response.status().ToString();
      ASSERT_TRUE(threaded_response.ok())
          << threaded_response.status().ToString();
      // Membership and order.
      ASSERT_EQ(serial_response->solution, threaded_response->solution)
          << AlgorithmToString(algorithm);
      // Reported work (per-thread counters summed back must be exact).
      EXPECT_EQ(serial_response->stats.node_accesses,
                threaded_response->stats.node_accesses)
          << AlgorithmToString(algorithm);
      EXPECT_EQ(serial_response->stats.range_queries,
                threaded_response->stats.range_queries)
          << AlgorithmToString(algorithm);
      EXPECT_EQ(serial_response->stats.distance_computations,
                threaded_response->stats.distance_computations)
          << AlgorithmToString(algorithm);
    }
    // Lifetime totals across the whole request sequence agree too.
    const AccessStats serial_total = serial->Snapshot().lifetime_stats;
    const AccessStats threaded_total = threaded->Snapshot().lifetime_stats;
    EXPECT_EQ(serial_total.node_accesses, threaded_total.node_accesses);
    EXPECT_EQ(serial_total.range_queries, threaded_total.range_queries);
    EXPECT_EQ(serial_total.distance_computations,
              threaded_total.distance_computations);
  }
}

TEST(EngineThreadedTest, ZoomAfterThreadedBuildMatchesSerial) {
  auto serial =
      MakeThreadedEngine(DatasetSpec::Clustered(1000, 2, 9),
                         MetricKind::kEuclidean, 1);
  auto threaded =
      MakeThreadedEngine(DatasetSpec::Clustered(1000, 2, 9),
                         MetricKind::kEuclidean, 4);
  DiversifyRequest request;
  request.radius = 0.08;
  ASSERT_TRUE(serial->Diversify(request).ok());
  ASSERT_TRUE(threaded->Diversify(request).ok());

  ZoomRequest zoom;
  zoom.radius = 0.04;
  auto serial_zoom = serial->Zoom(zoom);
  auto threaded_zoom = threaded->Zoom(zoom);
  ASSERT_TRUE(serial_zoom.ok()) << serial_zoom.status().ToString();
  ASSERT_TRUE(threaded_zoom.ok()) << threaded_zoom.status().ToString();
  EXPECT_EQ(serial_zoom->solution, threaded_zoom->solution);
  EXPECT_EQ(serial_zoom->stats.node_accesses,
            threaded_zoom->stats.node_accesses);
}

TEST(EngineThreadedTest, RepeatedDiversifyAfterThreadedBuildIsCacheHit) {
  // The counts pass fans out across the pool; the cache must still absorb
  // the repeat completely — zero node accesses — and report the hit.
  auto engine = MakeThreadedEngine(DatasetSpec::Clustered(1200, 2, 13),
                                   MetricKind::kEuclidean, 4);
  EXPECT_EQ(engine->Snapshot().cache_hits, 0u);

  DiversifyRequest request;
  request.radius = 0.06;
  auto first = engine->Diversify(request);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->from_cache);
  EXPECT_GT(first->stats.node_accesses, 0u);

  auto second = engine->Diversify(request);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->from_cache);
  EXPECT_EQ(second->stats.node_accesses, 0u);
  EXPECT_EQ(second->stats.range_queries, 0u);
  EXPECT_EQ(second->solution, first->solution);
  EXPECT_EQ(engine->Snapshot().cache_hits, 1u);

  // Still a zero-access hit for the next session leasing this engine.
  engine->NewSession();
  auto third = engine->Diversify(request);
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->from_cache);
  EXPECT_EQ(third->stats.node_accesses, 0u);
  EXPECT_EQ(engine->Snapshot().cache_hits, 2u);
}

// Wire level: engines at 1, 2, and 4 threads serve byte-identical response
// lines (solution, stats, radius — everything but wall time).
TEST(EngineThreadedTest, ResponseLinesIdenticalAcrossThreadCounts) {
  auto run_engine = [](size_t threads) {
    auto engine = MakeThreadedEngine(DatasetSpec::Clustered(800, 2, 3),
                                     MetricKind::kEuclidean, threads);
    std::vector<std::string> lines;
    for (Algorithm algorithm :
         {Algorithm::kGreedy, Algorithm::kLazyWhite, Algorithm::kFastC}) {
      DiversifyRequest request;
      request.algorithm = algorithm;
      request.radius = 0.05;
      auto response = engine->Diversify(request);
      EXPECT_TRUE(response.ok()) << response.status().ToString();
      lines.push_back(SerializeDiversifyResponse(Verb::kDiversify, *response,
                                                 /*include_wall_ms=*/false));
    }
    return lines;
  };
  const std::vector<std::string> serial = run_engine(1);
  for (size_t threads : {2u, 4u}) {
    EXPECT_EQ(serial, run_engine(threads)) << "threads=" << threads;
  }
}

// Wraps a metric and counts Distance calls; atomic because pooled passes
// call it from the workers.
class CountingMetric final : public DistanceMetric {
 public:
  explicit CountingMetric(const DistanceMetric& inner) : inner_(inner) {}

  double Distance(const Point& a, const Point& b) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_.Distance(a, b);
  }
  MetricKind kind() const override { return inner_.kind(); }

  uint64_t calls() const { return calls_.load(); }
  void Reset() { calls_.store(0); }

 private:
  const DistanceMetric& inner_;
  mutable std::atomic<uint64_t> calls_{0};
};

// A pool adds no work: the greedy selection loops are serial, so a 4-thread
// pool reaches only the counting pass and must end every greedy-family run
// in the no-pool run's solution, AccessStats, and color state, having made
// exactly as many metric calls.
TEST(EngineThreadedTest, PoolAddsNoSelectionWork) {
  struct Output {
    DiscResult result;
    MTree::ColorState state;
    uint64_t distance_calls = 0;
  };
  auto run = [](const Dataset& dataset, double radius, Algorithm algorithm,
                ThreadPool* pool) {
    EuclideanMetric euclid;
    CountingMetric metric(euclid);
    MTree tree(dataset, metric);
    EXPECT_TRUE(tree.Build().ok());
    metric.Reset();  // construction is out of scope
    AlgorithmRunOptions options;
    options.pool = pool;
    Output out;
    out.result = RunAlgorithm(&tree, algorithm, radius, options);
    out.state = tree.SaveColorState();
    out.distance_calls = metric.calls();
    return out;
  };
  const struct {
    const char* name;
    Dataset dataset;
    double radius;
  } kWorkloads[] = {
      {"uniform", MakeUniformDataset(600, 2, 11), 0.05},
      {"clustered", MakeClusteredDataset(800, 2, 3), 0.05},
      {"clustered_3d", MakeClusteredDataset(500, 3, 7), 0.12},
  };
  ThreadPool pool(4);
  for (const auto& w : kWorkloads) {
    for (Algorithm algorithm :
         {Algorithm::kGreedy, Algorithm::kGreedyWhite, Algorithm::kLazyGrey,
          Algorithm::kLazyWhite, Algorithm::kGreedyC, Algorithm::kFastC}) {
      const std::string label =
          std::string(AlgorithmToString(algorithm)) + "/" + w.name;
      const Output serial = run(w.dataset, w.radius, algorithm, nullptr);
      const Output pooled = run(w.dataset, w.radius, algorithm, &pool);
      ASSERT_FALSE(serial.result.solution.empty()) << label;
      EXPECT_EQ(serial.result.solution, pooled.result.solution) << label;
      EXPECT_TRUE(serial.result.stats == pooled.result.stats) << label;
      EXPECT_EQ(serial.state.colors, pooled.state.colors) << label;
      EXPECT_EQ(serial.state.closest_black_dist,
                pooled.state.closest_black_dist)
          << label;
      EXPECT_EQ(serial.distance_calls, pooled.distance_calls) << label;
    }
  }
}

}  // namespace
}  // namespace disc
