// Direct tests for the engine's configuration and dispatch seams, which
// were previously only exercised through engine_test's end-to-end paths:
// ParseAlgorithm/AlgorithmToString round-trips, the RunAlgorithm dispatcher
// against the per-algorithm entry points, and EngineConfig / DatasetSpec
// validation errors (bad metric names, unknown or unresolvable datasets).

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/disc_algorithms.h"
#include "data/generators.h"
#include "engine/config.h"
#include "engine/engine.h"
#include "metric/metric.h"
#include "mtree/mtree.h"
#include "util/status.h"

namespace disc {
namespace {

constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::kBasic,  Algorithm::kGreedy, Algorithm::kGreedyWhite,
    Algorithm::kLazyGrey, Algorithm::kLazyWhite, Algorithm::kGreedyC,
    Algorithm::kFastC,
};

// ---------------------------------------------------------------------------
// ParseAlgorithm / AlgorithmToString
// ---------------------------------------------------------------------------

TEST(ParseAlgorithmTest, RoundTripsEveryAlgorithm) {
  for (Algorithm algorithm : kAllAlgorithms) {
    auto parsed = ParseAlgorithm(AlgorithmToString(algorithm));
    ASSERT_TRUE(parsed.ok()) << AlgorithmToString(algorithm);
    EXPECT_EQ(*parsed, algorithm);
  }
}

TEST(ParseAlgorithmTest, RejectsUnknownNamesWithTheVocabulary) {
  for (const char* bad : {"", "greedy ", "GREEDY", "greedyc", "basic-disc"}) {
    auto parsed = ParseAlgorithm(bad);
    ASSERT_FALSE(parsed.ok()) << "'" << bad << "' unexpectedly parsed";
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("unknown algorithm"),
              std::string::npos)
        << parsed.status().ToString();
  }
}

TEST(ParseAlgorithmTest, FamilyPredicatesMatchThePaper) {
  // Covering-only algorithms (§2.3) are not zoomable r-DisC producers.
  EXPECT_FALSE(IsDiscFamily(Algorithm::kGreedyC));
  EXPECT_FALSE(IsDiscFamily(Algorithm::kFastC));
  for (Algorithm algorithm :
       {Algorithm::kBasic, Algorithm::kGreedy, Algorithm::kGreedyWhite,
        Algorithm::kLazyGrey, Algorithm::kLazyWhite}) {
    EXPECT_TRUE(IsDiscFamily(algorithm)) << AlgorithmToString(algorithm);
  }
  // Basic-DisC is the only algorithm that ignores precomputed counts.
  EXPECT_FALSE(AlgorithmUsesNeighborCounts(Algorithm::kBasic));
  for (Algorithm algorithm :
       {Algorithm::kGreedy, Algorithm::kGreedyWhite, Algorithm::kLazyGrey,
        Algorithm::kLazyWhite, Algorithm::kGreedyC, Algorithm::kFastC}) {
    EXPECT_TRUE(AlgorithmUsesNeighborCounts(algorithm))
        << AlgorithmToString(algorithm);
  }
}

// ---------------------------------------------------------------------------
// RunAlgorithm dispatch
// ---------------------------------------------------------------------------

// The algorithms with an entry point of their own. The other Greedy-DisC
// variants run only through RunAlgorithm; selection_pin_test pins them.
std::optional<DiscResult> RunDirect(MTree* tree, Algorithm algorithm,
                                    double radius) {
  switch (algorithm) {
    case Algorithm::kBasic:
      return BasicDisc(tree, radius);
    case Algorithm::kGreedy:
      return GreedyDisc(tree, radius);
    case Algorithm::kGreedyC:
      return GreedyC(tree, radius);
    case Algorithm::kFastC:
      return FastC(tree, radius);
    default:
      return std::nullopt;
  }
}

TEST(RunAlgorithmTest, DispatchMatchesDirectEntryPoints) {
  const Dataset dataset = MakeClusteredDataset(250, 2, 13);
  EuclideanMetric metric;
  const double radius = 0.1;
  for (Algorithm algorithm : kAllAlgorithms) {
    MTree via_dispatch(dataset, metric);
    ASSERT_TRUE(via_dispatch.Build().ok());
    DiscResult dispatched = RunAlgorithm(&via_dispatch, algorithm, radius);

    MTree direct(dataset, metric);
    ASSERT_TRUE(direct.Build().ok());
    if (std::optional<DiscResult> expected =
            RunDirect(&direct, algorithm, radius)) {
      EXPECT_EQ(dispatched.solution, expected->solution)
          << AlgorithmToString(algorithm);
    }
    EXPECT_FALSE(dispatched.solution.empty())
        << AlgorithmToString(algorithm);
  }
}

TEST(RunAlgorithmTest, HonorsThePrunedOption) {
  const Dataset dataset = MakeClusteredDataset(250, 2, 13);
  EuclideanMetric metric;
  AlgorithmRunOptions pruned;
  pruned.pruned = true;
  AlgorithmRunOptions unpruned;
  unpruned.pruned = false;

  MTree tree_a(dataset, metric);
  ASSERT_TRUE(tree_a.Build().ok());
  DiscResult with = RunAlgorithm(&tree_a, Algorithm::kGreedy, 0.1, pruned);

  MTree tree_b(dataset, metric);
  ASSERT_TRUE(tree_b.Build().ok());
  DiscResult without =
      RunAlgorithm(&tree_b, Algorithm::kGreedy, 0.1, unpruned);

  // Pruning changes cost, never the selected solution.
  EXPECT_EQ(with.solution, without.solution);
  EXPECT_LT(with.stats.node_accesses, without.stats.node_accesses);
}

// ---------------------------------------------------------------------------
// EngineConfig / DatasetSpec validation
// ---------------------------------------------------------------------------

TEST(EngineConfigTest, ParseDatasetSpecRejectsUnknownNames) {
  for (const char* bad : {"", "csv", "cluster", "uniform "}) {
    auto spec = ParseDatasetSpec(bad, 100, 2, 1);
    ASSERT_FALSE(spec.ok()) << "'" << bad << "' unexpectedly parsed";
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(spec.status().message().find("unknown dataset"),
              std::string::npos);
  }
}

TEST(EngineConfigTest, ParseMetricKindRejectsUnknownNames) {
  auto kind = ParseMetricKind("taxicab");
  ASSERT_FALSE(kind.ok());
  EXPECT_EQ(kind.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineConfigTest, CreateFailsOnMissingCsvFile) {
  EngineConfig config;
  config.dataset = DatasetSpec::Csv("/nonexistent/disc-engine-points.csv");
  auto engine = DiscEngine::Create(std::move(config));
  ASSERT_FALSE(engine.ok());
  EXPECT_NE(engine.status().code(), StatusCode::kOk);
}

TEST(EngineConfigTest, CreateFailsOnEmptyProvidedDataset) {
  EngineConfig config;
  config.dataset = DatasetSpec::Provided(Dataset(2));
  auto engine = DiscEngine::Create(std::move(config));
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineConfigTest, DatasetSourceNamesRoundTripThroughParse) {
  // Every parseable source name is its own canonical string (kProvided has
  // no textual spelling by design: it cannot arrive over a wire).
  for (auto source :
       {DatasetSpec::Source::kUniform, DatasetSpec::Source::kClustered,
        DatasetSpec::Source::kCities, DatasetSpec::Source::kCameras}) {
    auto spec = ParseDatasetSpec(DatasetSourceToString(source), 10, 2, 1);
    ASSERT_TRUE(spec.ok()) << DatasetSourceToString(source);
    EXPECT_EQ(spec->source, source);
  }
  auto csv = ParseDatasetSpec("csv:points.csv", 10, 2, 1);
  ASSERT_TRUE(csv.ok());
  EXPECT_EQ(std::string(DatasetSourceToString(csv->source)), "csv");
}

TEST(EngineConfigTest, DefaultsMatchTheDocumentedPerSourceValues) {
  EXPECT_EQ(DefaultMetricFor(DatasetSpec::Source::kCameras),
            MetricKind::kHamming);
  EXPECT_EQ(DefaultMetricFor(DatasetSpec::Source::kCities),
            MetricKind::kEuclidean);
  EXPECT_DOUBLE_EQ(DefaultRadiusFor(DatasetSpec::Source::kCities), 0.01);
  EXPECT_DOUBLE_EQ(DefaultRadiusFor(DatasetSpec::Source::kCameras), 3.0);
  EXPECT_DOUBLE_EQ(DefaultRadiusFor(DatasetSpec::Source::kUniform), 0.05);
}

}  // namespace
}  // namespace disc
