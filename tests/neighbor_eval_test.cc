// Unit tests for eval/neighbor_eval.h: the edge-level oracle comparison and
// the on-oracle solution judgment used by the backend property tests and
// bench/bench_neighbor_backends.cc.

#include "eval/neighbor_eval.h"

#include <gtest/gtest.h>

#include <vector>

namespace disc {
namespace {

// A CSR structure with the given sorted rows.
CsrAdjacency Csr(const std::vector<std::vector<ObjectId>>& rows) {
  CsrAdjacency adjacency(rows.size());
  for (size_t v = 0; v < rows.size(); ++v) {
    adjacency.ids.insert(adjacency.ids.end(), rows[v].begin(), rows[v].end());
    adjacency.offsets[v + 1] = adjacency.ids.size();
  }
  return adjacency;
}

// A 4-vertex path 0-1-2-3.
CsrAdjacency PathGraph() { return Csr({{1}, {0, 2}, {1, 3}, {2}}); }

TEST(NeighborEvalTest, IdenticalStructuresAgreePerfectly) {
  const CsrAdjacency oracle = PathGraph();
  AdjacencyComparison comparison = CompareAdjacency(oracle, oracle);
  EXPECT_EQ(comparison.oracle_edges, 3u);
  EXPECT_EQ(comparison.candidate_edges, 3u);
  EXPECT_EQ(comparison.missing_edges, 0u);
  EXPECT_EQ(comparison.false_edges, 0u);
  EXPECT_EQ(comparison.mismatches(), 0u);
  EXPECT_DOUBLE_EQ(comparison.recall, 1.0);
}

TEST(NeighborEvalTest, MissingEdgesLowerRecall) {
  const CsrAdjacency oracle = PathGraph();
  // The candidate lost edge 1-2 (in both directions, as a symmetric
  // approximate build would).
  const CsrAdjacency candidate = Csr({{1}, {0}, {3}, {2}});
  AdjacencyComparison comparison = CompareAdjacency(oracle, candidate);
  EXPECT_EQ(comparison.oracle_edges, 3u);
  EXPECT_EQ(comparison.candidate_edges, 2u);
  EXPECT_EQ(comparison.missing_edges, 1u);
  EXPECT_EQ(comparison.false_edges, 0u);
  EXPECT_NEAR(comparison.recall, 2.0 / 3.0, 1e-12);
}

TEST(NeighborEvalTest, FalseEdgesAreCountedSeparately) {
  const CsrAdjacency oracle = PathGraph();
  // The candidate invented edge 0-3.
  const CsrAdjacency candidate = Csr({{1, 3}, {0, 2}, {1, 3}, {0, 2}});
  AdjacencyComparison comparison = CompareAdjacency(oracle, candidate);
  EXPECT_EQ(comparison.missing_edges, 0u);
  EXPECT_EQ(comparison.false_edges, 1u);
  EXPECT_EQ(comparison.mismatches(), 1u);
  EXPECT_DOUBLE_EQ(comparison.recall, 1.0);
}

TEST(NeighborEvalTest, EdgelessOracleHasPerfectRecall) {
  const CsrAdjacency oracle(3);
  AdjacencyComparison comparison = CompareAdjacency(oracle, oracle);
  EXPECT_EQ(comparison.oracle_edges, 0u);
  EXPECT_DOUBLE_EQ(comparison.recall, 1.0);
}

TEST(NeighborEvalTest, ValidDominatingIndependentSetScoresClean) {
  // On the path 0-1-2-3, {1, 3} dominates every vertex and its members are
  // not adjacent: a valid independent dominating set.
  SolutionGraphQuality quality =
      EvaluateSolutionOnOracle(PathGraph(), {1, 3});
  EXPECT_DOUBLE_EQ(quality.coverage, 1.0);
  EXPECT_DOUBLE_EQ(quality.independence_violation_rate, 0.0);
}

TEST(NeighborEvalTest, UncoveredObjectsLowerCoverage) {
  // {0} covers 0 and 1 but neither 2 nor 3.
  SolutionGraphQuality quality = EvaluateSolutionOnOracle(PathGraph(), {0});
  EXPECT_DOUBLE_EQ(quality.coverage, 0.5);
  EXPECT_DOUBLE_EQ(quality.independence_violation_rate, 0.0);
}

TEST(NeighborEvalTest, AdjacentMembersViolateIndependence) {
  // 1 and 2 are adjacent in the oracle: both members are in violation; the
  // pair still covers the whole path.
  SolutionGraphQuality quality =
      EvaluateSolutionOnOracle(PathGraph(), {1, 2});
  EXPECT_DOUBLE_EQ(quality.coverage, 1.0);
  EXPECT_DOUBLE_EQ(quality.independence_violation_rate, 1.0);
}

TEST(NeighborEvalTest, MixedSolutionReportsTheViolatingFraction) {
  // Star with center 0 on 5 vertices. Members {0, 1, 4}: each member has a
  // member neighbor (1 and 4 touch 0, 0 touches both), so all violate.
  const CsrAdjacency star = Csr({{1, 2, 3, 4}, {0}, {0}, {0}, {0}});
  SolutionGraphQuality all_violating =
      EvaluateSolutionOnOracle(star, {0, 1, 4});
  EXPECT_DOUBLE_EQ(all_violating.coverage, 1.0);
  EXPECT_DOUBLE_EQ(all_violating.independence_violation_rate, 1.0);

  // Members {1, 2}: adjacent only to the non-member 0 — independent, and
  // they cover {0, 1, 2} of 5.
  SolutionGraphQuality partial = EvaluateSolutionOnOracle(star, {1, 2});
  EXPECT_DOUBLE_EQ(partial.coverage, 0.6);
  EXPECT_DOUBLE_EQ(partial.independence_violation_rate, 0.0);
}

TEST(NeighborEvalTest, EmptyInputsAreWellDefined) {
  SolutionGraphQuality empty_everything = EvaluateSolutionOnOracle({}, {});
  EXPECT_DOUBLE_EQ(empty_everything.coverage, 1.0);
  EXPECT_DOUBLE_EQ(empty_everything.independence_violation_rate, 0.0);

  SolutionGraphQuality empty_solution =
      EvaluateSolutionOnOracle(PathGraph(), {});
  EXPECT_DOUBLE_EQ(empty_solution.coverage, 0.0);
  EXPECT_DOUBLE_EQ(empty_solution.independence_violation_rate, 0.0);
}

}  // namespace
}  // namespace disc
