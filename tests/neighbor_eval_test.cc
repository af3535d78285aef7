// Unit tests for eval/neighbor_eval.h: the edge-level oracle comparison
// bench/bench_neighbor_backends.cc gates every backend with.

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
}

TEST(NeighborEvalTest, MissingEdgesAreCounted) {
  const CsrAdjacency oracle = PathGraph();
  // The candidate lost edge 1-2 (in both directions).
  const CsrAdjacency candidate = Csr({{1}, {0}, {3}, {2}});
  AdjacencyComparison comparison = CompareAdjacency(oracle, candidate);
  EXPECT_EQ(comparison.oracle_edges, 3u);
  EXPECT_EQ(comparison.candidate_edges, 2u);
  EXPECT_EQ(comparison.missing_edges, 1u);
  EXPECT_EQ(comparison.false_edges, 0u);
  EXPECT_EQ(comparison.mismatches(), 1u);
}

TEST(NeighborEvalTest, FalseEdgesAreCountedSeparately) {
  const CsrAdjacency oracle = PathGraph();
  // The candidate invented edge 0-3.
  const CsrAdjacency candidate = Csr({{1, 3}, {0, 2}, {1, 3}, {0, 2}});
  AdjacencyComparison comparison = CompareAdjacency(oracle, candidate);
  EXPECT_EQ(comparison.missing_edges, 0u);
  EXPECT_EQ(comparison.false_edges, 1u);
  EXPECT_EQ(comparison.mismatches(), 1u);
}

TEST(NeighborEvalTest, EdgelessStructuresAgree) {
  const CsrAdjacency oracle(3);
  AdjacencyComparison comparison = CompareAdjacency(oracle, oracle);
  EXPECT_EQ(comparison.oracle_edges, 0u);
  EXPECT_EQ(comparison.mismatches(), 0u);
}

}  // namespace
}  // namespace disc
