// Quality measures for pluggable neighbor backends (neighbor/backend.h):
// how close an approximate adjacency structure comes to the exact oracle,
// and what that gap does to a solution computed on the approximate graph.
//
// Everything here operates on CsrAdjacency (neighbor/adjacency.h), the one
// adjacency format, so the eval layer stays independent of how the
// structures were built — tests and benches build the
// oracle with the exact adjacency builders and candidates with any backend,
// then meet in the middle here. The LSH backends verify every candidate with
// an exact distance, so their lists are subsets of the oracle's; recall
// (missed true edges) is their only deviation and false_edges doubles as a
// corruption detector.

#ifndef DISC_EVAL_NEIGHBOR_EVAL_H_
#define DISC_EVAL_NEIGHBOR_EVAL_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "neighbor/adjacency.h"

namespace disc {

/// Edge-level agreement between a candidate adjacency structure and the
/// exact oracle over the same objects. Undirected edges are counted once.
struct AdjacencyComparison {
  uint64_t oracle_edges = 0;
  uint64_t candidate_edges = 0;
  /// Oracle edges the candidate lacks (the recall loss).
  uint64_t missing_edges = 0;
  /// Candidate edges the oracle lacks. Always 0 for the distance-verified
  /// backends; nonzero means a corrupted build, not an approximation.
  uint64_t false_edges = 0;
  /// 1 - missing_edges / oracle_edges (1.0 for an edgeless oracle).
  double recall = 1.0;

  /// Total disagreement — the metric the CI exact-family gate pins to 0.
  uint64_t mismatches() const { return missing_edges + false_edges; }
};

/// Compares `candidate` against `oracle`. Both must hold one row per
/// object over the same object universe, each row sorted ascending and
/// excluding the object itself (the CsrAdjacency contract).
AdjacencyComparison CompareAdjacency(const CsrAdjacency& oracle,
                                     const CsrAdjacency& candidate);

/// How a solution computed on an approximate graph holds up under the TRUE
/// neighborhood structure. A missed edge can break either r-DisC guarantee:
/// an uncovered object (coverage < 1) or two solution members within r of
/// each other (independence violation).
struct SolutionGraphQuality {
  /// Fraction of objects that are in the solution or oracle-adjacent to a
  /// member (Definition 1 coverage, judged on the oracle).
  double coverage = 0.0;
  /// Fraction of solution members with another member in their oracle
  /// neighborhood (0 for a genuinely independent solution).
  double independence_violation_rate = 0.0;
};

/// Judges `solution` on the oracle adjacency structure. Solution ids must
/// be valid indices into `oracle`.
SolutionGraphQuality EvaluateSolutionOnOracle(
    const CsrAdjacency& oracle, const std::vector<ObjectId>& solution);

}  // namespace disc

#endif  // DISC_EVAL_NEIGHBOR_EVAL_H_
