#include "eval/neighbor_eval.h"

#include <algorithm>
#include <span>

namespace disc {

AdjacencyComparison CompareAdjacency(const CsrAdjacency& oracle,
                                     const CsrAdjacency& candidate) {
  AdjacencyComparison result;
  const size_t n = std::min(oracle.size(), candidate.size());
  for (size_t v = 0; v < n; ++v) {
    // Count each undirected edge once, at its lower endpoint. Both lists
    // are sorted, so a single merge walk classifies every edge.
    const std::span<const ObjectId> truth = oracle.row(v);
    const std::span<const ObjectId> seen = candidate.row(v);
    size_t i = 0;
    size_t j = 0;
    while (i < truth.size() || j < seen.size()) {
      const bool truth_next =
          j >= seen.size() || (i < truth.size() && truth[i] <= seen[j]);
      const bool seen_next =
          i >= truth.size() || (j < seen.size() && seen[j] <= truth[i]);
      if (truth_next && seen_next) {  // edge in both
        if (truth[i] > static_cast<ObjectId>(v)) {
          ++result.oracle_edges;
          ++result.candidate_edges;
        }
        ++i;
        ++j;
      } else if (truth_next) {  // oracle only
        if (truth[i] > static_cast<ObjectId>(v)) {
          ++result.oracle_edges;
          ++result.missing_edges;
        }
        ++i;
      } else {  // candidate only
        if (seen[j] > static_cast<ObjectId>(v)) {
          ++result.candidate_edges;
          ++result.false_edges;
        }
        ++j;
      }
    }
  }
  result.recall =
      result.oracle_edges == 0
          ? 1.0
          : 1.0 - static_cast<double>(result.missing_edges) /
                      static_cast<double>(result.oracle_edges);
  return result;
}

SolutionGraphQuality EvaluateSolutionOnOracle(
    const CsrAdjacency& oracle, const std::vector<ObjectId>& solution) {
  SolutionGraphQuality quality;
  const size_t n = oracle.size();
  if (n == 0) {
    quality.coverage = 1.0;
    return quality;
  }
  std::vector<char> member(n, 0);
  for (ObjectId id : solution) member[id] = 1;

  size_t covered = 0;
  for (size_t v = 0; v < n; ++v) {
    if (member[v]) {
      ++covered;
      continue;
    }
    for (ObjectId u : oracle.row(v)) {
      if (member[u]) {
        ++covered;
        break;
      }
    }
  }
  quality.coverage = static_cast<double>(covered) / static_cast<double>(n);

  if (!solution.empty()) {
    size_t violations = 0;
    for (ObjectId id : solution) {
      for (ObjectId u : oracle.row(id)) {
        if (member[u]) {
          ++violations;
          break;
        }
      }
    }
    quality.independence_violation_rate =
        static_cast<double>(violations) / static_cast<double>(solution.size());
  }
  return quality;
}

}  // namespace disc
