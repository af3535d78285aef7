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
  return result;
}

}  // namespace disc
