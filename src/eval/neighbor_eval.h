// Edge-level agreement between two adjacency structures over the same
// objects: the check that pins every neighbor backend (neighbor/backend.h)
// to the exact oracle.
//
// Everything here operates on CsrAdjacency (neighbor/adjacency.h), the one
// adjacency format, so the eval layer stays independent of how the
// structures were built — tests and benches build the oracle with the exact
// adjacency builders and candidates with any backend, then meet in the
// middle here. Every backend is exact, so any missing or false edge is a
// corrupted build; the CI gate pins mismatches() to 0.

#ifndef DISC_EVAL_NEIGHBOR_EVAL_H_
#define DISC_EVAL_NEIGHBOR_EVAL_H_

#include <cstdint>

#include "neighbor/adjacency.h"

namespace disc {

/// Edge-level agreement between a candidate adjacency structure and the
/// exact oracle over the same objects. Undirected edges are counted once.
struct AdjacencyComparison {
  uint64_t oracle_edges = 0;
  uint64_t candidate_edges = 0;
  /// Oracle edges the candidate lacks.
  uint64_t missing_edges = 0;
  /// Candidate edges the oracle lacks.
  uint64_t false_edges = 0;

  /// Total disagreement — the metric the CI gate pins to 0.
  uint64_t mismatches() const { return missing_edges + false_edges; }
};

/// Compares `candidate` against `oracle`. Both must hold one row per
/// object over the same object universe, each row sorted ascending and
/// excluding the object itself (the CsrAdjacency contract).
AdjacencyComparison CompareAdjacency(const CsrAdjacency& oracle,
                                     const CsrAdjacency& candidate);

}  // namespace disc

#endif  // DISC_EVAL_NEIGHBOR_EVAL_H_
