// The DisC diversity algorithms of §2.3 and §5.1, M-tree backed:
//
//   Basic-DisC    — scan the leaf chain; every still-white object becomes
//                   black and greys its neighborhood. Produces a maximal
//                   independent set (valid r-DisC subset) in one pass.
//   Greedy-DisC   — repeatedly select the white object with the largest
//                   white neighborhood (the paper's L' structure). Variants
//                   differ in how neighborhood sizes are maintained:
//                     Grey       — one query around every newly-grey object,
//                     White      — one 2r query around the selected object,
//                     Lazy-Grey  — Grey with update radius r/2,
//                     Lazy-White — White with update radius 3r/2.
//                   Lazy variants trade slightly larger solutions for fewer
//                   node accesses (Figure 8 / Table 3).
//   Greedy-C      — drops the independence requirement: both white and grey
//                   objects are candidates (r-C diverse subsets, §2.3).
//   Fast-C        — Greedy-C with bottom-up range queries that stop climbing
//                   at the first grey ancestor; cheaper, may miss distant
//                   neighbors (§5.1).
//
// All algorithms run deterministically (ties broken toward smaller object
// ids) and leave the tree's colors and closest-black distances behind for
// the zooming operations in core/zoom.h.

#ifndef DISC_CORE_DISC_ALGORITHMS_H_
#define DISC_CORE_DISC_ALGORITHMS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mtree/mtree.h"
#include "util/status.h"

namespace disc {

class ThreadPool;  // util/parallel.h

/// Every diversification algorithm the library implements, as a single
/// dispatchable identity (the greedy variants of §5.1 are distinct values so
/// a (algorithm, radius) pair fully determines a run's output).
enum class Algorithm {
  kBasic,        // Basic-DisC
  kGreedy,       // Greedy-DisC, Grey variant
  kGreedyWhite,  // Greedy-DisC, White variant
  kLazyGrey,     // Greedy-DisC, Lazy-Grey variant
  kLazyWhite,    // Greedy-DisC, Lazy-White variant
  kGreedyC,      // Greedy-C (covering only)
  kFastC,        // Fast-C (covering only, approximate maintenance)
};

/// "basic" / "greedy" / "greedy-white" / "lazy-grey" / "lazy-white" /
/// "greedy-c" / "fast-c".
const char* AlgorithmToString(Algorithm algorithm);

/// Parses the names AlgorithmToString produces. Returns InvalidArgument with
/// an "unknown algorithm" message otherwise.
Result<Algorithm> ParseAlgorithm(const std::string& name);

/// True for the algorithms whose output is an r-DisC diverse (independent
/// and covering) subset — the precondition for the zooming operations of
/// core/zoom.h. False for the covering-only Greedy-C / Fast-C.
bool IsDiscFamily(Algorithm algorithm);

/// True when a run of `algorithm` consumes precomputed white-neighborhood
/// counts (every algorithm except Basic-DisC).
bool AlgorithmUsesNeighborCounts(Algorithm algorithm);

/// Always zero (selection is serial); kept only for perfbench/replay.cc.
struct SpeculationStats {
  uint64_t evaluated = 0;
  uint64_t committed = 0;

  SpeculationStats& operator+=(const SpeculationStats& other) {
    evaluated += other.evaluated;
    committed += other.committed;
    return *this;
  }
};

/// The output of a diversification run: the selected objects in selection
/// order plus the index work the run consumed.
struct DiscResult {
  std::vector<ObjectId> solution;
  AccessStats stats;
  SpeculationStats speculation;  // always zero (see SpeculationStats)
  double wall_ms = 0.0;

  size_t size() const { return solution.size(); }
};

/// Options for RunAlgorithm and GreedyDisc, the knobs shared by every
/// algorithm.
struct AlgorithmRunOptions {
  /// Enables the §5.1 pruning rule (skip subtrees with no white objects).
  /// Pruned runs require MTree::RecomputeClosestBlackDistances before
  /// zooming (§5.2); unpruned runs keep those distances exact as they go.
  /// Ignored by Greedy-C / Fast-C (they are never pruned; see GreedyC).
  bool pruned = true;
  /// White-neighborhood sizes computed by MTree::BuildWithNeighborCounts
  /// (either build strategy; the counts are identical for both). When null,
  /// a post-build counting pass runs (and is charged to stats). Unused by
  /// Basic-DisC.
  const std::vector<uint32_t>* initial_counts = nullptr;
  /// Parallelizes the initial counting pass (only taken when
  /// initial_counts is null); solutions and stats totals are identical to a
  /// serial run for every thread count. The selection loop itself is
  /// serial: each step's range query depends on the colors the previous
  /// step changed.
  ThreadPool* pool = nullptr;
};

/// Basic-DisC. `pruned` additionally skips all-grey leaves during the scan.
DiscResult BasicDisc(MTree* tree, double radius, bool pruned = true);

/// Greedy-DisC, Grey variant (Algorithm::kGreedy). The other variants run
/// through RunAlgorithm.
DiscResult GreedyDisc(MTree* tree, double radius,
                      const AlgorithmRunOptions& options = {});

/// Greedy-C: covering but not necessarily independent (never pruned — grey
/// subtrees must stay reachable for neighborhood-count maintenance).
/// `initial_counts` (optional) supplies neighborhood sizes computed by
/// MTree::BuildWithNeighborCounts; otherwise a post-build pass runs (fanned
/// out across `pool` when given) and is charged to the result's stats.
DiscResult GreedyC(MTree* tree, double radius,
                   const std::vector<uint32_t>* initial_counts = nullptr,
                   ThreadPool* pool = nullptr);

/// Fast-C: the cheaper Greedy-C using grey-stopping bottom-up queries and
/// lazy candidate re-validation instead of exact count maintenance.
DiscResult FastC(MTree* tree, double radius,
                 const std::vector<uint32_t>* initial_counts = nullptr,
                 ThreadPool* pool = nullptr);

/// Runs any Algorithm against the tree — the single dispatch point used by
/// the engine layer (and available to benches/tools that select algorithms
/// by name).
DiscResult RunAlgorithm(MTree* tree, Algorithm algorithm, double radius,
                        const AlgorithmRunOptions& options = {});

}  // namespace disc

#endif  // DISC_CORE_DISC_ALGORITHMS_H_
