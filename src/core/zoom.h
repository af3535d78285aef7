// Adaptive diversification: zooming-in, zooming-out, and local zooming
// (§3 and §5.2 of the paper).
//
// All operations are incremental: they start from the colors and
// closest-black-neighbor distances an earlier run left in the M-tree and
// adapt the solution to a new radius, rather than recomputing from scratch.
// This preserves most of the previously-seen result (low Jaccard distance,
// Figures 13/16) at a fraction of the node accesses (Figures 12/15).
//
// Selection reuses §5.1's two passes over the objects a zoom left uncovered
// (core/internal.h): Greedy-Zoom-In (Algorithm 2) and the greedy Zoom-Out's
// second pass (Algorithm 3, lines 12-19) run Greedy-DisC's L' loop; plain
// Zoom-In and the arbitrary Zoom-Out's second pass run Basic-DisC's
// leaf-order pass. Only Zoom-Out's first pass has a loop of its own.
//
// Precondition for the operations that *read* closest-black distances
// (ZoomIn, and LocalZoom when it zooms in): the tree's colors encode a
// valid r-DisC solution for the *old* radius, and closest-black distances
// are exact for it. Runs that used the pruning rule must first call
// MTree::RecomputeClosestBlackDistances(old_radius) (§5.2); unpruned runs
// keep those distances exact as they go. ZoomOut rebuilds the distances
// from scratch and does not read them.
//
// What each operation leaves behind: the non-greedy passes (plain Zoom-In,
// ZoomOutVariant::kArbitrary) query every neighbor of every selected object
// and so leave exact distances. The greedy passes use white-only queries,
// so already-grey objects keep their distance to some *earlier* black — an
// upper bound that is sufficient for the current radius but stale for a
// further zoom-in. Chaining a zoom-in after a greedy pass therefore
// requires RecomputeClosestBlackDistances again; the engine layer
// (engine/engine.h) tracks this automatically.

#ifndef DISC_CORE_ZOOM_H_
#define DISC_CORE_ZOOM_H_

#include "core/disc_algorithms.h"
#include "mtree/mtree.h"

namespace disc {

/// First-pass selection order for zooming-out (Algorithm 3): which red
/// (previously black) object is confirmed into the new solution next.
enum class ZoomOutVariant {
  /// Leaf order (the paper's non-greedy Zoom-Out).
  kArbitrary,
  /// (a) most red neighbors at r' — trims competing old picks fastest.
  kGreedyMostRed,
  /// (b) fewest red neighbors at r' — retains as much of S^r as possible.
  kGreedyFewestRed,
  /// (c) most white neighbors at r' — minimizes the second-pass additions,
  /// at the cost of a white-count query per red object.
  kGreedyMostWhite,
};

/// "arbitrary" / "greedy-a" / "greedy-b" / "greedy-c".
const char* ZoomOutVariantToString(ZoomOutVariant variant);

/// Zooming-in (r' < old radius). Every previously selected object is kept
/// (S^r ⊆ S^r'); formerly covered objects that lost their representative
/// become candidates. `greedy` selects candidates by largest white
/// neighborhood (Greedy-Zoom-In, Algorithm 2); otherwise leaf order
/// (Zoom-In). Returns the full new solution.
///
/// `observe_all` (greedy only; the non-greedy pass always observes all)
/// replaces each selection's pruned white-only query with an unpruned
/// all-colors query, so every neighbor of every added object observes its
/// exact distance. The selection sequence is identical — the extra
/// neighbors are grey or black and never candidates — but the pass leaves
/// exact closest-black distances, letting a chained zoom-in skip
/// MTree::RecomputeClosestBlackDistances at the cost of wider selection
/// queries here. Whether that trade wins is workload-dependent; see
/// bench_parallel_select.cc, which gates the engine default.
DiscResult ZoomIn(MTree* tree, double new_radius, bool greedy,
                  bool observe_all = false);

/// Zooming-out (r' > old radius). First pass confirms or drops the old
/// selection per `variant`; second pass covers any newly exposed areas
/// (greedily for the greedy variants, in leaf order for kArbitrary).
DiscResult ZoomOut(MTree* tree, double new_radius, ZoomOutVariant variant);

/// Local zooming (§3, Figures 1(d)/2): re-diversifies only the objects in
/// N_old_radius(center) at the new radius, leaving the rest of the solution
/// untouched (the paper: "the algorithm receives as input only the objects
/// in N_r(p_i)"). `center` is typically a member of the current solution the
/// user wants to explore; new_radius < old_radius zooms in, > zooms out.
/// Inside the region, coverage and independence hold at new_radius among
/// region objects; outside, the old-radius guarantees stand. Returns the
/// merged (global) solution.
DiscResult LocalZoom(MTree* tree, ObjectId center, double old_radius,
                     double new_radius, bool greedy);

}  // namespace disc

#endif  // DISC_CORE_ZOOM_H_
