// Greedy-C and Fast-C (§2.3, §5.1): coverage-only diversification.
//
// Both maintain the L' structure over white AND grey objects, keyed by the
// number of uncovered objects a candidate would newly cover: its white
// neighbors plus one if the candidate is itself still white. Greedy-C keeps
// every count exact (which forbids the grey-subtree pruning rule and makes
// it expensive); Fast-C accepts stale counts for grey objects in exchange
// for pruned, grey-stopping bottom-up queries.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/disc_algorithms.h"
#include "core/internal.h"
#include "util/indexed_heap.h"

namespace disc {

namespace {

// Shared implementation; `fast` toggles the Fast-C query strategy.
DiscResult CoverageGreedy(MTree* tree, double radius, bool fast,
                          const std::vector<uint32_t>* initial_counts,
                          ThreadPool* pool) {
  internal::RunScope scope(tree);
  tree->ResetColors();
  const size_t n = tree->size();

  std::vector<uint32_t> counts;
  if (initial_counts != nullptr) {
    assert(initial_counts->size() == n);
    counts = *initial_counts;
  } else {
    tree->ComputeNeighborCountsPostBuild(radius, &counts, pool);
  }

  // Candidate priority = newly-covered objects = white neighbors + self bonus.
  // Initially everything is white, so the bonus is +1 everywhere; it keeps
  // the loop progressing (whenever whites remain, some candidate has
  // priority >= 1, and selecting it reduces the white population).
  IndexedMaxHeap heap(n);
  for (ObjectId id = 0; id < n; ++id) {
    heap.Push(id, static_cast<int64_t>(counts[id]) + 1);
  }

  std::vector<ObjectId> solution;
  std::vector<Neighbor> found, update_found;
  std::vector<ObjectId> newly_grey;
  while (tree->white_count() > 0 && !heap.empty()) {
    ObjectId pi = heap.PopTop();
    const bool was_white = tree->color(pi) == Color::kWhite;

    // The selection query re-measures the candidate's gain; Fast-C uses the
    // grey-stopping bottom-up search, which exits almost immediately for
    // candidates whose region has gone grey. Greedy-C needs unfiltered
    // queries because grey candidates' counts must stay exact.
    found.clear();
    if (fast) {
      tree->RangeQueryBottomUp(pi, radius, QueryFilter::kWhiteOnly,
                               /*pruned=*/true, /*stop_at_grey=*/true, &found);
    } else {
      tree->RangeQueryAround(pi, radius, QueryFilter::kAll, /*pruned=*/false,
                             &found);
    }
    newly_grey.clear();
    for (const Neighbor& nb : found) {
      if (tree->color(nb.id) == Color::kWhite) newly_grey.push_back(nb.id);
    }

    // Fast-C's heap priorities go stale (it skips the per-covered-object
    // update queries), so re-validate lazily: the query above re-measures
    // the candidate's true gain; if it dropped well below the next-best
    // priority, push it back and try the new top instead. Selecting within
    // 2x of the best-known priority (rather than demanding the exact
    // maximum) keeps the pop count — and hence query count — low while
    // staying a constant-factor greedy step; this is where "similar sized
    // solutions at fewer accesses" comes from. With exact counts (Greedy-C)
    // the popped maximum is never stale and both branches are no-ops.
    int64_t fresh_gain =
        static_cast<int64_t>(newly_grey.size()) + (was_white ? 1 : 0);
    if (fresh_gain == 0) continue;  // covers nothing, and gains only shrink
    if (!heap.empty() && 2 * fresh_gain < heap.TopPriority()) {
      heap.Push(pi, fresh_gain);
      continue;
    }

    tree->SetColor(pi, Color::kBlack);
    solution.push_back(pi);
    for (const Neighbor& nb : found) {
      if (tree->color(nb.id) == Color::kWhite) {
        tree->SetColor(nb.id, Color::kGrey);
      }
      tree->ObserveBlackNeighbor(nb.id, nb.dist);
    }

    // pi left the white population: every remaining candidate that counted
    // pi as a white neighbor loses 1.
    if (was_white) {
      for (const Neighbor& nb : found) {
        if (heap.contains(nb.id)) heap.Adjust(nb.id, -1);
      }
    }
    // Each newly-grey object pj loses its own +1 bonus, and every candidate
    // counting pj as a white neighbor loses 1. The latter requires a range
    // query per covered object — the dominant cost of Greedy-C; the
    // decrements themselves are O(1) (the heap defers each one until the
    // entry reaches the top, util/indexed_heap.h). Fast-C replaces the query
    // with a one-access look at pj's own leaf (most affected candidates are
    // leaf-mates, by M-tree locality) and lets the lazy re-validation above
    // absorb the remaining staleness: this is where its access savings come
    // from.
    for (ObjectId pj : newly_grey) {
      if (heap.contains(pj)) heap.Adjust(pj, -1);
      update_found.clear();
      if (fast) {
        tree->LeafMatesWithin(pj, radius, &update_found);
      } else {
        tree->RangeQueryAround(pj, radius, QueryFilter::kAll,
                               /*pruned=*/false, &update_found);
      }
      for (const Neighbor& nb : update_found) {
        if (heap.contains(nb.id)) heap.Adjust(nb.id, -1);
      }
    }
  }
  return scope.Finish(std::move(solution));
}

}  // namespace

DiscResult GreedyC(MTree* tree, double radius,
                   const std::vector<uint32_t>* initial_counts,
                   ThreadPool* pool) {
  return CoverageGreedy(tree, radius, /*fast=*/false, initial_counts, pool);
}

DiscResult FastC(MTree* tree, double radius,
                 const std::vector<uint32_t>* initial_counts,
                 ThreadPool* pool) {
  return CoverageGreedy(tree, radius, /*fast=*/true, initial_counts, pool);
}

}  // namespace disc
