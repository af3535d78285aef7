// Shared helpers for the core algorithm implementations. Internal header.
//
// Every DisC selection pass runs one of two loops, over all objects or over
// the ones a zoom left uncovered: LeafOrderSelect (Basic-DisC's leaf-chain
// pass) or GreedySelect (Greedy-DisC's L' loop). Both select through
// SelectAndCover, so they cover and record closest-black distances alike.

#ifndef DISC_CORE_INTERNAL_H_
#define DISC_CORE_INTERNAL_H_

#include <utility>
#include <vector>

#include "core/disc_algorithms.h"
#include "mtree/mtree.h"
#include "util/indexed_heap.h"
#include "util/stopwatch.h"

namespace disc {
namespace internal {

/// Captures the tree's access counters at construction and attributes the
/// delta (plus wall-clock) to the DiscResult produced at Finish().
class RunScope {
 public:
  explicit RunScope(MTree* tree) : tree_(tree), start_(tree->stats()) {}

  DiscResult Finish(std::vector<ObjectId> solution) {
    DiscResult result;
    result.solution = std::move(solution);
    result.stats = tree_->stats() - start_;
    result.wall_ms = watch_.ElapsedMillis();
    return result;
  }

 private:
  MTree* tree_;
  AccessStats start_;
  Stopwatch watch_;
};

/// Restriction of a pass to a subset of objects (local zooming). A null
/// membership vector means "everything" (global passes).
struct Region {
  const std::vector<char>* member = nullptr;

  bool contains(ObjectId id) const {
    return member == nullptr || (*member)[id] != 0;
  }
};

/// A selection pass's range query. A pruned query applies the §5.1 pruning
/// rule and reports only white objects; an unpruned one reports every object
/// in the ball, so each neighbor of a new black observes its exact distance.
struct QuerySpec {
  double radius;
  bool pruned;
};

/// Runs `query` around `center` into `out` (cleared first).
inline void QueryAround(const MTree& tree, ObjectId center,
                        const QuerySpec& query, std::vector<Neighbor>* out) {
  const QueryFilter filter =
      query.pruned ? QueryFilter::kWhiteOnly : QueryFilter::kAll;
  out->clear();
  tree.RangeQueryAround(center, query.radius, filter, query.pruned, out);
}

/// How GreedySelect maintains L' after each selection (§5.1): the update
/// query, and whether it runs around every newly-grey object (grey style)
/// or once around the selected object (white style).
struct Maintenance {
  QuerySpec update;
  bool grey_style;
};

/// Turns `id` black, appends it to `solution` and covers its neighborhood:
/// every white neighbor in `region` turns grey and is passed to `on_grey`,
/// and every neighbor observes its distance to the new black.
template <typename OnGrey>
void SelectAndCover(MTree* tree, ObjectId id, const QuerySpec& query,
                    Region region, std::vector<Neighbor>* found,
                    std::vector<ObjectId>* solution, OnGrey&& on_grey) {
  tree->SetColor(id, Color::kBlack);
  solution->push_back(id);
  QueryAround(*tree, id, query, found);
  for (const Neighbor& nb : *found) {
    if (region.contains(nb.id) && tree->color(nb.id) == Color::kWhite) {
      tree->SetColor(nb.id, Color::kGrey);
      on_grey(nb.id);
    }
    tree->ObserveBlackNeighbor(nb.id, nb.dist);
  }
}

/// Basic-DisC's pass: one scan of the leaf chain, in which every object
/// passing `is_candidate` (tested when the scan reaches it, so it sees the
/// colors earlier selections left) is selected with `query`. A pruned
/// query also skips all-grey leaves.
template <typename IsCandidate>
void LeafOrderSelect(MTree* tree, const QuerySpec& query,
                     IsCandidate&& is_candidate, Region region,
                     std::vector<ObjectId>* solution) {
  std::vector<Neighbor> found;
  tree->ScanLeaves(/*skip_grey_leaves=*/query.pruned, [&](ObjectId id) {
    if (!is_candidate(id)) return;
    SelectAndCover(tree, id, query, region, &found, solution, [](ObjectId) {});
  });
}

/// L' over `whites`, each keyed by its white-neighborhood size at `radius`
/// (one pruned white-only count query per object).
IndexedMaxHeap SeedWhiteCounts(MTree* tree, double radius,
                               const std::vector<ObjectId>& whites);

/// Greedy-DisC's L' loop. `heap` must hold exactly the white objects, all
/// of them in `region`; it is empty on return. Each step pops the top,
/// selects it with `select` and applies `maintenance`.
void GreedySelect(MTree* tree, IndexedMaxHeap* heap, const QuerySpec& select,
                  const Maintenance& maintenance, Region region,
                  std::vector<ObjectId>* solution);

}  // namespace internal
}  // namespace disc

#endif  // DISC_CORE_INTERNAL_H_
