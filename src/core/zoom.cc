#include "core/zoom.h"

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/internal.h"
#include "util/indexed_heap.h"

namespace disc {

namespace {

using internal::Region;

// Shared zoom-in machinery. Candidates are the region's grey objects whose
// closest black representative is farther than the new (smaller) radius.
// Returns only the *newly added* objects; callers merge with the kept ones.
std::vector<ObjectId> ZoomInCore(MTree* tree, double r_new, bool greedy,
                                 bool observe_all, Region region) {
  auto uncovered = [&](ObjectId id) {
    return tree->color(id) == Color::kGrey && region.contains(id) &&
           tree->closest_black_dist(id) > r_new;
  };
  const internal::QuerySpec all{r_new, /*pruned=*/false};
  std::vector<ObjectId> added;

  if (!greedy) {
    // Zoom-In: Basic-DisC's pass over the candidates. A grey object that
    // lost its representative turns black on the spot; its unpruned query
    // records it as the new closest black of everything it now covers, so
    // later objects in the pass see up-to-date distances.
    internal::LeafOrderSelect(tree, all, uncovered, region, &added);
    return added;
  }

  // Greedy-Zoom-In (Algorithm 2): whiten the uncovered objects, then run
  // Greedy-DisC's selection over them, maintaining white-neighborhood counts
  // with grey-style updates. All queries can use the pruning rule because
  // white counters are live again.
  std::vector<ObjectId> whitened;
  tree->ScanLeaves(/*skip_grey_leaves=*/false, [&](ObjectId id) {
    if (!uncovered(id)) return;
    tree->SetColor(id, Color::kWhite);
    whitened.push_back(id);
  });
  IndexedMaxHeap heap = internal::SeedWhiteCounts(tree, r_new, whitened);
  // observe_all widens the selection query from pruned/white-only to
  // unpruned/all-colors: same whites found (so the same selection sequence
  // and the same heap maintenance), but already-grey neighbors of the new
  // black also observe their exact distance instead of keeping an upper
  // bound from some earlier black (see ZoomIn).
  const internal::QuerySpec white{r_new, /*pruned=*/true};
  internal::GreedySelect(tree, &heap, observe_all ? all : white,
                         {white, /*grey_style=*/true}, region, &added);
  return added;
}

// Shared zoom-out machinery (Algorithm 3). Returns the region's new
// solution; callers merge with any out-of-region selection.
std::vector<ObjectId> ZoomOutCore(MTree* tree, double r_new,
                                  ZoomOutVariant variant, Region region) {
  const size_t n = tree->size();

  // Recolor: black -> red (awaiting confirmation), grey -> white. Old
  // closest-black observations in the region are stale now.
  std::vector<ObjectId> reds;
  for (ObjectId id = 0; id < n; ++id) {
    if (!region.contains(id)) continue;
    if (tree->color(id) == Color::kBlack) {
      tree->SetColor(id, Color::kRed);
      reds.push_back(id);
    } else if (tree->color(id) == Color::kGrey) {
      tree->SetColor(id, Color::kWhite);
    }
    tree->ClearClosestBlackDistance(id);
  }

  std::vector<ObjectId> solution;
  std::vector<Neighbor> found;

  // ---- Pass 1: confirm or drop the old selection -----------------------
  // `alive[i]` tracks which reds are still undecided.
  std::vector<char> alive(reds.size(), 1);
  std::vector<size_t> red_index(n, std::numeric_limits<size_t>::max());
  for (size_t i = 0; i < reds.size(); ++i) red_index[reds[i]] = i;

  // Red-red adjacency at the new radius, for the most/fewest-red variants
  // and for dropping covered reds in O(deg).
  std::vector<std::vector<size_t>> red_adj(reds.size());
  for (size_t i = 0; i < reds.size(); ++i) {
    for (size_t j = i + 1; j < reds.size(); ++j) {
      if (tree->Distance(reds[i], reds[j]) <= r_new) {
        red_adj[i].push_back(j);
        red_adj[j].push_back(i);
      }
    }
  }

  IndexedMaxHeap red_heap(reds.size());
  switch (variant) {
    case ZoomOutVariant::kArbitrary:
      break;  // leaf order, no heap
    case ZoomOutVariant::kGreedyMostRed:
      for (size_t i = 0; i < reds.size(); ++i) {
        red_heap.Push(i, static_cast<int64_t>(red_adj[i].size()));
      }
      break;
    case ZoomOutVariant::kGreedyFewestRed:
      for (size_t i = 0; i < reds.size(); ++i) {
        red_heap.Push(i, -static_cast<int64_t>(red_adj[i].size()));
      }
      break;
    case ZoomOutVariant::kGreedyMostWhite:
      // A white-count query per red object: this is what makes variant (c)
      // expensive (Figure 15).
      for (size_t i = 0; i < reds.size(); ++i) {
        internal::QueryAround(*tree, reds[i], {r_new, /*pruned=*/true}, &found);
        red_heap.Push(i, static_cast<int64_t>(found.size()));
      }
      break;
  }

  // Confirms red #i into the new solution and greys everything it covers.
  auto select_red = [&](size_t i) {
    ObjectId pi = reds[i];
    alive[i] = 0;
    tree->SetColor(pi, Color::kBlack);
    solution.push_back(pi);
    internal::QueryAround(*tree, pi, {r_new, /*pruned=*/false}, &found);
    for (const Neighbor& nb : found) {
      if (!region.contains(nb.id)) continue;
      Color c = tree->color(nb.id);
      if (c == Color::kRed) {
        // A competing old pick is too close at r': drop it.
        size_t j = red_index[nb.id];
        alive[j] = 0;
        tree->SetColor(nb.id, Color::kGrey);
        if (red_heap.contains(j)) red_heap.Remove(j);
        if (variant == ZoomOutVariant::kGreedyMostRed ||
            variant == ZoomOutVariant::kGreedyFewestRed) {
          for (size_t k : red_adj[j]) {
            if (!red_heap.contains(k)) continue;
            red_heap.Adjust(
                k, variant == ZoomOutVariant::kGreedyFewestRed ? +1 : -1);
          }
        }
      } else if (c == Color::kWhite) {
        tree->SetColor(nb.id, Color::kGrey);
        if (variant == ZoomOutVariant::kGreedyMostWhite) {
          // Remaining reds near this white lose a potential covert.
          for (size_t k = 0; k < reds.size(); ++k) {
            if (!alive[k] || !red_heap.contains(k)) continue;
            if (tree->Distance(nb.id, reds[k]) <= r_new) {
              red_heap.Adjust(k, -1);
            }
          }
        }
      }
      tree->ObserveBlackNeighbor(nb.id, nb.dist);
    }
  };

  if (variant == ZoomOutVariant::kArbitrary) {
    // Leaf order over the red objects.
    tree->ScanLeaves(/*skip_grey_leaves=*/false, [&](ObjectId id) {
      if (tree->color(id) != Color::kRed) return;
      select_red(red_index[id]);
    });
  } else {
    while (!red_heap.empty()) {
      size_t i = red_heap.PopTop();
      // Heap members are alive by construction (dropped reds are removed).
      select_red(i);
    }
    // The "fewest red" adjustment above can only have touched alive reds;
    // removals keep the heap consistent, so every red is now decided.
  }

  // ---- Pass 2: cover the newly exposed areas ---------------------------
  if (variant == ZoomOutVariant::kArbitrary) {
    auto exposed = [&](ObjectId id) {
      return tree->color(id) == Color::kWhite && region.contains(id);
    };
    internal::LeafOrderSelect(tree, {r_new, /*pruned=*/false}, exposed,
                              region, &solution);
    return solution;
  }

  // Greedy second pass (Algorithm 3 lines 12-19): Greedy-DisC's selection
  // over the remaining whites.
  std::vector<ObjectId> whites;
  for (ObjectId id = 0; id < n; ++id) {
    if (tree->color(id) == Color::kWhite && region.contains(id)) {
      whites.push_back(id);
    }
  }
  IndexedMaxHeap heap = internal::SeedWhiteCounts(tree, r_new, whites);
  const internal::QuerySpec white{r_new, /*pruned=*/true};
  internal::GreedySelect(tree, &heap, white, {white, /*grey_style=*/true},
                         region, &solution);
  return solution;
}

}  // namespace

const char* ZoomOutVariantToString(ZoomOutVariant variant) {
  switch (variant) {
    case ZoomOutVariant::kArbitrary:
      return "arbitrary";
    case ZoomOutVariant::kGreedyMostRed:
      return "greedy-a";
    case ZoomOutVariant::kGreedyFewestRed:
      return "greedy-b";
    case ZoomOutVariant::kGreedyMostWhite:
      return "greedy-c";
  }
  return "unknown";
}

DiscResult ZoomIn(MTree* tree, double new_radius, bool greedy,
                  bool observe_all) {
  internal::RunScope scope(tree);
  // S^r' keeps all of S^r (Lemma 5), then adds the re-exposed objects.
  std::vector<ObjectId> solution = tree->ObjectsWithColor(Color::kBlack);
  std::vector<ObjectId> added =
      ZoomInCore(tree, new_radius, greedy, observe_all, Region{});
  solution.insert(solution.end(), added.begin(), added.end());
  return scope.Finish(std::move(solution));
}

DiscResult ZoomOut(MTree* tree, double new_radius, ZoomOutVariant variant) {
  internal::RunScope scope(tree);
  return scope.Finish(ZoomOutCore(tree, new_radius, variant, Region{}));
}

DiscResult LocalZoom(MTree* tree, ObjectId center, double old_radius,
                     double new_radius, bool greedy) {
  internal::RunScope scope(tree);

  // The operation's input is N_old_radius(center) plus the center itself.
  std::vector<char> member(tree->size(), 0);
  member[center] = 1;
  std::vector<Neighbor> in_region;
  internal::QueryAround(*tree, center, {old_radius, /*pruned=*/false},
                        &in_region);
  for (const Neighbor& nb : in_region) member[nb.id] = 1;
  Region region{&member};

  // Out-of-region selection is untouched.
  std::vector<ObjectId> solution;
  for (ObjectId id : tree->ObjectsWithColor(Color::kBlack)) {
    if (!region.contains(id)) solution.push_back(id);
  }

  if (new_radius < old_radius) {
    // Local zoom-in: previously selected region objects stay (superset
    // property holds within the region as well).
    for (ObjectId id : tree->ObjectsWithColor(Color::kBlack)) {
      if (region.contains(id)) solution.push_back(id);
    }
    std::vector<ObjectId> added =
        ZoomInCore(tree, new_radius, greedy, /*observe_all=*/false, region);
    solution.insert(solution.end(), added.begin(), added.end());
  } else {
    std::vector<ObjectId> region_solution = ZoomOutCore(
        tree, new_radius,
        greedy ? ZoomOutVariant::kGreedyMostRed : ZoomOutVariant::kArbitrary,
        region);
    solution.insert(solution.end(), region_solution.begin(),
                    region_solution.end());
  }
  return scope.Finish(std::move(solution));
}

}  // namespace disc
