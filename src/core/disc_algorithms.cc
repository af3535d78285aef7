#include "core/disc_algorithms.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/internal.h"
#include "util/indexed_heap.h"
#include "util/status.h"

namespace disc {

const char* GreedyVariantToString(GreedyVariant variant) {
  switch (variant) {
    case GreedyVariant::kGrey:
      return "grey";
    case GreedyVariant::kWhite:
      return "white";
    case GreedyVariant::kLazyGrey:
      return "lazy-grey";
    case GreedyVariant::kLazyWhite:
      return "lazy-white";
  }
  return "unknown";
}

const char* AlgorithmToString(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kBasic:
      return "basic";
    case Algorithm::kGreedy:
      return "greedy";
    case Algorithm::kGreedyWhite:
      return "greedy-white";
    case Algorithm::kLazyGrey:
      return "lazy-grey";
    case Algorithm::kLazyWhite:
      return "lazy-white";
    case Algorithm::kGreedyC:
      return "greedy-c";
    case Algorithm::kFastC:
      return "fast-c";
  }
  return "unknown";
}

Result<Algorithm> ParseAlgorithm(const std::string& name) {
  for (Algorithm algorithm :
       {Algorithm::kBasic, Algorithm::kGreedy, Algorithm::kGreedyWhite,
        Algorithm::kLazyGrey, Algorithm::kLazyWhite, Algorithm::kGreedyC,
        Algorithm::kFastC}) {
    if (name == AlgorithmToString(algorithm)) return algorithm;
  }
  return Status::InvalidArgument(
      "unknown algorithm '" + name +
      "' (want basic|greedy|greedy-white|lazy-grey|lazy-white|greedy-c|"
      "fast-c)");
}

bool IsDiscFamily(Algorithm algorithm) {
  return algorithm != Algorithm::kGreedyC && algorithm != Algorithm::kFastC;
}

bool AlgorithmUsesNeighborCounts(Algorithm algorithm) {
  return algorithm != Algorithm::kBasic;
}

namespace {

DiscResult RunGreedy(MTree* tree, double radius, GreedyVariant variant,
                     const AlgorithmRunOptions& options) {
  GreedyDiscOptions greedy;
  greedy.variant = variant;
  greedy.pruned = options.pruned;
  greedy.initial_counts = options.initial_counts;
  greedy.pool = options.pool;
  return GreedyDisc(tree, radius, greedy);
}

}  // namespace

DiscResult RunAlgorithm(MTree* tree, Algorithm algorithm, double radius,
                        const AlgorithmRunOptions& options) {
  switch (algorithm) {
    case Algorithm::kBasic:
      return BasicDisc(tree, radius, options.pruned);
    case Algorithm::kGreedy:
      return RunGreedy(tree, radius, GreedyVariant::kGrey, options);
    case Algorithm::kGreedyWhite:
      return RunGreedy(tree, radius, GreedyVariant::kWhite, options);
    case Algorithm::kLazyGrey:
      return RunGreedy(tree, radius, GreedyVariant::kLazyGrey, options);
    case Algorithm::kLazyWhite:
      return RunGreedy(tree, radius, GreedyVariant::kLazyWhite, options);
    case Algorithm::kGreedyC:
      return GreedyC(tree, radius, options.initial_counts, options.pool);
    case Algorithm::kFastC:
      return FastC(tree, radius, options.initial_counts, options.pool);
  }
  return DiscResult{};
}

DiscResult BasicDisc(MTree* tree, double radius, bool pruned) {
  internal::RunScope scope(tree);
  tree->ResetColors();
  // Pruned runs may skip already-grey neighbors, leaving their closest-black
  // distances incomplete; unpruned runs visit every neighbor and keep them
  // exact (see MTree::RecomputeClosestBlackDistances).
  const QueryFilter filter =
      pruned ? QueryFilter::kWhiteOnly : QueryFilter::kAll;

  std::vector<ObjectId> solution;
  std::vector<Neighbor> found;
  tree->ScanLeaves(/*skip_grey_leaves=*/pruned, [&](ObjectId id) {
    if (tree->color(id) != Color::kWhite) return;
    tree->SetColor(id, Color::kBlack);
    solution.push_back(id);
    found.clear();
    tree->RangeQueryAround(id, radius, filter, pruned, &found);
    for (const Neighbor& nb : found) {
      if (tree->color(nb.id) == Color::kWhite) {
        tree->SetColor(nb.id, Color::kGrey);
      }
      tree->ObserveBlackNeighbor(nb.id, nb.dist);
    }
  });
  return scope.Finish(std::move(solution));
}

DiscResult GreedyDisc(MTree* tree, double radius,
                      const GreedyDiscOptions& options) {
  internal::RunScope scope(tree);
  tree->ResetColors();
  const size_t n = tree->size();
  const QueryFilter filter =
      options.pruned ? QueryFilter::kWhiteOnly : QueryFilter::kAll;

  // L': every (white) object keyed by its white-neighborhood size.
  std::vector<uint32_t> counts;
  if (options.initial_counts != nullptr) {
    assert(options.initial_counts->size() == n);
    counts = *options.initial_counts;
  } else {
    tree->ComputeNeighborCountsPostBuild(radius, &counts, options.pool);
  }
  IndexedMaxHeap heap(n);
  for (ObjectId id = 0; id < n; ++id) {
    heap.Push(id, counts[id]);
  }

  // Update radius for neighborhood-size maintenance: the lazy variants
  // deliberately use a smaller radius, leaving distant counts stale (§6).
  double update_radius = radius;
  switch (options.variant) {
    case GreedyVariant::kGrey:
      update_radius = radius;
      break;
    case GreedyVariant::kLazyGrey:
      update_radius = radius / 2.0;
      break;
    case GreedyVariant::kWhite:
      update_radius = 2.0 * radius;
      break;
    case GreedyVariant::kLazyWhite:
      update_radius = 1.5 * radius;
      break;
  }
  const bool grey_style = options.variant == GreedyVariant::kGrey ||
                          options.variant == GreedyVariant::kLazyGrey;

  std::vector<ObjectId> solution;
  std::vector<Neighbor> found, update_found;
  std::vector<ObjectId> newly_grey;
  while (!heap.empty()) {
    // The heap holds exactly the white objects, so the top is the white
    // object with the largest (possibly stale, for lazy variants) count.
    ObjectId pi = heap.PopTop();
    assert(tree->color(pi) == Color::kWhite);
    tree->SetColor(pi, Color::kBlack);
    solution.push_back(pi);

    found.clear();
    tree->RangeQueryAround(pi, radius, filter, options.pruned, &found);
    newly_grey.clear();
    for (const Neighbor& nb : found) {
      if (tree->color(nb.id) == Color::kWhite) {
        tree->SetColor(nb.id, Color::kGrey);
        newly_grey.push_back(nb.id);
        heap.Remove(nb.id);
      }
      tree->ObserveBlackNeighbor(nb.id, nb.dist);
    }

    if (grey_style) {
      // One query per newly-grey object: its white neighbors lost one white
      // neighborhood member.
      for (ObjectId pj : newly_grey) {
        update_found.clear();
        tree->RangeQueryAround(pj, update_radius, filter, options.pruned,
                               &update_found);
        for (const Neighbor& nb : update_found) {
          if (tree->color(nb.id) == Color::kWhite && heap.contains(nb.id)) {
            heap.Adjust(nb.id, -1);
          }
        }
      }
    } else {
      // White-style: only white objects within 2r of pi can have lost white
      // neighbors. One query retrieves them; the per-object loss is counted
      // against the newly-grey list with plain distance computations.
      update_found.clear();
      tree->RangeQueryAround(pi, update_radius, filter, options.pruned,
                             &update_found);
      for (const Neighbor& nb : update_found) {
        if (tree->color(nb.id) != Color::kWhite || !heap.contains(nb.id)) {
          continue;
        }
        int64_t lost = 0;
        for (ObjectId pj : newly_grey) {
          if (tree->Distance(nb.id, pj) <= radius) ++lost;
        }
        if (lost > 0) heap.Adjust(nb.id, -lost);
      }
    }
  }
  return scope.Finish(std::move(solution));
}

}  // namespace disc
