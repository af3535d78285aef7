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

DiscResult BasicDisc(MTree* tree, double radius, bool pruned) {
  internal::RunScope scope(tree);
  tree->ResetColors();
  // Pruned runs may skip already-grey neighbors, leaving their closest-black
  // distances incomplete; unpruned runs visit every neighbor and keep them
  // exact (see MTree::RecomputeClosestBlackDistances).
  auto is_white = [tree](ObjectId id) {
    return tree->color(id) == Color::kWhite;
  };
  std::vector<ObjectId> solution;
  internal::LeafOrderSelect(tree, {radius, pruned}, is_white,
                            internal::Region{}, &solution);
  return scope.Finish(std::move(solution));
}

namespace {

/// How a Greedy-DisC variant maintains L' (§5.1) around selections made
/// with `select`: its update queries prune as `select` does, at the
/// variant's update radius, and run grey or white style. The lazy variants
/// deliberately use a smaller radius, leaving distant counts stale (§6).
internal::Maintenance MaintenanceFor(Algorithm variant,
                                     const internal::QuerySpec& select) {
  switch (variant) {
    case Algorithm::kLazyGrey:
      return {{select.radius / 2.0, select.pruned}, /*grey_style=*/true};
    case Algorithm::kGreedyWhite:
      return {{2.0 * select.radius, select.pruned}, /*grey_style=*/false};
    case Algorithm::kLazyWhite:
      return {{1.5 * select.radius, select.pruned}, /*grey_style=*/false};
    default:
      return {select, /*grey_style=*/true};
  }
}

/// Greedy-DisC in the `variant` Algorithm names (kGreedy, kGreedyWhite,
/// kLazyGrey or kLazyWhite).
DiscResult RunGreedyDisc(MTree* tree, double radius, Algorithm variant,
                         const AlgorithmRunOptions& options) {
  internal::RunScope scope(tree);
  tree->ResetColors();
  const size_t n = tree->size();

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

  const internal::QuerySpec select{radius, options.pruned};
  std::vector<ObjectId> solution;
  internal::GreedySelect(tree, &heap, select, MaintenanceFor(variant, select),
                         internal::Region{}, &solution);
  return scope.Finish(std::move(solution));
}

}  // namespace

DiscResult GreedyDisc(MTree* tree, double radius,
                      const AlgorithmRunOptions& options) {
  return RunGreedyDisc(tree, radius, Algorithm::kGreedy, options);
}

DiscResult RunAlgorithm(MTree* tree, Algorithm algorithm, double radius,
                        const AlgorithmRunOptions& options) {
  switch (algorithm) {
    case Algorithm::kBasic:
      return BasicDisc(tree, radius, options.pruned);
    case Algorithm::kGreedy:
    case Algorithm::kGreedyWhite:
    case Algorithm::kLazyGrey:
    case Algorithm::kLazyWhite:
      return RunGreedyDisc(tree, radius, algorithm, options);
    case Algorithm::kGreedyC:
      return GreedyC(tree, radius, options.initial_counts, options.pool);
    case Algorithm::kFastC:
      return FastC(tree, radius, options.initial_counts, options.pool);
  }
  return DiscResult{};
}

}  // namespace disc
