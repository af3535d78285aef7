// Greedy-DisC's L' loop and its heap seeding, shared by every greedy
// selection pass (see core/internal.h).

#include <cassert>
#include <cstdint>
#include <vector>

#include "core/internal.h"

namespace disc {
namespace internal {

IndexedMaxHeap SeedWhiteCounts(MTree* tree, double radius,
                               const std::vector<ObjectId>& whites) {
  IndexedMaxHeap heap(tree->size());
  std::vector<Neighbor> found;
  for (ObjectId w : whites) {
    QueryAround(*tree, w, {radius, /*pruned=*/true}, &found);
    heap.Push(w, static_cast<int64_t>(found.size()));
  }
  return heap;
}

void GreedySelect(MTree* tree, IndexedMaxHeap* heap, const QuerySpec& select,
                  const Maintenance& maintenance, Region region,
                  std::vector<ObjectId>* solution) {
  const QuerySpec& update = maintenance.update;
  std::vector<Neighbor> found, update_found;
  std::vector<ObjectId> newly_grey;
  auto on_grey = [&](ObjectId id) {
    newly_grey.push_back(id);
    heap->Remove(id);
  };
  while (!heap->empty()) {
    // The heap holds exactly the white objects, so the top is the white
    // object with the largest (possibly stale, for lazy variants) count,
    // and every object the selection greys is in the heap.
    ObjectId pi = heap->PopTop();
    assert(tree->color(pi) == Color::kWhite);
    newly_grey.clear();
    SelectAndCover(tree, pi, select, region, &found, solution, on_grey);

    if (maintenance.grey_style) {
      // One query per newly-grey object: its white neighbors lost one white
      // neighborhood member.
      for (ObjectId pj : newly_grey) {
        QueryAround(*tree, pj, update, &update_found);
        for (const Neighbor& nb : update_found) {
          if (heap->contains(nb.id)) heap->Adjust(nb.id, -1);
        }
      }
    } else {
      // White style: only white objects within 2r of pi can have lost white
      // neighbors. One query retrieves them; the per-object loss is counted
      // against the newly-grey list with plain distance computations.
      QueryAround(*tree, pi, update, &update_found);
      for (const Neighbor& nb : update_found) {
        if (!heap->contains(nb.id)) continue;
        int64_t lost = 0;
        for (ObjectId pj : newly_grey) {
          if (tree->Distance(nb.id, pj) <= select.radius) ++lost;
        }
        if (lost > 0) heap->Adjust(nb.id, -lost);
      }
    }
  }
}

}  // namespace internal
}  // namespace disc
