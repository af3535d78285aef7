// Node splitting: promote two pivots, partition the overflowing node's
// entries between them, and wire the two new nodes into the parent
// (recursively splitting the parent on overflow). The promote/partition
// policy combinations reproduce the fat-factor spectrum of Figure 10.

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "mtree/mtree.h"
#include "mtree/mtree_internal.h"

namespace disc {

void MTree::SplitNode(NodeId node) {
  const bool is_leaf = nodes_[node].is_leaf;
  const size_t count = nodes_[node].size;
  assert(count > options_.node_capacity);
  ++stats_.node_accesses;  // the overflowing node is rewritten

  // The entries, whose ids are what they are centered on (objects for
  // leaves, child pivots for internal nodes).
  const std::vector<Entry> entries(node_entries(node),
                                   node_entries(node) + count);
  std::vector<ObjectId> ids(count);
  for (size_t i = 0; i < count; ++i) ids[i] = entries[i].id;
  const ObjectId node_pivot = nodes_[node].pivot;

  // ---- Promote ----
  ObjectId pivot_a = kInvalidObject, pivot_b = kInvalidObject;
  switch (options_.split_policy.promote) {
    case PromotePolicy::kKeepParent: {
      // Keep the node's existing pivot; promote the entry farthest from it.
      // A freshly split root has no pivot: fall back to the first entry.
      pivot_a = node_pivot != kInvalidObject ? node_pivot : ids[0];
      double best = -1.0;
      for (ObjectId id : ids) {
        if (id == pivot_a) continue;
        double d = Distance(pivot_a, id);
        if (d > best) {
          best = d;
          pivot_b = id;
        }
      }
      break;
    }
    case PromotePolicy::kMaxDistance: {
      double best = -1.0;
      for (size_t i = 0; i < count; ++i) {
        for (size_t j = i + 1; j < count; ++j) {
          double d = Distance(ids[i], ids[j]);
          if (d > best) {
            best = d;
            pivot_a = ids[i];
            pivot_b = ids[j];
          }
        }
      }
      break;
    }
    case PromotePolicy::kRandom: {
      size_t i = static_cast<size_t>(NextRandom(&rng_state_) % count);
      size_t j = static_cast<size_t>(NextRandom(&rng_state_) % (count - 1));
      if (j >= i) ++j;
      pivot_a = ids[i];
      pivot_b = ids[j];
      break;
    }
  }
  assert(pivot_a != kInvalidObject && pivot_b != kInvalidObject);
  assert(pivot_a != pivot_b);

  // ---- Partition ----
  // Distances from every entry's center to both pivots.
  std::vector<double> da(count), db(count);
  for (size_t i = 0; i < count; ++i) {
    da[i] = Distance(ids[i], pivot_a);
    db[i] = Distance(ids[i], pivot_b);
  }

  std::vector<char> to_a(count, 0);
  switch (options_.split_policy.partition) {
    case PartitionPolicy::kClosestPivot: {
      size_t size_a = 0, size_b = 0;
      for (size_t i = 0; i < count; ++i) {
        bool a_side;
        if (da[i] != db[i]) {
          a_side = da[i] < db[i];
        } else {
          a_side = size_a <= size_b;  // deterministic tie-break
        }
        to_a[i] = a_side;
        (a_side ? size_a : size_b)++;
      }
      // Minimum-fill guarantee (standard M-tree utilization bound): without
      // it, the keep-parent policy produces chronically underfilled siblings
      // and ~25% more nodes, which dominates query cost at large radii.
      // Top up the small side with the entries whose pivot-distance margin
      // is smallest (they fit the small side's ball almost as well).
      const size_t min_fill = std::max<size_t>(1, count / 3);
      while (std::min(size_a, size_b) < min_fill) {
        const bool fill_a = size_a < size_b;
        size_t best = count;  // invalid
        double best_margin = std::numeric_limits<double>::infinity();
        for (size_t i = 0; i < count; ++i) {
          if (to_a[i] == fill_a) continue;
          double margin = fill_a ? da[i] - db[i] : db[i] - da[i];
          if (margin < best_margin) {
            best_margin = margin;
            best = i;
          }
        }
        to_a[best] = fill_a;
        (fill_a ? size_a : size_b)++;
        (fill_a ? size_b : size_a)--;
      }
      break;
    }
    case PartitionPolicy::kBalanced: {
      // Sort by how much closer the entry is to pivot A, then give the first
      // half to A — equal fanout regardless of geometry.
      std::vector<size_t> order(count);
      for (size_t i = 0; i < count; ++i) order[i] = i;
      std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
        return (da[x] - db[x]) < (da[y] - db[y]);
      });
      for (size_t k = 0; k < count; ++k) {
        to_a[order[k]] = k < (count + 1) / 2;
      }
      break;
    }
  }

  // ---- Rebuild the two nodes ----
  // `node` is reused for side A (it keeps its slot in the parent and, for
  // leaves, its place in the leaf chain); `sib` is fresh for side B. Both
  // refill their slots in the original entry order.
  const NodeId sib = NewNode(is_leaf, options_.node_capacity + 1);
  ++stats_.node_accesses;  // the new sibling is written
  nodes_[node].size = 0;

  double radius_a = 0.0, radius_b = 0.0;
  uint32_t white_a = 0, white_b = 0;
  for (size_t i = 0; i < count; ++i) {
    const NodeId target = to_a[i] ? node : sib;
    Entry entry = entries[i];
    entry.parent_dist = to_a[i] ? da[i] : db[i];
    double& radius = to_a[i] ? radius_a : radius_b;
    uint32_t& white = to_a[i] ? white_a : white_b;
    if (is_leaf) {
      leaf_of_[entry.id] = target;
      if (colors_[entry.id] == Color::kWhite) ++white;
      radius = std::max(radius, entry.parent_dist);
    } else {
      // Upper bound via the triangle inequality.
      radius = std::max(radius, entry.parent_dist + entry.radius);
      white += white_counts_[entry.child];
      nodes_[entry.child].parent = target;
    }
    AppendEntry(target, entry);
  }
  white_counts_[node] = white_a;
  white_counts_[sib] = white_b;
  if (is_leaf) {
    // Splice the sibling into the leaf chain right after `node`.
    const NodeId next = nodes_[node].next_leaf;
    nodes_[sib].next_leaf = next;
    nodes_[sib].prev_leaf = node;
    if (next != kNoNode) nodes_[next].prev_leaf = sib;
    nodes_[node].next_leaf = sib;
  }
  nodes_[node].pivot = pivot_a;
  nodes_[sib].pivot = pivot_b;

  // ---- Wire into the parent ----
  if (node == root_) {
    const NodeId new_root = NewNode(/*is_leaf=*/false,
                                    options_.node_capacity + 1);
    ++stats_.node_accesses;  // the new root is written
    white_counts_[new_root] = white_a + white_b;
    nodes_[node].parent = new_root;
    nodes_[sib].parent = new_root;
    AppendEntry(new_root, Entry{pivot_a, node, 0.0, radius_a});
    AppendEntry(new_root, Entry{pivot_b, sib, 0.0, radius_b});
    root_ = new_root;
    return;
  }

  const NodeId parent = nodes_[node].parent;
  ++stats_.node_accesses;  // the parent is rewritten
  nodes_[sib].parent = parent;
  const ObjectId parent_pivot = nodes_[parent].pivot;
  const size_t begin = nodes_[parent].begin;
  const size_t size = nodes_[parent].size;
  size_t slot = 0;
  while (slot < size && entries_[begin + slot].child != node) ++slot;
  assert(slot < size);

  const double dist_a =
      parent_pivot == kInvalidObject ? 0.0 : Distance(pivot_a, parent_pivot);
  const double dist_b =
      parent_pivot == kInvalidObject ? 0.0 : Distance(pivot_b, parent_pivot);
  // Shift the entries after `slot` right by one (the block has room for
  // the overflow entry) and write side B's entry into the gap.
  std::copy_backward(entries_.begin() + begin + slot + 1,
                     entries_.begin() + begin + size,
                     entries_.begin() + begin + size + 1);
  std::copy_backward(entry_coords_.begin() + (begin + slot + 1) * dim_,
                     entry_coords_.begin() + (begin + size) * dim_,
                     entry_coords_.begin() + (begin + size + 1) * dim_);
  WriteEntry(begin + slot, Entry{pivot_a, node, dist_a, radius_a});
  WriteEntry(begin + slot + 1, Entry{pivot_b, sib, dist_b, radius_b});
  ++nodes_[parent].size;

  if (nodes_[parent].size > options_.node_capacity) {
    SplitNode(parent);
  }
}

}  // namespace disc
