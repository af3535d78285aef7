// Bulk loading: builds the whole M-tree at once instead of inserting objects
// one at a time, in the style of Ciaccia & Patella's BulkLoading algorithm.
//
// Phase 1 clusters the objects into leaf-sized groups by sampled-recursive
// partitioning: sample k seeds, assign every object to its nearest seed, and
// recurse into groups still larger than the node capacity. Phase 2 turns the
// groups into leaves (pivot = group seed, covering radius = farthest member)
// and then assembles the internal levels bottom-up by clustering the pivots
// of the level below, so every level satisfies the same covering-radius and
// parent-distance invariants the insert path maintains (MTree::Validate
// checks both builds against the identical rules).
//
// Compared with insert-at-a-time the bulk path performs no node splits and
// no per-object root-to-leaf descents, which makes construction cheaper, and
// the seeded clustering yields tighter balls, which makes downstream range
// queries cheaper too (measured in bench_ablation_mtree).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mtree/mtree.h"
#include "mtree/mtree_internal.h"

namespace disc {

namespace {

// One object assigned to a cluster, with its distance to the cluster seed
// (reused as the leaf entry's parent_dist, so assignment distances are never
// recomputed).
struct Member {
  ObjectId id;
  double dist_to_seed;
};

// A group of at most node_capacity objects clustered around `seed` (which is
// itself a member, at distance 0).
struct Cluster {
  ObjectId seed;
  std::vector<Member> members;
};

// Sampled-recursive partitioner. Works on plain object ids, so the same
// instance clusters dataset objects into leaves and node pivots into
// internal levels.
class SeedPartitioner {
 public:
  using DistFn = double (*)(const MTree&, ObjectId, ObjectId);

  SeedPartitioner(const MTree& tree, DistFn dist, size_t max_group,
                  uint64_t* rng)
      : tree_(tree), dist_(dist), max_group_(max_group), rng_(rng) {}

  std::vector<Cluster> Partition(std::vector<ObjectId> ids) {
    std::vector<Cluster> out;
    Recurse(std::move(ids), &out);
    return out;
  }

 private:
  void Recurse(std::vector<ObjectId> ids, std::vector<Cluster>* out) {
    const size_t n = ids.size();
    if (n <= max_group_) {
      EmitChunks(ids, out);
      return;
    }

    // Sample k distinct seeds with a partial Fisher-Yates shuffle. k is the
    // number of max_group_-sized groups the ids would ideally form, but
    // capped low: assignment costs n*k distances per recursion step, so a
    // small fanout with one extra recursion level is far cheaper than
    // matching the final fanout in one step (n*F*log_F(n) vs n*n/cap).
    constexpr size_t kMaxSeeds = 8;
    const size_t ideal = (n + max_group_ - 1) / max_group_;
    const size_t k =
        std::min({max_group_, kMaxSeeds, std::max<size_t>(2, ideal)});
    for (size_t i = 0; i < k; ++i) {
      size_t j = i + static_cast<size_t>(NextRandom(rng_) % (n - i));
      std::swap(ids[i], ids[j]);
    }

    // Assign every id to its nearest seed (ties toward the earlier seed).
    std::vector<std::vector<Member>> groups(k);
    for (ObjectId id : ids) {
      size_t best = 0;
      double best_dist = std::numeric_limits<double>::infinity();
      for (size_t s = 0; s < k; ++s) {
        double d = dist_(tree_, id, ids[s]);
        if (d < best_dist) {
          best_dist = d;
          best = s;
        }
      }
      groups[best].push_back(Member{id, best_dist});
    }

    for (size_t s = 0; s < k; ++s) {
      if (groups[s].empty()) continue;
      if (groups[s].size() == n) {
        // Degenerate geometry (e.g. all points coincide): assignment made no
        // progress, so split positionally instead of spatially.
        EmitChunks(ids, out);
        return;
      }
      if (groups[s].size() <= max_group_) {
        out->push_back(Cluster{ids[s], std::move(groups[s])});
      } else {
        std::vector<ObjectId> sub;
        sub.reserve(groups[s].size());
        for (const Member& m : groups[s]) sub.push_back(m.id);
        Recurse(std::move(sub), out);
      }
    }
  }

  // Fallback that always makes progress: consecutive runs of at most
  // max_group_ ids, each seeded by its first element.
  void EmitChunks(const std::vector<ObjectId>& ids,
                  std::vector<Cluster>* out) {
    for (size_t begin = 0; begin < ids.size(); begin += max_group_) {
      const size_t end = std::min(ids.size(), begin + max_group_);
      Cluster cluster;
      cluster.seed = ids[begin];
      cluster.members.reserve(end - begin);
      for (size_t i = begin; i < end; ++i) {
        cluster.members.push_back(
            Member{ids[i], dist_(tree_, ids[i], cluster.seed)});
      }
      out->push_back(std::move(cluster));
    }
  }

  const MTree& tree_;
  DistFn dist_;
  size_t max_group_;
  uint64_t* rng_;
};

double TreeDistance(const MTree& tree, ObjectId a, ObjectId b) {
  return tree.Distance(a, b);
}

}  // namespace

Status MTree::BulkLoad() {
  DISC_RETURN_NOT_OK(CheckBuildPreconditions());
  InitObjectState();
  const size_t n = dataset_.size();
  const size_t capacity = options_.node_capacity;

  if (n <= capacity) {
    // Everything fits in one leaf, which doubles as the root (pivot-less,
    // infinite radius — the same degenerate shape the insert path produces).
    root_ = NewNode(/*is_leaf=*/true, n);
    first_leaf_ = root_;
    ++stats_.node_accesses;
    for (ObjectId id = 0; id < n; ++id) {
      AppendEntry(root_, Entry{id, kNoNode, 0.0, 0.0});
      leaf_of_[id] = root_;
    }
    built_ = true;
    ResetColors();
    return Status::OK();
  }

  SeedPartitioner partitioner(*this, &TreeDistance, capacity, &rng_state_);

  // ---- Phase 1: cluster objects into leaf-sized groups ----
  std::vector<ObjectId> ids(n);
  for (ObjectId id = 0; id < n; ++id) ids[id] = id;
  std::vector<Cluster> clusters = partitioner.Partition(std::move(ids));

  // Every node gets exactly its entries' slots: the leaves hold the n
  // objects, and every node but the root is one routing entry of its parent.
  entries_.reserve(n + 2 * clusters.size());
  entry_coords_.reserve((n + 2 * clusters.size()) * dim_);

  // ---- Phase 2a: materialize the leaf level (and the leaf chain) ----
  // `level` holds the current level's nodes, `level_radius` their covering
  // radii (what the routing entries pointing at them will record).
  std::vector<NodeId> level;
  std::vector<double> level_radius;
  level.reserve(clusters.size());
  level_radius.reserve(clusters.size());
  NodeId prev_leaf = kNoNode;
  for (const Cluster& cluster : clusters) {
    const NodeId leaf = NewNode(/*is_leaf=*/true, cluster.members.size());
    ++stats_.node_accesses;  // the new leaf is written
    nodes_[leaf].pivot = cluster.seed;
    double radius = 0.0;
    for (const Member& m : cluster.members) {
      AppendEntry(leaf, Entry{m.id, kNoNode, m.dist_to_seed, 0.0});
      leaf_of_[m.id] = leaf;
      radius = std::max(radius, m.dist_to_seed);
    }
    white_counts_[leaf] = static_cast<uint32_t>(cluster.members.size());
    nodes_[leaf].prev_leaf = prev_leaf;
    if (prev_leaf != kNoNode) {
      nodes_[prev_leaf].next_leaf = leaf;
    } else {
      first_leaf_ = leaf;
    }
    prev_leaf = leaf;
    level.push_back(leaf);
    level_radius.push_back(radius);
  }

  // ---- Phase 2b: assemble internal levels bottom-up ----
  // Each pass clusters the current level's pivots and wraps every cluster in
  // a parent node whose covering radius bounds its children via the triangle
  // inequality (parent_dist + child radius).
  while (level.size() > capacity) {
    std::unordered_map<ObjectId, size_t> index_of_pivot;
    index_of_pivot.reserve(level.size());
    std::vector<ObjectId> pivots;
    pivots.reserve(level.size());
    for (size_t i = 0; i < level.size(); ++i) {
      index_of_pivot.emplace(nodes_[level[i]].pivot, i);
      pivots.push_back(nodes_[level[i]].pivot);
    }

    std::vector<Cluster> groups = partitioner.Partition(std::move(pivots));
    if (groups.size() >= level.size()) {
      // All-singleton clustering (pathological ties) would never converge;
      // group the nodes positionally instead.
      groups.clear();
      for (size_t begin = 0; begin < level.size(); begin += capacity) {
        const size_t end = std::min(level.size(), begin + capacity);
        Cluster group;
        group.seed = nodes_[level[begin]].pivot;
        for (size_t i = begin; i < end; ++i) {
          const ObjectId pivot = nodes_[level[i]].pivot;
          group.members.push_back(Member{pivot, Distance(pivot, group.seed)});
        }
        groups.push_back(std::move(group));
      }
    }

    std::vector<NodeId> next_level;
    std::vector<double> next_radius;
    next_level.reserve(groups.size());
    next_radius.reserve(groups.size());
    for (const Cluster& group : groups) {
      const NodeId parent =
          NewNode(/*is_leaf=*/false, group.members.size());
      ++stats_.node_accesses;  // the new internal node is written
      nodes_[parent].pivot = group.seed;
      double radius = 0.0;
      for (const Member& m : group.members) {
        const size_t index = index_of_pivot.at(m.id);
        const NodeId child = level[index];
        const double child_radius = level_radius[index];
        radius = std::max(radius, m.dist_to_seed + child_radius);
        white_counts_[parent] += white_counts_[child];
        nodes_[child].parent = parent;
        AppendEntry(parent,
                    Entry{m.id, child, m.dist_to_seed, child_radius});
      }
      next_level.push_back(parent);
      next_radius.push_back(radius);
    }
    level = std::move(next_level);
    level_radius = std::move(next_radius);
  }

  // ---- Phase 2c: the root adopts the surviving top level ----
  root_ = NewNode(/*is_leaf=*/false, level.size());
  ++stats_.node_accesses;  // the root is written
  for (size_t i = 0; i < level.size(); ++i) {
    const NodeId child = level[i];
    white_counts_[root_] += white_counts_[child];
    nodes_[child].parent = root_;
    AppendEntry(root_,
                Entry{nodes_[child].pivot, child, 0.0, level_radius[i]});
  }

  built_ = true;
  ResetColors();
  return Status::OK();
}

}  // namespace disc
