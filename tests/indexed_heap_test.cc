#include "util/indexed_heap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <numeric>
#include <vector>

#include "util/random.h"

namespace disc {
namespace {

TEST(IndexedMaxHeapTest, StartsEmpty) {
  IndexedMaxHeap heap(10);
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(heap.size(), 0u);
  EXPECT_FALSE(heap.contains(0));
}

TEST(IndexedMaxHeapTest, PushAndTop) {
  IndexedMaxHeap heap(10);
  heap.Push(3, 5);
  EXPECT_EQ(heap.Top(), 3u);
  EXPECT_EQ(heap.TopPriority(), 5);
  heap.Push(7, 9);
  EXPECT_EQ(heap.Top(), 7u);
}

TEST(IndexedMaxHeapTest, TiesBreakTowardSmallerId) {
  IndexedMaxHeap heap(10);
  heap.Push(5, 4);
  heap.Push(2, 4);
  heap.Push(8, 4);
  EXPECT_EQ(heap.PopTop(), 2u);
  EXPECT_EQ(heap.PopTop(), 5u);
  EXPECT_EQ(heap.PopTop(), 8u);
}

TEST(IndexedMaxHeapTest, PopTopRemoves) {
  IndexedMaxHeap heap(4);
  heap.Push(0, 1);
  heap.Push(1, 2);
  EXPECT_EQ(heap.PopTop(), 1u);
  EXPECT_FALSE(heap.contains(1));
  EXPECT_EQ(heap.size(), 1u);
}

TEST(IndexedMaxHeapTest, RemoveArbitrary) {
  IndexedMaxHeap heap(8);
  for (size_t i = 0; i < 8; ++i) heap.Push(i, static_cast<int64_t>(i));
  heap.Remove(4);
  EXPECT_FALSE(heap.contains(4));
  EXPECT_EQ(heap.size(), 7u);
  std::vector<size_t> order;
  while (!heap.empty()) order.push_back(heap.PopTop());
  EXPECT_EQ(order, (std::vector<size_t>{7, 6, 5, 3, 2, 1, 0}));
}

TEST(IndexedMaxHeapTest, UpdateRaisesPriority) {
  IndexedMaxHeap heap(4);
  heap.Push(0, 1);
  heap.Push(1, 2);
  heap.Update(0, 10);
  EXPECT_EQ(heap.Top(), 0u);
  EXPECT_EQ(heap.priority(0), 10);
}

TEST(IndexedMaxHeapTest, UpdateLowersPriority) {
  IndexedMaxHeap heap(4);
  heap.Push(0, 5);
  heap.Push(1, 3);
  heap.Update(0, 1);
  EXPECT_EQ(heap.Top(), 1u);
}

TEST(IndexedMaxHeapTest, AdjustDelta) {
  IndexedMaxHeap heap(4);
  heap.Push(2, 5);
  heap.Adjust(2, -3);
  EXPECT_EQ(heap.priority(2), 2);
  heap.Adjust(2, +10);
  EXPECT_EQ(heap.priority(2), 12);
}

TEST(IndexedMaxHeapTest, NegativePrioritiesWork) {
  IndexedMaxHeap heap(4);
  heap.Push(0, -5);
  heap.Push(1, -2);
  heap.Push(2, -9);
  EXPECT_EQ(heap.PopTop(), 1u);
  EXPECT_EQ(heap.PopTop(), 0u);
  EXPECT_EQ(heap.PopTop(), 2u);
}

TEST(IndexedMaxHeapTest, ClearEmptiesAndAllowsReuse) {
  IndexedMaxHeap heap(4);
  heap.Push(0, 1);
  heap.Push(1, 2);
  heap.Clear();
  EXPECT_TRUE(heap.empty());
  EXPECT_FALSE(heap.contains(0));
  heap.Push(0, 5);
  EXPECT_EQ(heap.Top(), 0u);
}

TEST(IndexedMaxHeapTest, PopAllSortedOrder) {
  IndexedMaxHeap heap(100);
  Random rng(42);
  std::vector<int64_t> priorities;
  for (size_t i = 0; i < 100; ++i) {
    int64_t p = static_cast<int64_t>(rng.UniformInt(50));
    heap.Push(i, p);
    priorities.push_back(p);
  }
  int64_t prev = INT64_MAX;
  size_t prev_id = 0;
  while (!heap.empty()) {
    int64_t p = heap.TopPriority();
    size_t id = heap.PopTop();
    if (p == prev) {
      EXPECT_GT(id, prev_id);  // ties ascend by id
    } else {
      EXPECT_LT(p, prev);
    }
    prev = p;
    prev_id = id;
  }
}

// The op mix of a randomized differential run against a naive map-based
// priority queue: relative weights of each operation.
struct OpMix {
  int push;
  int pop;
  int peek;      // Top() / TopPriority() with no pop
  int update;    // Update to a random priority in the key range
  int decrease;  // Adjust(-1)
  int increase;  // Adjust(+1)
  int remove;
  int clear;
  int64_t key_range;  // priorities drawn from [-key_range/2, key_range/2)
};

void RunRandomOps(const OpMix& mix, uint64_t seed, int steps) {
  const size_t capacity = 64;
  IndexedMaxHeap heap(capacity);
  std::map<size_t, int64_t> naive;
  Random rng(seed);

  auto naive_top = [&]() {
    size_t best_id = 0;
    int64_t best_p = INT64_MIN;
    for (const auto& [id, p] : naive) {
      if (p > best_p || (p == best_p && id < best_id)) {
        best_p = p;
        best_id = id;
      }
    }
    return std::make_pair(best_id, best_p);
  };
  auto random_key = [&]() {
    return static_cast<int64_t>(
               rng.UniformInt(static_cast<uint64_t>(mix.key_range))) -
           mix.key_range / 2;
  };
  auto random_member = [&]() {
    auto it = naive.begin();
    std::advance(it, rng.UniformInt(naive.size()));
    return it;
  };

  const int weights[] = {mix.push,     mix.pop,      mix.peek,
                         mix.update,   mix.decrease, mix.increase,
                         mix.remove,   mix.clear};
  int cumulative[std::size(weights)];
  std::partial_sum(std::begin(weights), std::end(weights), cumulative);
  for (int step = 0; step < steps; ++step) {
    const int roll = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(std::end(cumulative)[-1])));
    const int op = static_cast<int>(
        std::upper_bound(std::begin(cumulative), std::end(cumulative), roll) -
        std::begin(cumulative));
    if (op == 0) {  // push
      size_t id = rng.UniformInt(capacity);
      if (!naive.count(id)) {
        int64_t p = random_key();
        heap.Push(id, p);
        naive[id] = p;
      }
    } else if (naive.empty()) {
      // every other op needs a member
    } else if (op == 1) {  // pop top
      auto [id, p] = naive_top();
      ASSERT_EQ(heap.Top(), id);
      ASSERT_EQ(heap.TopPriority(), p);
      ASSERT_EQ(heap.PopTop(), id);
      naive.erase(id);
    } else if (op == 2) {  // peek
      auto [id, p] = naive_top();
      ASSERT_EQ(heap.TopPriority(), p);
      ASSERT_EQ(heap.Top(), id);
    } else if (op == 3) {  // update random
      auto it = random_member();
      int64_t p = random_key();
      heap.Update(it->first, p);
      it->second = p;
      ASSERT_EQ(heap.priority(it->first), p);
    } else if (op == 4 || op == 5) {  // adjust by -1 / +1
      auto it = random_member();
      const int64_t delta = op == 4 ? -1 : +1;
      heap.Adjust(it->first, delta);
      it->second += delta;
      ASSERT_EQ(heap.priority(it->first), it->second);
    } else if (op == 6) {  // remove random
      auto it = random_member();
      heap.Remove(it->first);
      ASSERT_FALSE(heap.contains(it->first));
      naive.erase(it);
    } else {  // clear, then the loop reuses the heap
      heap.Clear();
      naive.clear();
      EXPECT_TRUE(heap.empty());
    }
    ASSERT_EQ(heap.size(), naive.size());
  }
  // Drain: the remaining order must match, ties toward the smaller id.
  while (!naive.empty()) {
    auto [id, p] = naive_top();
    ASSERT_EQ(heap.TopPriority(), p);
    ASSERT_EQ(heap.PopTop(), id);
    naive.erase(id);
  }
  EXPECT_TRUE(heap.empty());
}

// Randomized differential test against a naive map-based priority queue:
// first a balanced mix over a wide key range, then the L' mix — dominated
// by unit decreases on densely tied keys, with increases that can pass a
// stale stored key, peeks, removals of stale entries and clear-and-reuse.
TEST(IndexedMaxHeapTest, MatchesNaiveImplementationUnderRandomOps) {
  RunRandomOps({.push = 1, .pop = 1, .peek = 0, .update = 1, .decrease = 0,
                .increase = 0, .remove = 1, .clear = 0, .key_range = 100},
               /*seed=*/99, /*steps=*/5000);
  for (uint64_t seed : {1u, 2u, 3u}) {
    RunRandomOps({.push = 8, .pop = 2, .peek = 3, .update = 1,
                  .decrease = 40, .increase = 6, .remove = 1, .clear = 0,
                  .key_range = 8},
                 seed, /*steps=*/20000);
  }
  RunRandomOps({.push = 8, .pop = 2, .peek = 3, .update = 1, .decrease = 40,
                .increase = 6, .remove = 1, .clear = 1, .key_range = 8},
               /*seed=*/4, /*steps=*/20000);
}

}  // namespace
}  // namespace disc
