// An indexed binary max-heap over dense integer ids, with deferred decreases.
//
// This is the priority structure the paper calls L': Greedy-DisC repeatedly
// extracts the object with the largest white neighborhood and must also
// decrement the priorities of arbitrary objects as their neighbors turn grey
// — about n * average-degree decrements per run, against one extraction per
// selected object. The heap is built for that mix:
//
//   * Each id's true priority lives in an id-indexed array. Each heap entry
//     carries a stored key, and the invariant is stored >= true: the stored
//     key is an upper bound, and the binary-heap order holds over the
//     stored keys.
//   * A decrease is O(1): it only writes the true priority, leaving the
//     stored key as a (now loose) upper bound. An increase past the stored
//     key raises it and sifts up at once; Remove is eager.
//   * Top, TopPriority and PopTop settle the root first: while the root's
//     stored key differs from its true priority, the stored key is lowered
//     to it and sifted down. Each pass makes one more entry exact, and all
//     the decreases an entry received collapse into that one sift-down.
//
// Determinism: the order is the strict total order (priority desc, id asc),
// so ties break toward the smaller id. A settled root is at least every
// other entry's (stored key, id), which is at least that entry's (true
// priority, id) because the stored key never under-estimates. The settled
// root is therefore exactly the maximum an eagerly maintained heap would
// hold: every algorithm built on this heap selects the same objects in the
// same order on every run and platform, and the brute-force reference
// implementations in tests predict the exact same solutions.

#ifndef DISC_UTIL_INDEXED_HEAP_H_
#define DISC_UTIL_INDEXED_HEAP_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace disc {

/// Max-heap keyed by (priority desc, id asc) supporting update/remove by id.
/// Ids must be < the capacity passed at construction and each id may be
/// present at most once.
class IndexedMaxHeap {
 public:
  static constexpr size_t kNotPresent = static_cast<size_t>(-1);

  /// Creates a heap able to hold ids in [0, capacity).
  explicit IndexedMaxHeap(size_t capacity)
      : pos_(capacity, kNotPresent), priority_(capacity) {}

  size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }
  bool contains(size_t id) const {
    return id < pos_.size() && pos_[id] != kNotPresent;
  }

  /// Priority of a contained id (its true priority, never the stored key).
  int64_t priority(size_t id) const {
    assert(contains(id));
    return priority_[id];
  }

  /// Inserts id with the given priority. Id must not already be present.
  void Push(size_t id, int64_t priority) {
    assert(id < pos_.size());
    assert(!contains(id));
    priority_[id] = priority;
    heap_.push_back(Entry{priority, id});
    pos_[id] = heap_.size() - 1;
    SiftUp(heap_.size() - 1);
  }

  /// Id with the largest (priority, then smallest id). Heap must be non-empty.
  size_t Top() {
    SettleTop();
    return heap_[0].id;
  }

  int64_t TopPriority() {
    SettleTop();
    return heap_[0].key;
  }

  /// Removes and returns the top id.
  size_t PopTop() {
    size_t id = Top();
    RemoveAt(0);
    return id;
  }

  /// Removes an arbitrary contained id.
  void Remove(size_t id) {
    assert(contains(id));
    RemoveAt(pos_[id]);
  }

  /// Sets the priority of a contained id. A decrease is deferred until the
  /// entry reaches the top; an increase past the stored key sifts up now.
  void Update(size_t id, int64_t priority) {
    assert(contains(id));
    priority_[id] = priority;
    const size_t i = pos_[id];
    if (priority > heap_[i].key) {
      heap_[i].key = priority;
      SiftUp(i);
    }
  }

  /// Adds `delta` (possibly negative) to the priority of a contained id.
  void Adjust(size_t id, int64_t delta) {
    Update(id, priority(id) + delta);
  }

  /// Removes all elements; capacity is unchanged.
  void Clear() {
    for (const Entry& e : heap_) pos_[e.id] = kNotPresent;
    heap_.clear();
  }

 private:
  struct Entry {
    int64_t key;  // stored key: >= priority_[id]
    size_t id;
  };

  // True when a should be above b in the max-heap.
  static bool Before(const Entry& a, const Entry& b) {
    if (a.key != b.key) return a.key > b.key;
    return a.id < b.id;
  }

  // Applies the deferred decreases that reach the root, until the root's
  // stored key is its true priority (see the header comment).
  void SettleTop() {
    assert(!empty());
    for (;;) {
      Entry& root = heap_[0];
      const int64_t priority = priority_[root.id];
      if (root.key == priority) return;
      root.key = priority;
      SiftDown(0);
    }
  }

  void SiftUp(size_t i) {
    while (i > 0) {
      size_t parent = (i - 1) / 2;
      if (!Before(heap_[i], heap_[parent])) break;
      SwapEntries(i, parent);
      i = parent;
    }
  }

  void SiftDown(size_t i) {
    const size_t n = heap_.size();
    for (;;) {
      size_t best = i;
      size_t left = 2 * i + 1, right = 2 * i + 2;
      if (left < n && Before(heap_[left], heap_[best])) best = left;
      if (right < n && Before(heap_[right], heap_[best])) best = right;
      if (best == i) break;
      SwapEntries(i, best);
      i = best;
    }
  }

  void SwapEntries(size_t i, size_t j) {
    std::swap(heap_[i], heap_[j]);
    pos_[heap_[i].id] = i;
    pos_[heap_[j].id] = j;
  }

  void RemoveAt(size_t i) {
    pos_[heap_[i].id] = kNotPresent;
    if (i + 1 != heap_.size()) {
      heap_[i] = heap_.back();
      pos_[heap_[i].id] = i;
      heap_.pop_back();
      // The moved element may need to travel either direction.
      SiftUp(i);
      SiftDown(i);
    } else {
      heap_.pop_back();
    }
  }

  std::vector<Entry> heap_;
  std::vector<size_t> pos_;        // id -> index in heap_, or kNotPresent
  std::vector<int64_t> priority_;  // id -> true priority (contained ids)
};

}  // namespace disc

#endif  // DISC_UTIL_INDEXED_HEAP_H_
