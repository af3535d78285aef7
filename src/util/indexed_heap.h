// An indexed binary max-heap over dense integer ids.
//
// This is the priority structure the paper calls L': Greedy-DisC repeatedly
// extracts the object with the largest white neighborhood and must also
// decrement the priorities of arbitrary objects as their neighbors turn grey.
// The heap therefore supports O(log n) update-by-id via a position map.
//
// Determinism: ties in priority are broken toward the smaller id, so every
// algorithm built on this heap produces identical output on every run and
// platform. This also lets the brute-force reference implementations in
// tests predict the exact same solutions.

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
      : pos_(capacity, kNotPresent) {}

  size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }
  bool contains(size_t id) const {
    return id < pos_.size() && pos_[id] != kNotPresent;
  }

  /// Priority of a contained id.
  int64_t priority(size_t id) const {
    assert(contains(id));
    return heap_[pos_[id]].priority;
  }

  /// Inserts id with the given priority. Id must not already be present.
  void Push(size_t id, int64_t priority) {
    assert(id < pos_.size());
    assert(!contains(id));
    heap_.push_back(Entry{priority, id});
    pos_[id] = heap_.size() - 1;
    SiftUp(heap_.size() - 1);
  }

  /// Id with the largest (priority, then smallest id). Heap must be non-empty.
  size_t Top() const {
    assert(!empty());
    return heap_[0].id;
  }

  int64_t TopPriority() const {
    assert(!empty());
    return heap_[0].priority;
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

  /// Sets the priority of a contained id (up or down).
  void Update(size_t id, int64_t priority) {
    assert(contains(id));
    size_t i = pos_[id];
    int64_t old = heap_[i].priority;
    heap_[i].priority = priority;
    if (priority > old) {
      SiftUp(i);
    } else if (priority < old) {
      SiftDown(i);
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
    int64_t priority;
    size_t id;
  };

  // True when a should be above b in the max-heap.
  static bool Before(const Entry& a, const Entry& b) {
    if (a.priority != b.priority) return a.priority > b.priority;
    return a.id < b.id;
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
  std::vector<size_t> pos_;
};

}  // namespace disc

#endif  // DISC_UTIL_INDEXED_HEAP_H_
