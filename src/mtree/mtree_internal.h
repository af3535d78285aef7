// Helpers shared by mtree.cc, split.cc and bulk_load.cc. Not part of the
// public API.

#ifndef DISC_MTREE_MTREE_INTERNAL_H_
#define DISC_MTREE_MTREE_INTERNAL_H_

#include <cstdint>

namespace disc {

/// xorshift64: deterministic stream shared by PromotePolicy::kRandom and the
/// bulk loader's seed sampling. Both consume MTree::rng_state_, so a tree's
/// shape is a pure function of (dataset, options).
inline uint64_t NextRandom(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return *state = x;
}

}  // namespace disc

#endif  // DISC_MTREE_MTREE_INTERNAL_H_
