#include "neighbor/lsh_backend.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <mutex>

#include "util/random.h"

namespace disc {

namespace {

// Mixes a tuple of slot indexes into one 64-bit bucket key (FNV-1a over the
// slot words). Distinct tuples may collide; collisions only add candidates,
// which verification filters out, so correctness is unaffected.
uint64_t BucketKey(const std::vector<int64_t>& slots) {
  uint64_t key = 1469598103934665603ull;
  for (int64_t slot : slots) {
    key ^= static_cast<uint64_t>(slot);
    key *= 1099511628211ull;
  }
  return key;
}

}  // namespace

std::optional<double> LshBackend::index_radius() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  if (index_ == nullptr) return std::nullopt;
  return index_->radius;
}

std::shared_ptr<const LshBackend::Index> LshBackend::EnsureIndex(
    double radius) const {
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    if (index_ != nullptr && index_->radius == radius) return index_;
  }
  std::unique_lock<std::shared_mutex> lock(mutex_);
  if (index_ != nullptr && index_->radius == radius) return index_;

  auto index = std::make_shared<Index>();
  index->radius = radius;
  index->width = options_.width_factor * radius;
  const size_t dim = dataset_.dim();
  const size_t hashes = std::max<size_t>(1, options_.hashes);
  const size_t tables = std::max<size_t>(1, options_.tables);
  // One seeded stream drawn in a fixed order: all quantities — and therefore
  // the whole graph — are pure functions of (seed, dim, radius).
  Random rng(options_.seed);
  index->tables.resize(tables);
  for (Table& table : index->tables) {
    table.directions.resize(hashes);
    table.offsets.resize(hashes);
    for (size_t h = 0; h < hashes; ++h) {
      table.directions[h].resize(dim);
      for (size_t d = 0; d < dim; ++d) {
        table.directions[h][d] = rng.Gaussian();
      }
    }
    for (size_t h = 0; h < hashes; ++h) {
      table.offsets[h] = rng.Uniform01() * index->width;
    }
  }

  std::vector<int64_t> slots(hashes);
  for (Table& table : index->tables) {
    table.buckets.reserve(dataset_.size());
    for (ObjectId i = 0; i < dataset_.size(); ++i) {
      const Point& p = dataset_.point(i);
      for (size_t h = 0; h < hashes; ++h) {
        double dot = table.offsets[h];
        const std::vector<double>& a = table.directions[h];
        for (size_t d = 0; d < dim; ++d) dot += a[d] * p[d];
        slots[h] = static_cast<int64_t>(std::floor(dot / index->width));
      }
      table.buckets[BucketKey(slots)].push_back(i);
    }
  }
  index_ = std::move(index);
  return index_;
}

Result<CsrAdjacency> LshBackend::BuildNeighborhoods(double radius,
                                                    ThreadPool* pool) const {
  if (radius > 0) EnsureIndex(radius);  // build once, before the fan-out
  return NeighborBackend::BuildNeighborhoods(radius, pool);
}

void LshBackend::DoRangeQuery(const Point& center, ObjectId exclude,
                              double radius, std::vector<ObjectId>* out,
                              AccessStats* sink) const {
  sink->range_queries += 1;
  const size_t n = dataset_.size();
  if (radius <= 0) {
    // Degenerate radius: hashing needs a positive bucket width, so fall
    // back to one exact scan (still a subset — in fact the full truth).
    sink->node_accesses += 1;
    for (ObjectId j = 0; j < n; ++j) {
      if (j == exclude) continue;
      ++sink->distance_computations;
      if (metric_.Distance(center, dataset_.point(j)) <= radius) {
        out->push_back(j);
      }
    }
    return;
  }

  const std::shared_ptr<const Index> held = EnsureIndex(radius);
  const Index& index = *held;
  const size_t dim = dataset_.dim();
  const size_t hashes = index.tables.front().offsets.size();
  // A +/-1 shift of each projection exhausts the useful single-step
  // perturbations, so the probe count caps at 2 * hashes.
  const size_t probes = std::min(options_.probes, 2 * hashes);

  std::vector<int64_t> slots(hashes);
  std::vector<ObjectId> candidates;
  auto probe_bucket = [&](const Table& table, uint64_t key) {
    ++sink->node_accesses;
    auto it = table.buckets.find(key);
    if (it == table.buckets.end()) return;
    candidates.insert(candidates.end(), it->second.begin(), it->second.end());
  };

  for (const Table& table : index.tables) {
    for (size_t h = 0; h < hashes; ++h) {
      double dot = table.offsets[h];
      const std::vector<double>& a = table.directions[h];
      for (size_t d = 0; d < dim; ++d) dot += a[d] * center[d];
      slots[h] = static_cast<int64_t>(std::floor(dot / index.width));
    }
    probe_bucket(table, BucketKey(slots));
    for (size_t p = 0; p < probes; ++p) {
      const size_t h = p / 2;
      const int64_t delta = (p % 2 == 0) ? 1 : -1;
      slots[h] += delta;
      probe_bucket(table, BucketKey(slots));
      slots[h] -= delta;
    }
  }

  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  for (ObjectId j : candidates) {
    if (j == exclude) continue;
    ++sink->distance_computations;
    if (metric_.Distance(center, dataset_.point(j)) <= radius) {
      out->push_back(j);
    }
  }
}

}  // namespace disc
