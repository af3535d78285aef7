#include "server/session_manager.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "metric/metric.h"
#include "mtree/mtree.h"
#include "util/parallel.h"

namespace disc {

std::string EnginePoolKey(const EngineConfig& config) {
  const DatasetSpec& spec = config.dataset;
  std::string key = DatasetSourceToString(spec.source);
  switch (spec.source) {
    case DatasetSpec::Source::kUniform:
    case DatasetSpec::Source::kClustered:
      key += ":n=" + std::to_string(spec.n) + ",dim=" +
             std::to_string(spec.dim) + ",seed=" + std::to_string(spec.seed);
      break;
    case DatasetSpec::Source::kCsv:
      key += ":" + spec.csv_path;
      break;
    case DatasetSpec::Source::kProvided:
      // A caller-materialized dataset has no canonical identity the pool
      // could match on; never reuse an engine built over one.
      return "";
    default:
      break;
  }
  key += "|";
  key += MetricKindToString(config.metric);
  key += "|";
  key += BuildStrategyToString(config.tree.build.strategy);
  // The backend is part of the identity only off the default, so every
  // pre-backend pool key is unchanged. Graph-mode engines must never be
  // matched with M-tree ones (no tree, no zoom).
  if (config.neighbor.kind != NeighborBackendKind::kExact) {
    key += "|";
    key += NeighborBackendKindToString(config.neighbor.kind);
  }
  return key;
}

EngineLease& EngineLease::operator=(EngineLease&& other) noexcept {
  if (this != &other) {
    Release();
    manager_ = other.manager_;
    key_ = std::move(other.key_);
    engine_ = std::move(other.engine_);
    reused_ = other.reused_;
    other.manager_ = nullptr;
    other.engine_ = nullptr;
    other.reused_ = false;
  }
  return *this;
}

void EngineLease::Release() {
  if (engine_ != nullptr && manager_ != nullptr) {
    manager_->ReleaseLease(std::move(key_), std::move(engine_));
  }
  engine_ = nullptr;
  manager_ = nullptr;
}

Result<EngineLease> SessionManager::Acquire(const EngineConfig& config) {
  std::string key = EnginePoolKey(config);
  std::unique_ptr<DiscEngine> pooled;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = idle_.begin(); !key.empty() && it != idle_.end(); ++it) {
      if (it->key == key) {
        pooled = std::move(it->engine);
        idle_.erase(it);
        ++stats_.pool_hits;
        stats_.idle_engines = idle_.size();
        break;
      }
    }
    // Counted only when a lease is actually handed out: a refused OPEN
    // (bad config, guardrail cap) must leave the acquire/release balance
    // intact — tests assert leases_released == leases_acquired.
    if (pooled != nullptr) ++stats_.leases_acquired;
  }
  if (pooled != nullptr) {
    // NewSession (an O(n) color reset) runs outside the manager-wide
    // critical section; the engine is already exclusively ours.
    pooled->NewSession();
    return EngineLease(this, std::move(key), std::move(pooled),
                       /*reused=*/true);
  }

  // Miss: build a fresh engine outside the lock (dataset load + index
  // build can take seconds and must not serialize other sessions).
  DISC_ASSIGN_OR_RETURN(std::unique_ptr<DiscEngine> engine,
                        DiscEngine::Create(config));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.engines_created;
    ++stats_.leases_acquired;
  }
  return EngineLease(this, std::move(key), std::move(engine),
                     /*reused=*/false);
}

Status SessionManager::Prewarm(const std::vector<EngineConfig>& configs,
                               size_t threads) {
  if (configs.empty()) return Status::OK();
  // One engine build per task; every build runs on its own worker, so a
  // list of hot datasets warms in max(build time), not sum. Each slot is
  // written by exactly one task — results are collected after the pool
  // joins (no locking needed).
  std::vector<std::optional<Result<std::unique_ptr<DiscEngine>>>> built(
      configs.size());
  const size_t resolved = threads == 0 ? DefaultThreads() : threads;
  ThreadPool pool(std::min(resolved, configs.size()));
  pool.Run(configs.size(), [&](size_t i) {
    if (EnginePoolKey(configs[i]).empty()) return;  // unpoolable: skip
    built[i].emplace(DiscEngine::Create(configs[i]));
  });

  Status first_error = Status::OK();
  for (size_t i = 0; i < configs.size(); ++i) {
    if (!built[i].has_value()) continue;  // unpoolable, skipped above
    if (!built[i]->ok()) {
      if (first_error.ok()) first_error = built[i]->status();
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.engines_created;
    }
    ReturnToPool(EnginePoolKey(configs[i]), std::move(*built[i]).value());
  }
  return first_error;
}

FlightDecision SessionManager::JoinFlight(const FlightRequest& request,
                                          FlightWaiter follower,
                                          FlightWaiter rider) {
  FlightDecision decision;
  std::lock_guard<std::mutex> lock(mutex_);
  if (auto it = flights_.find(request.key); it != flights_.end()) {
    Flight& flight = it->second;
    if (flight.finished) {
      decision.join = FlightJoin::kCached;
      decision.cached = flight.outcome;
      flight.stamp = next_stamp_++;  // LRU touch
      ++stats_.flights_memoized;
    } else {
      decision.join = FlightJoin::kFollower;
      flight.waiters.push_back(std::move(follower));
      ++stats_.flights_coalesced;
    }
    return decision;
  }
  if (!request.admitted) {
    decision.join = FlightJoin::kBusy;
    return decision;
  }

  // The seed rule, one for both sources: closest radius over the family's
  // entries on offer, never an equal radius (that is the exact-key path,
  // or differs only by a non-family knob), ties toward the newest stamp.
  Flight* seed = nullptr;
  if (request.adapt && !request.family.empty()) {
    for (auto& [key, flight] : flights_) {
      if (!flight.seeds || flight.family != request.family ||
          flight.radius == request.radius) {
        continue;
      }
      if (seed != nullptr) {
        const double delta = std::abs(flight.radius - request.radius);
        const double best = std::abs(seed->radius - request.radius);
        if (delta > best || (delta == best && flight.stamp < seed->stamp)) {
          continue;
        }
      }
      seed = &flight;
    }
  }

  // Element pointers survive the insertion (unordered_map rehashing only
  // invalidates iterators).
  Flight& led = flights_[request.key];
  led.family = request.family;
  led.radius = request.radius;
  led.stamp = next_stamp_++;
  ++stats_.flights_led;
  if (seed == nullptr) {
    led.seeds = !request.family.empty();
    decision.join = FlightJoin::kLeader;
    return decision;
  }
  seed->stamp = next_stamp_++;
  decision.seed_radius = seed->radius;
  if (seed->finished) {
    decision.join = FlightJoin::kSeeded;
    decision.seed = seed->outcome.capsule;
    ++stats_.flights_adapted;
  } else {
    decision.join = FlightJoin::kRider;
    seed->waiters.push_back(std::move(rider));
    ++stats_.flights_adapt_followed;
  }
  return decision;
}

void SessionManager::FinishFlight(const std::string& key,
                                  FlightOutcome outcome, bool memoize,
                                  bool seedable) {
  std::vector<FlightWaiter> waiters;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = flights_.find(key);
    if (it == flights_.end()) return;
    Flight& flight = it->second;
    waiters = std::move(flight.waiters);
    if (!memoize || max_cached_results_ == 0) {
      flights_.erase(it);
    } else {
      flight.finished = true;
      flight.outcome = outcome;
      flight.seeds = seedable;
      flight.stamp = next_stamp_++;
      if (++stats_.cached_results > max_cached_results_) {
        // Evict the least recently used finished entry.
        auto oldest = flights_.end();
        for (auto f = flights_.begin(); f != flights_.end(); ++f) {
          if (f->second.finished &&
              (oldest == flights_.end() ||
               f->second.stamp < oldest->second.stamp)) {
            oldest = f;
          }
        }
        flights_.erase(oldest);
        --stats_.cached_results;
      }
    }
  }
  // Waiter callbacks adopt session capsules (O(n) engine work) or hand
  // work back to the event loop; never run them under the manager lock.
  for (FlightWaiter& waiter : waiters) waiter(outcome);
}

void SessionManager::ReleaseLease(std::string key,
                                  std::unique_ptr<DiscEngine> engine) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.leases_released;
  }
  ReturnToPool(std::move(key), std::move(engine));
}

void SessionManager::ReturnToPool(std::string key,
                                  std::unique_ptr<DiscEngine> engine) {
  std::unique_ptr<DiscEngine> evicted;  // disposed of outside the lock
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (max_idle_engines_ == 0 || key.empty()) {  // empty key: unpoolable
      stats_.idle_engines = idle_.size();
      ++stats_.engines_evicted;
      evicted = std::move(engine);
    } else {
      idle_.push_front(IdleEngine{std::move(key), std::move(engine)});
      if (idle_.size() > max_idle_engines_) {
        evicted = std::move(idle_.back().engine);
        idle_.pop_back();
        ++stats_.engines_evicted;
      }
      stats_.idle_engines = idle_.size();
    }
  }
  if (evicted != nullptr && disposer_) disposer_(std::move(evicted));
}

SessionManagerStats SessionManager::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace disc
