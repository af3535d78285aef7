// SessionManager: shards concurrent client sessions across DiscEngine
// instances.
//
// DiscEngine is single-session by design (engine/engine.h): its solution
// cache, color state, and zoom preconditions assume one caller. The manager
// provides the server's concurrency model on top of that invariant:
//
//  * every connection leases an engine for *exclusive* use — two sessions
//    never share a live engine, so the tree's color state cannot race;
//  * engines are pooled by (dataset, metric, build strategy): when a lease
//    ends the engine goes idle instead of being destroyed, and the next
//    OPEN with the same key reuses it after DiscEngine::NewSession() — the
//    index, the per-radius neighborhood counts, and the solution cache stay
//    warm, so a repeated DIVERSIFY at the same radius costs zero node
//    accesses even across sessions;
//  * concurrent OPENs of the same key each get their own engine (the pool
//    may hold several per key), so sharding never serializes clients;
//  * idle engines beyond `max_idle_engines` are evicted least-recently-
//    released first (an index plus caches is the unit of memory here).
//
// The manager also holds the server's one piece of cross-request state:
// the single-flight table. In-flight and finished computations share one
// keyed table — the finished entries are the memo — and JoinFlight makes
// every cross-request decision (memo hit, follower, cold leader, or a
// leader seeded for §5.2 radius adaptation from the memo or from an
// in-flight cold leader) under one lock.
//
// Thread safety: Acquire/Release are safe from any thread. Engine
// construction (dataset load + index build) runs outside the manager lock,
// so a slow OPEN never blocks other sessions.

#ifndef DISC_SERVER_SESSION_MANAGER_H_
#define DISC_SERVER_SESSION_MANAGER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/config.h"
#include "engine/engine.h"
#include "util/status.h"

namespace disc {

/// Canonical pool key for an EngineConfig: dataset identity (source plus
/// the generator knobs or CSV path), metric, and build strategy. Two
/// configs with equal, non-empty keys produce interchangeable engines.
/// Returns "" for configs with no canonical identity — kProvided datasets
/// (two provided datasets are not interchangeable just because their
/// metric matches) — and such engines are never pooled: the manager
/// destroys them when their lease ends. Note the key deliberately covers
/// only `MTreeOptions::build.strategy`; configs that hand-tune other tree
/// knobs should use their own manager (the wire protocol cannot produce
/// them).
std::string EnginePoolKey(const EngineConfig& config);

class SessionManager;

/// An exclusive engine lease. Movable, not copyable; returns the engine to
/// the manager's idle pool on destruction (RAII) or explicit Release().
class EngineLease {
 public:
  EngineLease() = default;
  EngineLease(EngineLease&& other) noexcept { *this = std::move(other); }
  EngineLease& operator=(EngineLease&& other) noexcept;
  ~EngineLease() { Release(); }

  EngineLease(const EngineLease&) = delete;
  EngineLease& operator=(const EngineLease&) = delete;

  bool valid() const { return engine_ != nullptr; }
  DiscEngine& engine() { return *engine_; }
  const std::string& key() const { return key_; }
  /// True when Acquire reused a pooled engine (warm caches).
  bool reused() const { return reused_; }

  /// Returns the engine to the pool now. No-op on an empty lease.
  void Release();

 private:
  friend class SessionManager;
  EngineLease(SessionManager* manager, std::string key,
              std::unique_ptr<DiscEngine> engine, bool reused)
      : manager_(manager),
        key_(std::move(key)),
        engine_(std::move(engine)),
        reused_(reused) {}

  SessionManager* manager_ = nullptr;
  std::string key_;
  std::unique_ptr<DiscEngine> engine_;
  bool reused_ = false;
};

/// The outcome of one coalesced computation: the serialized response line
/// the leader produced (fanned out to every waiter verbatim, so coalesced
/// responses are byte-identical to the leader's direct engine call) plus
/// the leader's exported session state. `capsule` is null when the
/// computation failed — identical requests get the identical error line,
/// but there is no session state to adopt.
struct FlightOutcome {
  std::string response;
  std::shared_ptr<DiscEngine::SessionCapsule> capsule;
};

/// Invoked exactly once per waiter, on the leader's thread, after the
/// computation completes (outside the manager lock — adopting a capsule is
/// an O(n) engine call).
using FlightWaiter = std::function<void(const FlightOutcome&)>;

/// What a DIVERSIFY/ZOOM asks of the single-flight table.
struct FlightRequest {
  /// Opaque coalescing key covering pool key, command, canonical
  /// parameters, and — for ZOOM — the session fingerprint. Equal keys MUST
  /// imply byte-identical responses.
  std::string key;
  /// The §5.2 radius-compatibility family (pool key + algorithm + pruning,
  /// everything but the radius) and the radius. Empty for requests whose
  /// outcome can never seed adaptation (ZOOM, covering-only algorithms).
  std::string family;
  double radius = 0.0;
  /// The client allowed adaptation (DIVERSIFY adapt=true): the request may
  /// be served from a seed at another radius instead of computing cold.
  bool adapt = false;
  /// The caller has an admission slot for a computation. Only decisions
  /// that compute consult it; followers and memo hits are exempt.
  bool admitted = true;
};

/// What JoinFlight decided for the caller.
enum class FlightJoin {
  /// A finished flight's outcome is memoized: it was copied out.
  kCached,
  /// A flight with the same key is in progress; `follower` was registered.
  kFollower,
  /// No seed applies: the caller computes cold. Its flight is offered as a
  /// seed to same-family requests while it computes.
  kLeader,
  /// The caller computes by adapting a memoized outcome at another radius
  /// (FlightDecision::seed).
  kSeeded,
  /// The caller adapts from an in-flight cold leader at another radius:
  /// `rider` was registered on that flight and fires with its outcome (a
  /// null capsule when it failed — then the caller computes cold).
  kRider,
  /// The caller would compute but was not admitted; nothing was
  /// registered.
  kBusy,
};

/// JoinFlight's answer. Every decision but kCached, kFollower, and kBusy
/// makes the caller the leader of its own flight: it MUST call FinishFlight
/// (even on failure), or same-key followers would wait forever.
struct FlightDecision {
  FlightJoin join = FlightJoin::kLeader;
  /// kCached: the memoized outcome.
  FlightOutcome cached;
  /// kSeeded: the seed's capsule. kSeeded / kRider: the seed's radius.
  std::shared_ptr<DiscEngine::SessionCapsule> seed;
  double seed_radius = 0.0;
};

/// Counters for observability and tests (a consistent snapshot).
struct SessionManagerStats {
  size_t leases_acquired = 0;
  size_t leases_released = 0;
  size_t pool_hits = 0;
  size_t engines_created = 0;
  size_t engines_evicted = 0;
  size_t idle_engines = 0;
  /// Single-flight table: computations led, waiters attached to an
  /// in-progress flight, requests served from the memoized-outcome cache,
  /// and the cache's current size.
  size_t flights_led = 0;
  size_t flights_coalesced = 0;
  size_t flights_memoized = 0;
  size_t cached_results = 0;
  /// Flights seeded from a memoized outcome at another radius (kSeeded).
  size_t flights_adapted = 0;
  /// Flights seeded from an in-flight cold leader at another radius
  /// (kRider): they adapt from its capsule once it lands.
  size_t flights_adapt_followed = 0;
};

class SessionManager {
 public:
  /// `max_idle_engines` bounds the idle pool (leased engines are not
  /// counted); 0 disables pooling entirely. `max_cached_results` bounds the
  /// memoized-outcome cache of completed flights (LRU; 0 disables
  /// memoization).
  explicit SessionManager(size_t max_idle_engines,
                          size_t max_cached_results = 32)
      : max_idle_engines_(max_idle_engines),
        max_cached_results_(max_cached_results) {}

  /// Leases an engine for `config`: a pooled idle engine with the same key
  /// (restarted via DiscEngine::NewSession) when available, otherwise a
  /// freshly built one. Fails with DiscEngine::Create's error.
  Result<EngineLease> Acquire(const EngineConfig& config);

  /// Warm-up: builds one engine per config *concurrently* (a temporary
  /// util/parallel.h pool of min(`threads`, configs) workers; 0 means one
  /// per hardware thread) and parks them in the idle pool, so the first
  /// OPEN of a hot dataset leases a warm engine instead of paying dataset
  /// load + index build — and a list of hot datasets warms in the time of
  /// the slowest build rather than the sum. Unpoolable configs (empty
  /// EnginePoolKey) are skipped. Returns the first build error (engines
  /// that did build are kept either way); idle-pool eviction applies as
  /// usual, so warming more configs than `max_idle_engines` keeps only the
  /// most recently finished.
  Status Prewarm(const std::vector<EngineConfig>& configs, size_t threads);

  /// Single-flight table (the coalescing seam), and the one place
  /// cross-request adaptation is decided. Under one lock, in order:
  ///  * a finished flight with `request.key` is an exact memo hit
  ///    (kCached); an in-progress one takes `follower` (kFollower);
  ///  * otherwise a request that would compute without `admitted` is
  ///    refused (kBusy, nothing registered);
  ///  * otherwise the caller leads a new flight. An `adapt` request seeds
  ///    it from the closest radius over memo ∪ in-flight entries of its
  ///    family that are on offer — finished seedable outcomes and cold
  ///    leaders still computing — never from an equal radius, ties going
  ///    to the newest stamp. A memo seed gives kSeeded, an in-flight one
  ///    registers `rider` on that flight (kRider); no seed gives kLeader.
  /// Only a kLeader flight is offered as a seed while it computes: a
  /// seeded flight's answer is adapted, not a cold solve.
  FlightDecision JoinFlight(const FlightRequest& request,
                            FlightWaiter follower, FlightWaiter rider);

  /// Completes the flight `key` under one lock — memoized when `memoize`
  /// (and offered as a seed when `seedable`: a successful cold DIVERSIFY
  /// of a zoomable solution), dropped otherwise — then invokes every
  /// registered follower and rider outside it. Leaders must call this
  /// exactly once, on success or failure.
  void FinishFlight(const std::string& key, FlightOutcome outcome,
                    bool memoize, bool seedable);

  SessionManagerStats stats() const;

  /// Takes ownership of an engine the idle pool evicts.
  using EngineDisposer = std::function<void(std::unique_ptr<DiscEngine>)>;
  /// Routes evicted engines to `disposer` instead of destroying them on the
  /// releasing thread. Destroying an engine frees its index and caches and
  /// joins its pool's threads, which a server must keep off its event loop.
  /// Set it before the manager is shared between threads (a null disposer
  /// restores inline destruction); eviction accounting is unchanged.
  void SetEngineDisposer(EngineDisposer disposer) {
    disposer_ = std::move(disposer);
  }

 private:
  friend class EngineLease;

  struct IdleEngine {
    std::string key;
    std::unique_ptr<DiscEngine> engine;
  };

  /// Called by EngineLease: counts the release and returns the engine to
  /// the idle pool. Prewarm parks engines via ReturnToPool directly (those
  /// engines were never leased, so parking them is not a release).
  void ReleaseLease(std::string key, std::unique_ptr<DiscEngine> engine);

  /// Returns the engine to the idle pool, evicting the least-recently-
  /// released engine beyond the cap.
  void ReturnToPool(std::string key, std::unique_ptr<DiscEngine> engine);

  const size_t max_idle_engines_;
  const size_t max_cached_results_;
  EngineDisposer disposer_;

  /// One single-flight entry: in flight until FinishFlight, then (when
  /// memoized) the finished outcome — the memo is the finished entries,
  /// LRU-capped at `max_cached_results_`.
  struct Flight {
    bool finished = false;
    FlightOutcome outcome;              // finished
    std::vector<FlightWaiter> waiters;  // in flight: followers and riders
    std::string family;
    double radius = 0.0;
    /// Offered as an adaptation seed: a cold leader in flight, or a
    /// finished seedable outcome.
    bool seeds = false;
    /// Monotonic recency: set when led, refreshed when the flight finishes
    /// or serves as a memo hit or a seed. Breaks seed-distance ties and
    /// orders memo eviction (oldest first).
    uint64_t stamp = 0;
  };

  mutable std::mutex mutex_;
  /// Most recently released at the front; evict from the back.
  std::list<IdleEngine> idle_;
  std::unordered_map<std::string, Flight> flights_;
  uint64_t next_stamp_ = 0;
  SessionManagerStats stats_;
};

}  // namespace disc

#endif  // DISC_SERVER_SESSION_MANAGER_H_
