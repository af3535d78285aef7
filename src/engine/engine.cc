#include "engine/engine.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/reference.h"
#include "eval/quality.h"
#include "graph/neighborhood.h"
#include "graph/properties.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace disc {

namespace {

/// Cached solutions per engine. Each entry snapshots the per-object colors
/// and closest-black distances (~9 bytes per object), so the bound keeps a
/// session's working set small while covering the common explore loop
/// (a handful of radii revisited repeatedly).
constexpr size_t kMaxCachedSolutions = 8;

/// Shortest round-trip decimal form, used for the canonical session history
/// (equal doubles must always render identically or equal sessions would
/// fingerprint differently).
std::string CanonicalDouble(double value) {
  char buf[32];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) return "?";
  return std::string(buf, ptr);
}

/// The kind name graph-mode messages quote ("grid").
const char* GraphBackendName() {
  return NeighborBackendKindToString(NeighborBackendKind::kGrid);
}

}  // namespace

DiscEngine::DiscEngine(Dataset dataset, std::unique_ptr<DistanceMetric> metric,
                       MTreeOptions tree_options, size_t threads)
    : dataset_(std::move(dataset)),
      metric_(std::move(metric)),
      tree_options_(tree_options),
      threads_(threads == 0 ? DefaultThreads() : threads) {}

DiscEngine::~DiscEngine() = default;

ThreadPool* DiscEngine::pool() {
  // Lazy: a server may hold many idle pooled engines, and engines that
  // only ever serve cache hits should not park (threads - 1) worker
  // threads each. threads_ == 1 always returns null so every pass takes
  // its original serial path.
  if (threads_ > 1 && pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(threads_);
  }
  return pool_.get();
}

Result<std::unique_ptr<DiscEngine>> DiscEngine::Create(EngineConfig config) {
  DISC_ASSIGN_OR_RETURN(Dataset dataset,
                        ResolveDataset(std::move(config.dataset)));
  std::unique_ptr<DistanceMetric> metric = MakeMetric(config.metric);
  DISC_RETURN_NOT_OK(CheckExactPointCap(dataset, *metric, config.neighbor));
  std::unique_ptr<DiscEngine> engine(
      new DiscEngine(std::move(dataset), std::move(metric), config.tree,
                     config.threads));
  if (config.neighbor.kind == NeighborBackendKind::kExact) {
    // The historical session engine: algorithms run against tree colors,
    // zooming works. Byte-identical to every release before backends existed.
    engine->tree_ =
        std::make_unique<MTree>(engine->dataset_, *engine->metric_,
                                config.tree);
    DISC_RETURN_NOT_OK(engine->tree_->Build());
  }
  // Otherwise graph mode: no tree is ever built (where the grid applies, one
  // global M-tree would not scale); GraphForRadius builds G_{P,r} on demand.
  return engine;
}

Status DiscEngine::ValidateRadius(double radius) {
  if (!std::isfinite(radius) || radius < 0) {
    return Status::InvalidArgument("radius must be finite and non-negative");
  }
  return Status::OK();
}

bool DiscEngine::EffectivePruned(const DiversifyRequest& request) {
  // Greedy-C / Fast-C never use the pruning rule (grey subtrees must stay
  // reachable); normalizing here keeps the cache key canonical.
  return IsDiscFamily(request.algorithm) ? request.pruned : false;
}

DiscEngine::CacheEntry* DiscEngine::FindCached(const CacheKey& key) {
  for (CacheEntry& entry : cache_) {
    if (entry.key == key) return &entry;
  }
  return nullptr;
}

const DiscEngine::CacheEntry* DiscEngine::FindCached(
    const CacheKey& key) const {
  for (const CacheEntry& entry : cache_) {
    if (entry.key == key) return &entry;
  }
  return nullptr;
}

bool DiscEngine::HasCachedDiversify(const DiversifyRequest& request) const {
  if (!ValidateRadius(request.radius).ok()) return false;
  const CacheKey key{request.algorithm, request.radius,
                     EffectivePruned(request)};
  return FindCached(key) != nullptr;
}

std::string DiscEngine::SessionFingerprint() const {
  if (!session_.has_solution) return "";
  return session_.history + (session_.distances_exact ? "|e1" : "|e0");
}

DiscEngine::SessionCapsule DiscEngine::ExportSession() const {
  SessionCapsule capsule;
  // Graph-mode engines have no colors; the capsule then carries only the
  // session descriptor and the cached response.
  if (tree_ != nullptr) capsule.state = tree_->SaveColorState();
  capsule.session = session_;
  if (session_.cache_key_valid) {
    if (const CacheEntry* entry = FindCached(session_.cache_key)) {
      capsule.has_cache_entry = true;
      capsule.cache_response = entry->response;
      capsule.cache_distances_exact = entry->distances_exact;
    }
  }
  return capsule;
}

Status DiscEngine::AdoptSession(const SessionCapsule& capsule) {
  if (tree_ != nullptr) {
    DISC_RETURN_NOT_OK(tree_->RestoreColorState(capsule.state));
  } else if (!capsule.state.colors.empty()) {
    // Pool keys segregate backends, so this only fires on caller error.
    return Status::InvalidArgument(
        "capsule carries tree color state but this engine runs the '" +
        std::string(GraphBackendName()) + "' neighbor backend in graph mode");
  }
  session_ = capsule.session;
  if (capsule.has_cache_entry) {
    CacheEntry entry;
    entry.key = capsule.session.cache_key;
    entry.response = capsule.cache_response;
    entry.state = capsule.state;
    entry.distances_exact = capsule.cache_distances_exact;
    InsertCache(std::move(entry));
  }
  ++adopted_sessions_;
  return Status::OK();
}

Result<DiversifyResponse> DiscEngine::AdaptFrom(const SessionCapsule& seed,
                                                const ZoomRequest& request) {
  DISC_RETURN_NOT_OK(AdoptSession(seed));
  return Zoom(request);
}

void DiscEngine::SetSession(const CacheKey& key, size_t solution_size,
                            bool distances_exact) {
  session_.has_solution = true;
  session_.zoomable = tree_ != nullptr && IsDiscFamily(key.algorithm);
  if (tree_ == nullptr) {
    session_.zoom_blocker =
        std::string("the '") + GraphBackendName() +
        "' neighbor backend runs algorithms on the neighborhood graph and "
        "leaves no tree color state; zooming requires the exact engine";
  } else if (!session_.zoomable) {
    session_.zoom_blocker =
        std::string(AlgorithmToString(key.algorithm)) +
        " produces a covering-only (r-C diverse) solution; zooming requires "
        "an r-DisC solution (basic/greedy family)";
  } else {
    session_.zoom_blocker.clear();
  }
  session_.algorithm = key.algorithm;
  session_.radius = key.radius;
  session_.solution_size = solution_size;
  session_.distances_exact = distances_exact;
  session_.cache_key_valid = true;
  session_.cache_key = key;
  session_.history = std::string("d:") + AlgorithmToString(key.algorithm) +
                     ":" + CanonicalDouble(key.radius) +
                     (key.pruned ? ":p1" : ":p0");
}

void DiscEngine::InsertCache(CacheEntry entry) {
  for (auto it = cache_.begin(); it != cache_.end(); ++it) {
    if (it->key == entry.key) {
      cache_.erase(it);
      break;
    }
  }
  cache_.push_back(std::move(entry));
  if (cache_.size() > kMaxCachedSolutions) cache_.pop_front();
}

const std::vector<uint32_t>& DiscEngine::CountsForRadius(double radius) {
  for (const auto& [cached_radius, counts] : counts_cache_) {
    if (cached_radius == radius) return counts;
  }
  std::vector<uint32_t> counts;
  // The heaviest engine pass (one range query per object); fans out across
  // the engine pool with counts and stats totals exactly equal to the
  // serial pass (see ComputeNeighborCountsPostBuild).
  tree_->ComputeNeighborCountsPostBuild(radius, &counts, pool());
  // n x 4 bytes per radius: bounded like the solution cache, because a
  // pooled engine that never sees a radius twice would otherwise keep
  // every radius's counts for its whole life.
  counts_cache_.emplace_back(radius, std::move(counts));
  if (counts_cache_.size() > kMaxCachedSolutions) counts_cache_.pop_front();
  return counts_cache_.back().second;
}

QualityMetrics DiscEngine::ComputeQuality(
    const std::vector<ObjectId>& solution, double radius,
    bool covering_only) const {
  QualityMetrics quality;
  quality.f_min = FMin(dataset_, *metric_, solution);
  quality.coverage = CoverageFraction(dataset_, *metric_, radius, solution);
  quality.verification =
      covering_only ? VerifyCovering(dataset_, *metric_, radius, solution)
                    : VerifyDisCDiverse(dataset_, *metric_, radius, solution);
  return quality;
}

Result<DiversifyResponse> DiscEngine::Diversify(
    const DiversifyRequest& request) {
  DISC_RETURN_NOT_OK(ValidateRadius(request.radius));
  const bool disc_family = IsDiscFamily(request.algorithm);
  const CacheKey key{request.algorithm, request.radius,
                     EffectivePruned(request)};

  if (CacheEntry* entry = FindCached(key)) {
    Stopwatch watch;
    ++cache_hits_;
    // Graph-mode entries carry no ColorState: there are no colors to
    // restore, and the response alone is the whole session outcome.
    if (tree_ != nullptr) {
      DISC_RETURN_NOT_OK(tree_->RestoreColorState(entry->state));
    }
    if (request.compute_quality && !entry->response.quality.has_value()) {
      entry->response.quality =
          ComputeQuality(entry->response.solution, request.radius,
                         /*covering_only=*/!disc_family);
    }
    SetSession(key, entry->response.solution.size(), entry->distances_exact);
    DiversifyResponse response = entry->response;
    response.from_cache = true;
    response.stats = AccessStats{};
    response.wall_ms = watch.ElapsedMillis();
    if (!request.compute_quality) response.quality.reset();
    return response;
  }

  Stopwatch watch;
  const AccessStats before = LifetimeStats();
  DISC_ASSIGN_OR_RETURN(std::vector<ObjectId> solution, Solve(key));
  ++computations_;

  DiversifyResponse response;
  response.solution = std::move(solution);
  response.stats = LifetimeStats() - before;
  response.wall_ms = watch.ElapsedMillis();
  response.radius = request.radius;
  if (request.compute_quality) {
    response.quality = ComputeQuality(response.solution, request.radius,
                                      /*covering_only=*/!disc_family);
  }

  // Unpruned DisC runs visit every neighbor of every selected object, so
  // the closest-black distances they record are already exact (§5.2).
  const bool distances_exact = tree_ != nullptr && disc_family && !key.pruned;
  SetSession(key, response.solution.size(), distances_exact);
  CacheEntry entry;
  entry.key = key;
  entry.response = response;
  if (tree_ != nullptr) entry.state = tree_->SaveColorState();
  entry.distances_exact = distances_exact;
  InsertCache(std::move(entry));
  return response;
}

Result<std::vector<ObjectId>> DiscEngine::Solve(const CacheKey& key) {
  if (tree_ != nullptr) {
    AlgorithmRunOptions run_options;
    run_options.pruned = key.pruned;
    // Counts come from the cache (parallel inside CountsForRadius) and the
    // selection loop is serial, so solutions and stats are byte-identical at
    // any thread count and the cache key stays thread-independent.
    if (AlgorithmUsesNeighborCounts(key.algorithm)) {
      run_options.initial_counts = &CountsForRadius(key.radius);
    }
    return RunAlgorithm(tree_.get(), key.algorithm, key.radius, run_options)
        .solution;
  }
  if (key.algorithm != Algorithm::kBasic &&
      key.algorithm != Algorithm::kGreedy &&
      key.algorithm != Algorithm::kGreedyC) {
    return Status::Unimplemented(
        std::string("algorithm '") + AlgorithmToString(key.algorithm) +
        "' is index-bound; the '" + GraphBackendName() +
        "' neighbor backend serves the graph-mode algorithms only "
        "(basic, greedy, greedy-c)");
  }
  const NeighborhoodGraph& graph = GraphForRadius(key.radius);
  if (key.algorithm == Algorithm::kBasic) {
    // Candidates in id order (graph mode has no leaf chain to mirror); any
    // fixed order yields a valid maximal independent set.
    std::vector<ObjectId> order(dataset_.size());
    std::iota(order.begin(), order.end(), ObjectId{0});
    return ReferenceBasicDisc(graph, order);
  }
  return key.algorithm == Algorithm::kGreedy ? ReferenceGreedyDisc(graph)
                                             : ReferenceGreedyC(graph);
}

const NeighborhoodGraph& DiscEngine::GraphForRadius(double radius) {
  if (graph_cache_ == nullptr || graph_cache_->radius() != radius) {
    // Release the old radius's graph first, so an engine never holds two.
    graph_cache_.reset();
    graph_cache_ = std::make_unique<NeighborhoodGraph>(
        dataset_, *metric_, radius, pool(), &graph_stats_);
  }
  return *graph_cache_;
}

Status DiscEngine::RequireExactEngine(const char* what) const {
  if (tree_ != nullptr) return Status::OK();
  return Status::FailedPrecondition(
      std::string(what) +
      " DisC runs on the exact engine only; this engine uses the '" +
      GraphBackendName() + "' neighbor backend");
}

AccessStats DiscEngine::LifetimeStats() const {
  return tree_ != nullptr ? tree_->stats() : graph_stats_;
}

Result<DiversifyResponse> DiscEngine::Zoom(const ZoomRequest& request) {
  if (!session_.has_solution) {
    return Status::FailedPrecondition(
        "Zoom requires a prior successful Diversify: the tree colors do not "
        "encode a solution yet");
  }
  if (!session_.zoomable) {
    return Status::FailedPrecondition("cannot zoom: " + session_.zoom_blocker);
  }
  if (!std::isfinite(request.radius) || request.radius <= 0) {
    return Status::InvalidArgument("zoom radius must be finite and positive");
  }
  const bool local = request.center.has_value();
  if (local && *request.center >= dataset_.size()) {
    return Status::InvalidArgument(
        "local-zoom center " + std::to_string(*request.center) +
        " is out of range (dataset has " + std::to_string(dataset_.size()) +
        " objects)");
  }
  if (request.radius == session_.radius) {
    return Status::InvalidArgument(
        "new radius equals the current session radius " +
        std::to_string(session_.radius) + "; nothing to adapt");
  }

  Stopwatch watch;
  const AccessStats before = tree_->stats();
  // Only zooming in reads closest-black distances (§5.2); zooming out
  // rebuilds them from scratch. Stale distances come from pruned Diversify
  // runs and from the greedy zoom passes (see core/zoom.h).
  const bool reads_distances = request.radius < session_.radius;
  if (reads_distances && !session_.distances_exact) {
    if (request.distances == DistancePolicy::kRequireExact) {
      return Status::FailedPrecondition(
          "closest-black distances are stale (the current solution came "
          "from a pruned run or a greedy zoom pass) and zooming in reads "
          "them; use DistancePolicy::kAuto or rerun Diversify with "
          "pruned=false");
    }
    tree_->RecomputeClosestBlackDistances(session_.radius);
    session_.distances_exact = true;
    // The tree still holds exactly the cached Diversify state (no zoom has
    // mutated it yet), so bank the recomputed distances: later restores of
    // this entry zoom in for free instead of repaying the recomputation.
    if (session_.cache_key_valid) {
      if (CacheEntry* entry = FindCached(session_.cache_key)) {
        entry->state = tree_->SaveColorState();
        entry->distances_exact = true;
      }
    }
  }

  DiscResult run;
  if (local) {
    run = LocalZoom(tree_.get(), *request.center, session_.radius,
                    request.radius, request.greedy);
  } else if (request.radius < session_.radius) {
    // observe_all: the greedy pass's selection queries observe every
    // neighbor, leaving exact closest-black distances — a chained zoom-in
    // then skips RecomputeClosestBlackDistances entirely. Benchmarked
    // cheaper than the recompute path (bench_parallel_select.cc ZoomChain
    // rows: fewer node accesses and less wall time), so it is the engine
    // default; the selection sequence is unchanged either way.
    run = ZoomIn(tree_.get(), request.radius, request.greedy,
                 /*observe_all=*/request.greedy);
  } else {
    run = ZoomOut(tree_.get(), request.radius, request.zoom_out_variant);
  }
  ++computations_;

  DiversifyResponse response;
  response.solution = std::move(run.solution);
  response.stats = tree_->stats() - before;
  response.wall_ms = watch.ElapsedMillis();
  response.radius = request.radius;
  if (local) response.radius = std::max(session_.radius, request.radius);
  if (request.compute_quality) {
    // Local zooms leave a mixed-radius solution: the region holds its
    // guarantees at the new radius, the complement at the old one, so only
    // coverage at the larger radius is verifiable globally.
    response.quality = ComputeQuality(response.solution, response.radius,
                                      /*covering_only=*/local);
  }

  session_.solution_size = response.solution.size();
  session_.cache_key_valid = false;  // the zoom mutated the tree state
  // Extend the canonical history with this zoom; every parameter that can
  // change the resulting state or reported stats participates.
  session_.history += std::string("|z:") +
                      (local ? "l" : (reads_distances ? "i" : "o")) +
                      CanonicalDouble(request.radius) +
                      (request.greedy ? ":g1" : ":g0") + ":v" +
                      std::to_string(static_cast<int>(
                          request.zoom_out_variant)) +
                      (local ? ":c" + std::to_string(*request.center) : "");
  if (local) {
    session_.zoomable = false;
    session_.zoom_blocker =
        "a local zoom left a mixed-radius solution; run Diversify to start "
        "a new adaptation chain";
  } else {
    // Zoom-in passes always leave exact distances now: the non-greedy pass
    // observes every neighbor by construction, and the greedy pass runs
    // with observe_all (above). Greedy zoom-OUT variants still use pruned
    // white-only queries and leave upper bounds a later zoom-in must not
    // trust (core/zoom.h). `reads_distances` still holds the zoom
    // direction.
    const bool greedy_pass =
        !reads_distances &&
        request.zoom_out_variant != ZoomOutVariant::kArbitrary;
    session_.radius = request.radius;
    session_.distances_exact = !greedy_pass;
  }
  return response;
}

Result<DiversifyResponse> DiscEngine::WeightedDiversify(
    const WeightedRequest& request) {
  DISC_RETURN_NOT_OK(RequireExactEngine("weighted"));
  Stopwatch watch;
  DISC_ASSIGN_OR_RETURN(
      std::vector<ObjectId> solution,
      GreedyWeightedDisc(dataset_, *metric_, request.radius, request.weights,
                         request.objective));
  ++computations_;
  DiversifyResponse response;
  response.solution = std::move(solution);
  response.wall_ms = watch.ElapsedMillis();
  response.radius = request.radius;
  if (request.compute_quality) {
    response.quality = ComputeQuality(response.solution, request.radius,
                                      /*covering_only=*/false);
  }
  return response;
}

Result<DiversifyResponse> DiscEngine::MultiRadiusDiversify(
    const MultiRadiusRequest& request) {
  DISC_RETURN_NOT_OK(RequireExactEngine("multi-radius"));
  Stopwatch watch;
  DISC_ASSIGN_OR_RETURN(
      std::vector<double> radii,
      RelevanceRadii(request.relevance, request.r_min, request.r_max));
  DISC_ASSIGN_OR_RETURN(
      std::vector<ObjectId> solution,
      MultiRadiusDisc(dataset_, *metric_, radii, request.relevance));
  ++computations_;
  DiversifyResponse response;
  response.solution = std::move(solution);
  response.wall_ms = watch.ElapsedMillis();
  response.radius = request.r_max;
  if (request.compute_quality) {
    // Every object is covered within its own radius <= r_max; independence
    // follows the min-radius rule, which a single-radius verifier cannot
    // express, so only coverage is checked.
    response.quality = ComputeQuality(response.solution, request.r_max,
                                      /*covering_only=*/true);
  }
  return response;
}

EngineSnapshot DiscEngine::Snapshot() const {
  EngineSnapshot snapshot;
  snapshot.dataset_size = dataset_.size();
  snapshot.dim = dataset_.dim();
  snapshot.metric = metric_->kind();
  snapshot.build_strategy = tree_options_.build.strategy;
  snapshot.backend = tree_ != nullptr ? NeighborBackendKind::kExact
                                      : NeighborBackendKind::kGrid;
  snapshot.tree_nodes = tree_ != nullptr ? tree_->num_nodes() : 0;
  snapshot.tree_height = tree_ != nullptr ? tree_->height() : 0;
  snapshot.has_solution = session_.has_solution;
  snapshot.zoomable = session_.zoomable;
  snapshot.zoom_blocker = session_.zoom_blocker;
  snapshot.algorithm = session_.algorithm;
  snapshot.radius = session_.radius;
  snapshot.solution_size = session_.solution_size;
  snapshot.distances_exact = session_.distances_exact;
  snapshot.cached_solutions = cache_.size();
  snapshot.cached_count_radii = counts_cache_.size();
  snapshot.cache_hits = cache_hits_;
  snapshot.computations = computations_;
  snapshot.adopted_sessions = adopted_sessions_;
  snapshot.threads = threads_;
  snapshot.sessions_served = sessions_served_;
  snapshot.lifetime_stats = LifetimeStats();
  return snapshot;
}

void DiscEngine::Reset() {
  if (tree_ != nullptr) tree_->ResetColors();
  session_ = SessionState{};
  cache_.clear();
}

void DiscEngine::NewSession() {
  if (tree_ != nullptr) tree_->ResetColors();
  session_ = SessionState{};
  ++sessions_served_;
}

}  // namespace disc
