#include "replay.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "check.h"
#include "core/disc_algorithms.h"
#include "core/zoom.h"
#include "engine/config.h"
#include "engine/engine.h"
#include "eval/quality.h"
#include "graph/neighborhood.h"
#include "mtree/mtree.h"
#include "neighbor/backend.h"
#include "server/protocol.h"
#include "server/session_manager.h"
#include "util/parallel.h"

namespace perfbench {
namespace {

using namespace disc;

// Replaying requests stops starting new sessions after this much time.
constexpr double kRequestReplayBudgetMs = 2000.0;

double MedianOf(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : 0.5 * (values[mid - 1] + values[mid]);
}

template <typename T>
T Must(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: replay %s failed: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(result).value();
}

/// Times calls into one layer as child spans of `parent`.
class Spans {
 public:
  Spans(Tracer* tracer, uint64_t parent, uint64_t request)
      : tracer_(tracer), parent_(parent), request_(request) {}

  template <typename F>
  double Time(const char* layer, const char* name, F&& fn) {
    const uint64_t id = tracer_->Begin(parent_, request_, layer, name);
    fn();
    return tracer_->End(id);
  }

 private:
  Tracer* tracer_;
  uint64_t parent_;
  uint64_t request_;
};

// ---------------------------------------------------------------------------
// Request replay: each served command again, in-process, on a lease from a
// private SessionManager (the daemon's defaults: 8 idle engines).

struct RequestSamples {
  std::vector<double> parse_us, serialize_us, overhead_ms;
  uint64_t node_accesses = 0;
};

void ReplaySession(const SessionRun& session, SessionManager* manager,
                   Tracer* tracer, RequestSamples* out) {
  EngineLease lease;
  for (const Record& record : session.records) {
    for (size_t j = 0; j < record.lines.size(); ++j) {
      const std::string& line = record.lines[j];
      const std::string& served = record.responses[j];
      const uint64_t root =
          tracer->Begin(record.span, record.span, "replay", VerbOf(line));
      Spans spans(tracer, root, record.span);
      Result<Request> request = Status::InvalidArgument("unparsed");
      out->parse_us.push_back(
          1e3 * spans.Time("server", "ParseRequest",
                           [&] { request = ParseRequest(line); }));
      const Request parsed = Must(std::move(request), "ParseRequest");
      std::optional<DiversifyResponse> response;
      switch (parsed.verb) {
        case Verb::kOpen: {
          OpenParams params = Must(DecodeOpen(parsed), "DecodeOpen");
          spans.Time("server", "SessionManager::Acquire", [&] {
            lease = Must(manager->Acquire(params.config), "Acquire");
          });
          break;
        }
        case Verb::kDiversify: {
          const DiversifyRequest decoded =
              Must(DecodeDiversify(parsed), "DecodeDiversify");
          double seed_radius = 0.0;
          if (served.find("\"adapted\":true") != std::string::npos &&
              FieldDouble(served, "seed_radius", &seed_radius)) {
            // §5.2 adaptation, as the daemon served it.
            DiversifyRequest seed = decoded;
            seed.radius = seed_radius;
            DiscEngine::SessionCapsule capsule;
            spans.Time("engine", "DiscEngine::Diversify", [&] {
              Must(lease.engine().Diversify(seed), "Diversify");
            });
            spans.Time("engine", "DiscEngine::ExportSession",
                       [&] { capsule = lease.engine().ExportSession(); });
            ZoomRequest zoom;
            zoom.radius = decoded.radius;
            spans.Time("engine", "DiscEngine::AdaptFrom", [&] {
              response = Must(lease.engine().AdaptFrom(capsule, zoom),
                              "AdaptFrom");
            });
          } else {
            spans.Time("engine", "DiscEngine::Diversify", [&] {
              response = Must(lease.engine().Diversify(decoded), "Diversify");
            });
          }
          break;
        }
        case Verb::kZoom: {
          const ZoomRequest decoded = Must(DecodeZoom(parsed), "DecodeZoom");
          spans.Time("engine", "DiscEngine::Zoom", [&] {
            response = Must(lease.engine().Zoom(decoded), "Zoom");
          });
          break;
        }
        case Verb::kClose:
          spans.Time("server", "EngineLease::Release", [&] { lease.Release(); });
          break;
        default:
          break;
      }
      if (response.has_value()) {
        out->node_accesses += response->stats.node_accesses;
        std::string text;
        out->serialize_us.push_back(
            1e3 * spans.Time("server", "SerializeDiversifyResponse", [&] {
              text = SerializeDiversifyResponse(parsed.verb, *response);
            }));
      }
      const double replay_ms = tracer->End(root);
      if (response.has_value() && record.framing != Framing::kBatch) {
        out->overhead_ms.push_back(record.ms() - replay_ms);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Layer probes on the workload's main dataset at radii it issues.

struct Probe {
  Spans spans;
  Metrics* metrics;

  template <typename F>
  void Median(const std::string& metric, const char* unit, const char* layer,
              const char* name, int reps, F&& fn) {
    std::vector<double> ms;
    for (int i = 0; i < reps; ++i) ms.push_back(spans.Time(layer, name, fn));
    (*metrics)[metric] = {MedianOf(ms), unit, ms.size()};
  }
};

// Keeps the distance probe's results observable so the calls are not
// optimized away.
volatile double g_distance_sink = 0.0;

/// ns per Distance call over pseudo-random pairs of `dataset`.
double DistanceNs(Spans* spans, const Dataset& dataset,
                  const DistanceMetric& metric) {
  constexpr size_t kCalls = 400000;
  const size_t n = dataset.size();
  double sink = 0.0;
  const double ms = spans->Time("metric", "DistanceMetric::Distance", [&] {
    uint64_t x = 88172645463325252ULL;
    for (size_t i = 0; i < kCalls; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      sink += metric.Distance(dataset.point(x % n), dataset.point((x >> 32) % n));
    }
  });
  g_distance_sink = sink;
  return ms * 1e6 / kCalls;
}

void ProbeLayers(const Workload& workload, uint64_t seed, Spans spans,
                 Metrics* metrics) {
  Probe probe{spans, metrics};
  const std::vector<double> radii = ProbeRadii(workload, seed);
  const double r = radii[0];
  const OpenParams params = Must(
      DecodeOpen(Must(ParseRequest("OPEN " + ProbeOpen(workload)), "parse")),
      "DecodeOpen");
  const EngineConfig& config = params.config;

  // data, engine, mtree build, server lease acquisition.
  Dataset dataset;
  probe.Median("data.resolve_ms", "ms", "data", "ResolveDataset", 3,
               [&] { dataset = Must(ResolveDataset(config.dataset), "data"); });
  probe.Median("engine.create_ms", "ms", "engine", "DiscEngine::Create", 3,
               [&] { Must(DiscEngine::Create(config), "Create"); });
  const std::unique_ptr<DistanceMetric> metric = MakeMetric(config.metric);
  probe.Median("mtree.build_ms.insert", "ms", "mtree", "MTree::Build", 3, [&] {
    MTree tree(dataset, *metric, config.tree);
    if (!tree.Build().ok()) std::exit(2);
  });
  ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
  probe.Median("mtree.build_ms.bulk", "ms", "mtree", "MTree::BulkLoad", 3, [&] {
    MTree tree(dataset, *metric, config.tree);
    if (!tree.BulkLoad(&pool).ok()) std::exit(2);
  });
  {
    std::vector<double> cold, warm;
    for (int i = 0; i < 3; ++i) {
      SessionManager manager(8);
      EngineLease lease;
      cold.push_back(spans.Time("server", "SessionManager::Acquire", [&] {
        lease = Must(manager.Acquire(config), "Acquire");
      }));
      lease.Release();
      warm.push_back(spans.Time("server", "SessionManager::Acquire", [&] {
        lease = Must(manager.Acquire(config), "Acquire");
      }));
    }
    (*metrics)["server.acquire_ms.cold"] = {MedianOf(cold), "ms", 3};
    (*metrics)["server.acquire_ms.warm"] = {MedianOf(warm), "ms", 3};
  }

  // metric: the four kernels of the paper's dataset families.
  {
    const Dataset uniform8 =
        Must(ResolveDataset(DatasetSpec::Uniform(2000, 8, seed)), "uniform");
    const Dataset cameras =
        Must(ResolveDataset(DatasetSpec::Cameras()), "cameras");
    const Dataset clustered2 =
        Must(ResolveDataset(DatasetSpec::Clustered(2000, 2, seed)), "clust");
    const auto euclid = MakeMetric(MetricKind::kEuclidean);
    const auto manhattan = MakeMetric(MetricKind::kManhattan);
    const auto hamming = MakeMetric(MetricKind::kHamming);
    (*metrics)["metric.distance_ns.euclidean-d2"] = {
        DistanceNs(&spans, clustered2, *euclid), "ns", 1};
    (*metrics)["metric.distance_ns.euclidean-d8"] = {
        DistanceNs(&spans, uniform8, *euclid), "ns", 1};
    (*metrics)["metric.distance_ns.manhattan-d8"] = {
        DistanceNs(&spans, uniform8, *manhattan), "ns", 1};
    (*metrics)["metric.distance_ns.hamming-d7"] = {
        DistanceNs(&spans, cameras, *hamming), "ns", 1};
  }

  // mtree: range queries around objects on an all-white tree.
  MTree tree(dataset, *metric, config.tree);
  if (!tree.Build().ok()) std::exit(2);
  {
    constexpr size_t kQueries = 2000;
    std::vector<Neighbor> out;
    const AccessStats before = tree.stats();
    const double ms = spans.Time("mtree", "MTree::RangeQueryAround", [&] {
      for (size_t i = 0; i < kQueries; ++i) {
        out.clear();
        tree.RangeQueryAround(static_cast<ObjectId>((i * 7919) % tree.size()),
                              r, QueryFilter::kAll, false, &out);
      }
    });
    const uint64_t accesses = (tree.stats() - before).node_accesses;
    (*metrics)["mtree.range_query_us"] = {ms * 1e3 / kQueries, "us", kQueries};
    (*metrics)["mtree.node_visit_ns"] = {
        ms * 1e6 / static_cast<double>(std::max<uint64_t>(accesses, 1)), "ns",
        accesses};
  }

  // core: selection per algorithm, then the zoom operations on the greedy
  // solution; speculation's useful share over every selection.
  std::vector<double> greedy_ms, lazy_ms, greedyc_ms, in_ms, out_ms, local_ms,
      recompute_ms, quality_ms;
  SpeculationStats speculation;
  std::vector<ObjectId> greedy_solution;
  for (size_t i = 0; i < radii.size(); ++i) {
    const double radius = radii[i];
    auto select = [&](Algorithm algorithm, const char* name,
                      std::vector<double>* ms) {
      std::vector<uint32_t> counts;
      if (AlgorithmUsesNeighborCounts(algorithm)) {
        tree.ComputeNeighborCountsPostBuild(radius, &counts, &pool);
      }
      AlgorithmRunOptions options;
      options.pool = &pool;
      if (!counts.empty()) options.initial_counts = &counts;
      DiscResult result;
      ms->push_back(spans.Time("core", name, [&] {
        result = RunAlgorithm(&tree, algorithm, radius, options);
      }));
      speculation += result.speculation;
      return result.solution;
    };
    if (i == 0) select(Algorithm::kGreedyC, "RunAlgorithm greedy-c", &greedyc_ms);
    select(Algorithm::kLazyWhite, "RunAlgorithm lazy-white", &lazy_ms);
    greedy_solution = select(Algorithm::kGreedy, "RunAlgorithm greedy",
                             &greedy_ms);
    quality_ms.push_back(spans.Time("eval", "FMin+CoverageFraction", [&] {
      FMin(dataset, *metric, greedy_solution);
      CoverageFraction(dataset, *metric, radius, greedy_solution);
    }));
    recompute_ms.push_back(
        spans.Time("mtree", "MTree::RecomputeClosestBlackDistances",
                   [&] { tree.RecomputeClosestBlackDistances(radius); }));
    in_ms.push_back(spans.Time("core", "ZoomIn", [&] {
      ZoomIn(&tree, radius * 0.7, true, true);
    }));
    out_ms.push_back(spans.Time("core", "ZoomOut", [&] {
      ZoomOut(&tree, radius * 1.5, ZoomOutVariant::kGreedyMostRed);
    }));
    local_ms.push_back(spans.Time("core", "LocalZoom", [&] {
      LocalZoom(&tree, greedy_solution.front(), radius * 1.5, radius * 0.7,
                true);
    }));
  }
  (*metrics)["core.select_ms.greedy"] = {MedianOf(greedy_ms), "ms",
                                         greedy_ms.size()};
  (*metrics)["core.select_ms.lazy-white"] = {MedianOf(lazy_ms), "ms",
                                             lazy_ms.size()};
  (*metrics)["core.select_ms.greedy-c"] = {MedianOf(greedyc_ms), "ms",
                                           greedyc_ms.size()};
  (*metrics)["core.zoom_in_ms"] = {MedianOf(in_ms), "ms", in_ms.size()};
  (*metrics)["core.zoom_out_ms"] = {MedianOf(out_ms), "ms", out_ms.size()};
  (*metrics)["core.zoom_local_ms"] = {MedianOf(local_ms), "ms",
                                      local_ms.size()};
  (*metrics)["core.spec_useful_ratio"] = {
      static_cast<double>(speculation.committed) /
          static_cast<double>(std::max<uint64_t>(speculation.evaluated, 1)),
      "ratio", speculation.evaluated};
  (*metrics)["mtree.recompute_black_ms"] = {MedianOf(recompute_ms), "ms",
                                            recompute_ms.size()};
  (*metrics)["eval.quality_ms"] = {MedianOf(quality_ms), "ms",
                                   quality_ms.size()};

  // neighbor: the grid backend's neighborhood graph.
  {
    NeighborBackendOptions options;
    options.kind = NeighborBackendKind::kGrid;
    std::unique_ptr<NeighborBackend> backend;
    spans.Time("neighbor", "CreateNeighborBackend", [&] {
      backend = Must(CreateNeighborBackend(dataset, *metric, options, &pool),
                     "CreateNeighborBackend");
    });
    const uint64_t before = backend->stats().distance_computations;
    const double ms = spans.Time("neighbor", "NeighborhoodGraph::FromBackend",
                                 [&] {
      Must(NeighborhoodGraph::FromBackend(*backend, r, &pool), "FromBackend");
    });
    (*metrics)["neighbor.graph_build_ms.grid"] = {ms, "ms", 1};
    (*metrics)["neighbor.distance_calls.grid"] = {
        static_cast<double>(backend->stats().distance_computations - before),
        "count", 1};
  }

  // engine: neighborhood counts, session capsules, adaptation, cache hits.
  {
    auto engine = Must(DiscEngine::Create(config), "Create");
    auto other = Must(DiscEngine::Create(config), "Create");
    DiversifyRequest lazy;
    lazy.algorithm = Algorithm::kLazyWhite;
    lazy.radius = radii[1];
    const double fresh = spans.Time("engine", "DiscEngine::Diversify", [&] {
      Must(engine->Diversify(lazy), "Diversify");
    });
    engine->Reset();  // keeps the per-radius counts, drops the solution
    const double warm = spans.Time("engine", "DiscEngine::Diversify", [&] {
      Must(engine->Diversify(lazy), "Diversify");
    });
    (*metrics)["engine.counts_ms"] = {fresh - warm, "ms", 1};

    DiversifyRequest greedy;
    greedy.radius = radii[1];
    Must(engine->Diversify(greedy), "Diversify");
    DiscEngine::SessionCapsule capsule;
    probe.Median("engine.export_ms", "ms", "engine", "DiscEngine::ExportSession",
                 3, [&] { capsule = engine->ExportSession(); });
    probe.Median("engine.adopt_ms", "ms", "engine", "DiscEngine::AdoptSession",
                 3, [&] { (void)other->AdoptSession(capsule); });
    ZoomRequest zoom;
    zoom.radius = radii[1] * 0.8;
    probe.Median("engine.adapt_ms", "ms", "engine", "DiscEngine::AdaptFrom", 3,
                 [&] { Must(other->AdaptFrom(capsule, zoom), "AdaptFrom"); });
    probe.Median("engine.cache_hit_ms", "ms", "engine",
                 "DiscEngine::Diversify", 3,
                 [&] { Must(engine->Diversify(greedy), "Diversify"); });
  }
}

}  // namespace

Metrics ReplayLayers(const Workload& workload, uint64_t seed,
                     const std::vector<SessionRun>& sessions, Tracer* tracer) {
  Metrics metrics;

  // Sessions in the order they started, until the budget is spent.
  std::vector<const SessionRun*> order;
  for (const SessionRun& session : sessions) {
    if (!session.records.empty()) order.push_back(&session);
  }
  std::sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
    return a->records.front().start_ns < b->records.front().start_ns;
  });
  SessionManager manager(8);
  RequestSamples samples;
  const int64_t start = NowNs();
  size_t replayed = 0;
  for (const SessionRun* session : order) {
    if (static_cast<double>(NowNs() - start) / 1e6 > kRequestReplayBudgetMs) {
      break;
    }
    ReplaySession(*session, &manager, tracer, &samples);
    ++replayed;
  }
  std::printf("# replay sessions=%zu of %zu\n", replayed, order.size());
  metrics["server.parse_us"] = {MedianOf(samples.parse_us), "us",
                                samples.parse_us.size()};
  metrics["server.serialize_us"] = {MedianOf(samples.serialize_us), "us",
                                    samples.serialize_us.size()};
  metrics["server.overhead_ms"] = {MedianOf(samples.overhead_ms), "ms",
                                   samples.overhead_ms.size()};
  metrics["mtree.node_accesses"] = {
      static_cast<double>(samples.node_accesses), "count", replayed};

  const uint64_t root = tracer->Begin(0, 0, "replay", "layer probes");
  ProbeLayers(workload, seed, Spans(tracer, root, root), &metrics);
  tracer->End(root);
  return metrics;
}

}  // namespace perfbench
