// Parallel neighborhood construction: the threads-matrix benchmark.
//
// CI runs this binary twice — DISC_THREADS=1 and DISC_THREADS=4 — and
// gates two properties across the legs (bench/diff_bench_json.py):
//   * determinism: every counter reported here (edges, node accesses,
//     range queries, count checksums, and the adjacency checksum of every
//     graph row, so graph bytes and not just edge counts) must be
//     bit-identical across legs;
//   * speedup: the 4-thread leg must win graph-build wall time by >= 1.5x
//     at n >= 10k on the brute-force path (pure distance compute, the one
//     whose scaling is machine-independent enough to hard-gate; the grid,
//     index, and counts passes are reported for trend watching but not
//     gated — they are memory/allocator-bound and noisier on CI runners).
//
// The benchmarks cover the G_r build paths (NeighborhoodGraph's brute and
// grid builds, and the index-backed MTree::BuildNeighborhoods) plus the
// engine's neighborhood-count pass — the passes rewired onto
// util/parallel.h. Wall times land in google-benchmark's real_time; the
// deterministic counters double as the cross-leg identity proof. The grid
// rows also report their candidate pairs (distance_computations) and the
// wall time per candidate (per_candidate_ns, a wall-clock metric), and two
// extra grid rows build open-churn's shape serially and on 4 threads in
// both legs.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "graph/neighborhood.h"
#include "neighbor/adjacency.h"
#include "mtree/mtree.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace disc {
namespace bench {
namespace {

// The matrix leg this process runs: worker threads for every parallel pass.
size_t BenchThreads() {
  static const size_t threads = [] {
    const char* env = std::getenv("DISC_THREADS");
    if (env == nullptr) return size_t{1};
    const long parsed = std::strtol(env, nullptr, 10);
    return parsed > 0 ? static_cast<size_t>(parsed) : size_t{1};
  }();
  return threads;
}

// One pool for the whole binary (workers persist across benchmarks, like a
// served engine's pool). Null at 1 thread so the serial paths run.
ThreadPool* BenchPool() {
  static ThreadPool* pool =
      BenchThreads() > 1 ? new ThreadPool(BenchThreads()) : nullptr;
  return pool;
}

// The leg's thread count is deliberately NOT a table column: the cross-leg
// identity gate keys rows by their labels, and both legs must produce the
// same keys (the leg is ambient — DISC_THREADS — and wall time lives in
// the *_ms column, which the deterministic gate ignores).
TableCollector* ParallelTable() {
  static TableCollector table(
      "Parallel neighborhood construction (threads from DISC_THREADS)",
      "parallel_build.csv", {"pass", "n", "build_ms", "edges",
                             "node_accesses", "adjacency_checksum"});
  return &table;
}

void AddParallelRow(const char* pass, size_t n, double ms, uint64_t edges,
                    uint64_t node_accesses, uint32_t adjacency_checksum) {
  ParallelTable()->AddRow({pass, std::to_string(n), FormatDouble(ms, 4),
                           std::to_string(edges),
                           std::to_string(node_accesses),
                           std::to_string(adjacency_checksum)});
}

// Word-wise FNV-1a over every row's degree and ids. 32 bits, so the value
// survives the JSON's doubles exactly.
uint32_t AdjacencyChecksum(const CsrAdjacency& adjacency) {
  uint32_t hash = 2166136261u;
  auto mix = [&hash](uint32_t word) {
    hash ^= word;
    hash *= 16777619u;
  };
  for (ObjectId v = 0; v < adjacency.size(); ++v) {
    mix(static_cast<uint32_t>(adjacency.degree(v)));
    for (ObjectId id : adjacency.row(v)) mix(id);
  }
  return hash;
}

// O(n^2) path: dim 4 keeps the grid accelerator out. The chunky workload
// the speedup gate measures.
void BM_GraphBrute(benchmark::State& state, size_t n) {
  Dataset dataset = MakeUniformDataset(n, 4, 42);
  EuclideanMetric metric;
  const double radius = 0.35;
  double ms = 0.0;
  uint64_t edges = 0;
  uint32_t checksum = 0;
  for (auto _ : state) {
    Stopwatch watch;
    NeighborhoodGraph graph(dataset, metric, radius, BenchPool());
    ms = watch.ElapsedMillis();
    edges = graph.num_edges();
    checksum = AdjacencyChecksum(graph.adjacency());
    benchmark::DoNotOptimize(checksum);
  }
  state.counters["edges"] = static_cast<double>(edges);
  state.counters["adjacency_checksum"] = checksum;
  AddParallelRow("brute", n, ms, edges, 0, checksum);
}

// Grid path: the default for the paper's 2-D workloads, built by the
// builder NeighborhoodGraph delegates to, so the candidate-pair count (one
// distance each) is reported too: a deterministic counter, and divided
// into the best iteration's wall time as the cost per candidate.
void RunGraphGrid(benchmark::State& state, const char* pass,
                  const Dataset& dataset, double radius, ThreadPool* pool) {
  double ms = 0.0;
  uint64_t edges = 0;
  uint64_t candidates = 0;
  uint32_t checksum = 0;
  for (auto _ : state) {
    Stopwatch watch;
    const CsrAdjacency adjacency =
        BuildAdjacencyWithGrid(dataset, Euclidean(), radius, pool,
                               &candidates);
    const double elapsed = watch.ElapsedMillis();
    ms = ms == 0.0 ? elapsed : std::min(ms, elapsed);
    edges = adjacency.num_edges();
    checksum = AdjacencyChecksum(adjacency);
    benchmark::DoNotOptimize(checksum);
  }
  state.counters["edges"] = static_cast<double>(edges);
  state.counters["adjacency_checksum"] = checksum;
  state.counters["distance_computations"] = static_cast<double>(candidates);
  state.counters["per_candidate_ns"] =
      candidates > 0 ? ms * 1e6 / static_cast<double>(candidates) : 0.0;
  AddParallelRow(pass, dataset.size(), ms, edges, 0, checksum);
}

void BM_GraphGrid(benchmark::State& state, size_t n) {
  RunGraphGrid(state, "grid", Clustered(n, 2), 0.03, BenchPool());
}

// Index-backed path (one range query per object): MTree::BuildNeighborhoods
// over a bulk-loaded tree (capacity 50, MinOverlap, seed 42); node accesses
// must be bit-identical across legs (per-thread sinks summed).
void BM_GraphIndex(benchmark::State& state, size_t n) {
  const Dataset& dataset = Clustered(n, 2);
  MTreeOptions options;
  options.build.strategy = BuildStrategy::kBulkLoad;
  MTree tree(dataset, Euclidean(), options);
  const Status built = tree.Build();
  if (!built.ok()) {
    state.SkipWithError(built.ToString().c_str());
    return;
  }
  const double radius = 0.03;
  double ms = 0.0;
  uint64_t edges = 0;
  uint32_t checksum = 0;
  for (auto _ : state) {
    tree.ResetStats();
    Stopwatch watch;
    const CsrAdjacency adjacency = tree.BuildNeighborhoods(radius, BenchPool());
    ms = watch.ElapsedMillis();
    edges = adjacency.num_edges();
    checksum = AdjacencyChecksum(adjacency);
    benchmark::DoNotOptimize(checksum);
  }
  const AccessStats& stats = tree.stats();
  state.counters["edges"] = static_cast<double>(edges);
  state.counters["adjacency_checksum"] = checksum;
  state.counters["node_accesses"] = static_cast<double>(stats.node_accesses);
  state.counters["range_queries"] = static_cast<double>(stats.range_queries);
  AddParallelRow("index", n, ms, edges, stats.node_accesses, checksum);
}

// The engine's CountsForRadius pass (Greedy-DisC initialization): one range
// query per object, counts checksummed for the cross-leg identity gate.
void BM_Counts(benchmark::State& state, size_t n) {
  const Dataset& dataset = Clustered(n, 2);
  MTree* tree = CachedTree(dataset, Euclidean());
  const double radius = 0.03;
  double ms = 0.0;
  uint64_t checksum = 0;
  uint64_t accesses = 0;
  std::vector<uint32_t> counts;
  for (auto _ : state) {
    tree->ResetStats();
    Stopwatch watch;
    tree->ComputeNeighborCountsPostBuild(radius, &counts, BenchPool());
    ms = watch.ElapsedMillis();
    checksum = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
      checksum += counts[i] * (i + 1);  // order-sensitive checksum
    }
    accesses = tree->stats().node_accesses;
    benchmark::DoNotOptimize(checksum);
  }
  state.counters["counts_checksum"] = static_cast<double>(checksum);
  state.counters["node_accesses"] = static_cast<double>(accesses);
  AddParallelRow("counts", n, ms, 0, accesses, 0);
}

// open-churn's grid shape (its first pool key's dataset, clustered n=6000
// seed 1, at r=0.05) serially and on a fixed 4-thread pool, whatever the
// leg: the build's cost per candidate and its scaling side by side.
void BM_GraphGridChurn(benchmark::State& state, size_t threads) {
  static const Dataset dataset = MakeClusteredDataset(6000, 2, 1);
  static ThreadPool pool(4);
  RunGraphGrid(state, threads == 1 ? "grid-churn-t1" : "grid-churn-t4",
               dataset, 0.05, threads == 1 ? nullptr : &pool);
}

[[maybe_unused]] const bool registered = [] {
  for (size_t threads : {1, 4}) {
    benchmark::RegisterBenchmark(
        ("Parallel/GraphGrid/n=6000/threads=" + std::to_string(threads))
            .c_str(),
        [threads](benchmark::State& state) {
          BM_GraphGridChurn(state, threads);
        })
        ->Iterations(5)
        ->Unit(benchmark::kMillisecond);
  }
  const size_t kSizes[] = {10000, 20000};
  for (size_t n : kSizes) {
    for (auto& [name, fn] :
         {std::pair<const char*, void (*)(benchmark::State&, size_t)>{
              "GraphBrute", BM_GraphBrute},
          {"GraphGrid", BM_GraphGrid},
          {"GraphIndex", BM_GraphIndex},
          {"Counts", BM_Counts}}) {
      std::string bench_name =
          "Parallel/" + std::string(name) + "/n=" + std::to_string(n);
      auto* fn_copy = fn;
      benchmark::RegisterBenchmark(
          bench_name.c_str(),
          [fn_copy, n](benchmark::State& state) { fn_copy(state, n); })
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
  return true;
}();

}  // namespace
}  // namespace bench
}  // namespace disc

DISC_BENCH_MAIN()
