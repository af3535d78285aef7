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
// The benchmarks cover the NeighborhoodGraph build paths (brute, grid, and
// the index-backed FromBackend path over ExactMTreeBackend) plus the
// engine's neighborhood-count pass — the passes rewired onto
// util/parallel.h. Wall times land in google-benchmark's real_time; the
// deterministic counters double as the cross-leg identity proof.

#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "graph/neighborhood.h"
#include "neighbor/exact_backend.h"
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
uint32_t AdjacencyChecksum(const NeighborhoodGraph& graph) {
  uint32_t hash = 2166136261u;
  auto mix = [&hash](uint32_t word) {
    hash ^= word;
    hash *= 16777619u;
  };
  for (ObjectId v = 0; v < graph.num_vertices(); ++v) {
    mix(static_cast<uint32_t>(graph.degree(v)));
    for (ObjectId id : graph.neighbors(v)) mix(id);
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
    checksum = AdjacencyChecksum(graph);
    benchmark::DoNotOptimize(checksum);
  }
  state.counters["edges"] = static_cast<double>(edges);
  state.counters["adjacency_checksum"] = checksum;
  AddParallelRow("brute", n, ms, edges, 0, checksum);
}

// Grid path: the default for the paper's 2-D workloads.
void BM_GraphGrid(benchmark::State& state, size_t n) {
  const Dataset& dataset = Clustered(n, 2);
  const double radius = 0.03;
  double ms = 0.0;
  uint64_t edges = 0;
  uint32_t checksum = 0;
  for (auto _ : state) {
    Stopwatch watch;
    NeighborhoodGraph graph(dataset, Euclidean(), radius, BenchPool());
    ms = watch.ElapsedMillis();
    edges = graph.num_edges();
    checksum = AdjacencyChecksum(graph);
    benchmark::DoNotOptimize(checksum);
  }
  state.counters["edges"] = static_cast<double>(edges);
  state.counters["adjacency_checksum"] = checksum;
  AddParallelRow("grid", n, ms, edges, 0, checksum);
}

// Index-backed path (one range query per object) through ExactMTreeBackend
// over a bulk-loaded tree (the backend's default options: capacity 50,
// MinOverlap, seed 42); node accesses must be bit-identical across legs
// (per-thread sinks summed).
void BM_GraphIndex(benchmark::State& state, size_t n) {
  const Dataset& dataset = Clustered(n, 2);
  auto backend = ExactMTreeBackend::Create(dataset, Euclidean());
  if (!backend.ok()) {
    state.SkipWithError(backend.status().ToString().c_str());
    return;
  }
  const double radius = 0.03;
  double ms = 0.0;
  uint64_t edges = 0;
  uint32_t checksum = 0;
  for (auto _ : state) {
    (*backend)->ResetStats();
    Stopwatch watch;
    auto graph =
        NeighborhoodGraph::FromBackend(**backend, radius, BenchPool());
    ms = watch.ElapsedMillis();
    if (!graph.ok()) {
      state.SkipWithError(graph.status().ToString().c_str());
      return;
    }
    edges = graph->num_edges();
    checksum = AdjacencyChecksum(*graph);
    benchmark::DoNotOptimize(checksum);
  }
  const AccessStats& stats = (*backend)->stats();
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

[[maybe_unused]] const bool registered = [] {
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
