// Neighbor-backend exactness and scale benchmark.
//
// Two claims ride on this binary, both gated in CI
// (bench/diff_bench_json.py over the merged BENCH JSON):
//   * exactness — both kinds build the full neighborhood structure of three
//     workloads and must match the exact oracle row for row (mismatches,
//     the number of rows that differ, == 0): the paper's clustered 2-D
//     workload, where the grid accelerator applies, and two 8-D workloads,
//     where the grid falls back to the O(n^2) scan — uniform (r=0.4), where
//     the scan wins, and clustered (r=0.05), where the M-tree wins. The
//     grid rows build through graph mode's NeighborBackend; the exact rows
//     through MTree::BuildNeighborhoods over a bulk-loaded tree (capacity
//     50, MinOverlap, seed 42), built outside the timed region. Build wall
//     times are reported so the exact-point cap's choice of kind per regime
//     stays grounded.
//   * scale — the grid backend builds the exact million-point 2-D
//     neighborhood graph (the path the exact-point cap points
//     low-dimensional inputs to); its edge count is pinned.
//
// Workload sizes scale via DISC_NEIGHBOR_N (clustered 2-D rows, default
// 10000; 0 keeps the default) and DISC_NEIGHBOR_SCALE_N (scale row, default
// 1000000, 0 skips it); the 8-D rows hold 20000 points.

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>

#include "bench/common.h"
#include "graph/neighborhood.h"
#include "mtree/mtree.h"
#include "neighbor/backend.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace disc {
namespace bench {
namespace {

// The non-negative integer in environment variable `name` (0 included), or
// `fallback` when it is unset or holds anything else.
size_t EnvSize(const char* name, size_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(env, &end, 10);
  return *end == '\0' && parsed >= 0 ? static_cast<size_t>(parsed) : fallback;
}

// One pool for the whole binary; build wall times are reported, not gated,
// so hardware threads are the honest configuration.
ThreadPool* BenchPool() {
  static ThreadPool* pool = new ThreadPool(DefaultThreads());
  return pool;
}

TableCollector* ExactnessTable() {
  static TableCollector table(
      "Neighbor backend exactness (vs exact oracle)", "neighbor_backends.csv",
      {"backend", "workload", "n", "dim", "build_ms", "edges", "mismatches"});
  return &table;
}

TableCollector* ScaleTable() {
  static TableCollector table("Neighbor backend scale (grid)",
                              "neighbor_scale.csv",
                              {"backend", "n", "build_ms", "edges"});
  return &table;
}

struct Workload {
  const char* name;  // "clustered" or "uniform"
  size_t n;
  size_t dim;
  double radius;
  // Built on first use and shared by every backend row: the dataset and
  // its exact oracle from the graph layer's direct builders
  // (grid-accelerated in 2-D, the O(n^2) scan in 8-D).
  const Dataset* dataset = nullptr;
  const CsrAdjacency* oracle = nullptr;
};

void Prepare(Workload& workload) {
  if (workload.dataset != nullptr) return;
  workload.dataset =
      std::string(workload.name) == "clustered"
          ? &Clustered(workload.n, workload.dim)
          : new Dataset(MakeUniformDataset(workload.n, workload.dim, 42));
  workload.oracle = new CsrAdjacency(
      NeighborhoodGraph(*workload.dataset, Euclidean(), workload.radius,
                        BenchPool())
          .adjacency());
}

// Rows of `candidate` that differ from the oracle's (every row when the
// row counts differ).
size_t MismatchedRows(const CsrAdjacency& oracle,
                      const CsrAdjacency& candidate) {
  if (candidate.size() != oracle.size()) {
    return std::max(candidate.size(), oracle.size());
  }
  size_t mismatches = 0;
  for (ObjectId v = 0; v < oracle.size(); ++v) {
    if (!std::ranges::equal(candidate.row(v), oracle.row(v))) ++mismatches;
  }
  return mismatches;
}

// Builds `kind` over the workload, counts the rows that differ from the
// oracle, and lands everything in the table + counters.
void BM_BackendExactness(benchmark::State& state, Workload& workload,
                         NeighborBackendKind kind) {
  Prepare(workload);
  const Dataset& dataset = *workload.dataset;

  const NeighborBackend backend(dataset, Euclidean());
  std::unique_ptr<MTree> tree;
  if (kind == NeighborBackendKind::kExact) {
    MTreeOptions options;
    options.build.strategy = BuildStrategy::kBulkLoad;
    tree = std::make_unique<MTree>(dataset, Euclidean(), options);
    const Status built = tree->Build();
    if (!built.ok()) {
      state.SkipWithError(built.ToString().c_str());
      return;
    }
  }

  double ms = 0.0;
  size_t mismatches = 0;
  size_t edges = 0;
  for (auto _ : state) {
    Stopwatch watch;
    const CsrAdjacency adjacency =
        tree != nullptr
            ? tree->BuildNeighborhoods(workload.radius, BenchPool())
            : backend.BuildNeighborhoods(workload.radius, BenchPool());
    ms = watch.ElapsedMillis();
    edges = adjacency.num_edges();
    mismatches = MismatchedRows(*workload.oracle, adjacency);
    benchmark::DoNotOptimize(edges);
  }
  state.counters["edges"] = static_cast<double>(edges);
  state.counters["mismatches"] = static_cast<double>(mismatches);
  ExactnessTable()->AddRow(
      {NeighborBackendKindToString(kind), workload.name,
       std::to_string(workload.n), std::to_string(workload.dim),
       FormatDouble(ms, 4), std::to_string(edges),
       std::to_string(mismatches)});
}

// The scale row: the grid over a million uniform 2-D points — above the
// exact-point cap, which sends grid-compatible inputs to the grid.
void BM_GridScale(benchmark::State& state, size_t n) {
  const Dataset dataset = MakeUniformDataset(n, 2, 42);
  const double radius = 0.003;

  NeighborBackendOptions options;
  options.kind = NeighborBackendKind::kGrid;
  auto backend =
      CreateNeighborBackend(dataset, Euclidean(), options);
  if (!backend.ok()) {
    state.SkipWithError(backend.status().ToString().c_str());
    return;
  }

  double ms = 0.0;
  size_t edges = 0;
  for (auto _ : state) {
    Stopwatch watch;
    auto graph = NeighborhoodGraph::FromBackend(**backend, radius,
                                                BenchPool());
    ms = watch.ElapsedMillis();
    if (!graph.ok()) {
      state.SkipWithError(graph.status().ToString().c_str());
      return;
    }
    edges = graph->num_edges();
    benchmark::DoNotOptimize(edges);
  }
  state.counters["edges"] = static_cast<double>(edges);
  ScaleTable()->AddRow({"grid", std::to_string(n), FormatDouble(ms, 4),
                        std::to_string(edges)});
}

[[maybe_unused]] const bool registered = [] {
  const size_t clustered_n = EnvSize("DISC_NEIGHBOR_N", 10000);
  static Workload* workloads = new Workload[3]{
      {"clustered", clustered_n > 0 ? clustered_n : 10000, 2, 0.03},
      {"uniform", 20000, 8, 0.4},
      {"clustered", 20000, 8, 0.05}};
  for (Workload* workload = workloads; workload != workloads + 3;
       ++workload) {
    for (auto& [name, kind] :
         {std::pair<const char*, NeighborBackendKind>{
              "Exact", NeighborBackendKind::kExact},
          {"Grid", NeighborBackendKind::kGrid}}) {
      auto kind_copy = kind;
      std::string bench_name = "NeighborExactness/" + std::string(name) +
                               "/" + workload->name +
                               "/n=" + std::to_string(workload->n) +
                               "/dim=" + std::to_string(workload->dim);
      benchmark::RegisterBenchmark(
          bench_name.c_str(),
          [workload, kind_copy](benchmark::State& state) {
            BM_BackendExactness(state, *workload, kind_copy);
          })
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
  const size_t scale_n = EnvSize("DISC_NEIGHBOR_SCALE_N", 1000000);
  if (scale_n > 0) {
    std::string scale_name = "NeighborScale/Grid/n=" + std::to_string(scale_n);
    benchmark::RegisterBenchmark(
        scale_name.c_str(),
        [scale_n](benchmark::State& state) { BM_GridScale(state, scale_n); })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  return true;
}();

}  // namespace
}  // namespace bench
}  // namespace disc

DISC_BENCH_MAIN()
