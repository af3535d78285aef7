// Neighbor-backend quality and scale benchmark (ISSUE 8).
//
// Two claims ride on this binary, both gated in CI
// (bench/diff_bench_json.py over the merged BENCH JSON):
//   * quality — every backend builds the full neighborhood structure for
//     the paper's clustered workload; the exact family must match the
//     oracle bit-for-bit (mismatches == 0), and the LSH family's recall
//     under the documented default configuration must clear 0.9. The
//     downstream effect is measured too: Greedy-DisC runs on each backend's
//     graph and the solution is judged on the TRUE neighborhoods (coverage,
//     independence-violation rate).
//   * scale — the lsh-sharded backend builds a million-point neighborhood
//     graph (the configuration the exact-backend guardrail points users
//     to), with its recall measured against the grid-accelerated oracle.
//
// Workload sizes scale via DISC_NEIGHBOR_N (quality rows, default 10000)
// and DISC_NEIGHBOR_SCALE_N (scale row, default 1000000, 0 skips it).

#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "core/reference.h"
#include "eval/neighbor_eval.h"
#include "graph/neighborhood.h"
#include "neighbor/backend.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace disc {
namespace bench {
namespace {

size_t EnvSize(const char* name, size_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  const long parsed = std::strtol(env, nullptr, 10);
  return parsed > 0 ? static_cast<size_t>(parsed) : fallback;
}

// One pool for the whole binary; build wall times are reported, not gated,
// so hardware threads are the honest configuration.
ThreadPool* BenchPool() {
  static ThreadPool* pool = new ThreadPool(DefaultThreads());
  return pool;
}

TableCollector* QualityTable() {
  static TableCollector table(
      "Neighbor backend quality (vs exact oracle)", "neighbor_backends.csv",
      {"backend", "n", "build_ms", "edges", "recall", "mismatches",
       "coverage", "indep_viol"});
  return &table;
}

// The scale row gets its own table: diff_bench_json.py demotes any column
// with a non-numeric cell to a row label, so a "-" placeholder here would
// silently un-gate the quality table's coverage column.
TableCollector* ScaleTable() {
  static TableCollector table(
      "Neighbor backend scale (lsh-sharded)", "neighbor_scale.csv",
      {"backend", "n", "build_ms", "edges", "recall", "false_edges"});
  return &table;
}

// The shared exact oracle for the quality rows (grid-accelerated build).
const CsrAdjacency& QualityOracle(const Dataset& dataset, double radius) {
  static const CsrAdjacency* oracle = new CsrAdjacency(
      NeighborhoodGraph(dataset, Euclidean(), radius, BenchPool())
          .adjacency());
  return *oracle;
}

// Builds `kind` over the workload, measures edge agreement with the oracle
// and the on-oracle quality of the Greedy-DisC solution computed on the
// backend's graph, and lands everything in the table + counters.
void BM_BackendQuality(benchmark::State& state, NeighborBackendKind kind) {
  const size_t n = EnvSize("DISC_NEIGHBOR_N", 10000);
  const Dataset& dataset = Clustered(n, 2);
  const double radius = 0.03;
  const CsrAdjacency& oracle = QualityOracle(dataset, radius);

  NeighborBackendOptions options;
  options.kind = kind;
  auto backend =
      CreateNeighborBackend(dataset, Euclidean(), options, BenchPool());
  if (!backend.ok()) {
    state.SkipWithError(backend.status().ToString().c_str());
    return;
  }

  double ms = 0.0;
  AdjacencyComparison comparison;
  SolutionGraphQuality quality;
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
    comparison = CompareAdjacency(oracle, graph->adjacency());
    quality = EvaluateSolutionOnOracle(oracle, ReferenceGreedyDisc(*graph));
    benchmark::DoNotOptimize(edges);
  }
  state.counters["edges"] = static_cast<double>(edges);
  state.counters["recall"] = comparison.recall;
  state.counters["mismatches"] = static_cast<double>(comparison.mismatches());
  state.counters["coverage"] = quality.coverage;
  state.counters["indep_viol"] = quality.independence_violation_rate;
  QualityTable()->AddRow(
      {NeighborBackendKindToString(kind), std::to_string(n),
       FormatDouble(ms, 4), std::to_string(edges),
       FormatDouble(comparison.recall, 6),
       std::to_string(comparison.mismatches()),
       FormatDouble(quality.coverage, 6),
       FormatDouble(quality.independence_violation_rate, 6)});
}

// The scale row: lsh-sharded over a million uniform points — the workload
// the exact-family guardrail refuses — with recall against the
// grid-accelerated oracle.
void BM_LshShardedScale(benchmark::State& state) {
  const size_t n = EnvSize("DISC_NEIGHBOR_SCALE_N", 1000000);
  const Dataset dataset = MakeUniformDataset(n, 2, 42);
  const double radius = 0.003;

  NeighborBackendOptions options;
  options.kind = NeighborBackendKind::kLshSharded;
  auto backend =
      CreateNeighborBackend(dataset, Euclidean(), options, BenchPool());
  if (!backend.ok()) {
    state.SkipWithError(backend.status().ToString().c_str());
    return;
  }

  double ms = 0.0;
  AdjacencyComparison comparison;
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
    NeighborhoodGraph oracle(dataset, Euclidean(), radius, BenchPool());
    comparison = CompareAdjacency(oracle.adjacency(), graph->adjacency());
    benchmark::DoNotOptimize(edges);
  }
  state.counters["edges"] = static_cast<double>(edges);
  state.counters["recall"] = comparison.recall;
  state.counters["false_edges"] =
      static_cast<double>(comparison.false_edges);
  ScaleTable()->AddRow(
      {"lsh-sharded", std::to_string(n), FormatDouble(ms, 4),
       std::to_string(edges), FormatDouble(comparison.recall, 6),
       std::to_string(comparison.false_edges)});
}

[[maybe_unused]] const bool registered = [] {
  for (auto& [name, kind] :
       {std::pair<const char*, NeighborBackendKind>{
            "Exact", NeighborBackendKind::kExact},
        {"Grid", NeighborBackendKind::kGrid},
        {"Sharded", NeighborBackendKind::kSharded},
        {"Lsh", NeighborBackendKind::kLsh},
        {"LshSharded", NeighborBackendKind::kLshSharded}}) {
    auto kind_copy = kind;
    std::string bench_name =
        "NeighborQuality/" + std::string(name) + "/n=" +
        std::to_string(EnvSize("DISC_NEIGHBOR_N", 10000));
    benchmark::RegisterBenchmark(
        bench_name.c_str(),
        [kind_copy](benchmark::State& state) {
          BM_BackendQuality(state, kind_copy);
        })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  if (EnvSize("DISC_NEIGHBOR_SCALE_N", 1000000) > 0) {
    std::string scale_name =
        "NeighborScale/LshSharded/n=" +
        std::to_string(EnvSize("DISC_NEIGHBOR_SCALE_N", 1000000));
    benchmark::RegisterBenchmark(
        scale_name.c_str(),
        [](benchmark::State& state) { BM_LshShardedScale(state); })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  return true;
}();

}  // namespace
}  // namespace bench
}  // namespace disc

DISC_BENCH_MAIN()
