// Greedy selection, the counts pass and the bulk load: serial passes timed
// next to the threads-matrix benchmark.
//
// CI runs this binary on both legs of the threads matrix (DISC_THREADS=1 and
// DISC_THREADS=4) and gates determinism across the legs
// (bench/diff_bench_json.py): every counter reported here (solution sizes
// and checksums, node accesses, distance computations, tree checksums) must
// be bit-identical across legs. No row here uses a pool.
//
// The Select rows time the greedy selection loops, which are serial (each
// step's range query depends on the colors the previous step changed); each
// reports the best of 5 runs.
// The CountsPass rows time the serial counts pass (one range query per
// object over the built tree, MTree::ComputeNeighborCountsPostBuild without
// a pool) and report its cost per distance computed: the M-tree node-visit
// layer, where a change to the search loop shows up first.
// The GraphSelect rows time the same loops in graph mode — the reference
// solvers a grid-backed session runs over its CSR — where L' upkeep is
// nearly the whole cost.
// The BulkLoad row times the (serial) M-tree bulk load, and the ZoomChain
// rows are the A/B for the greedy zoom-in observe-all variant (core/zoom.h)
// that decide whether observing every neighbor during selection beats
// recomputing closest-black distances before each chained zoom-in.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/reference.h"
#include "core/zoom.h"
#include "graph/neighborhood.h"
#include "util/stopwatch.h"

namespace disc {
namespace bench {
namespace {

// The leg's thread count is deliberately NOT a table column (see
// bench_parallel_build.cc: cross-leg gates key rows by label).
TableCollector* SelectTable() {
  static TableCollector table(
      "Greedy selection (threads from DISC_THREADS)", "parallel_select.csv",
      {"pass", "n", "select_ms", "solution", "node_accesses"});
  return &table;
}

uint64_t SolutionChecksum(const std::vector<ObjectId>& solution) {
  uint64_t checksum = 0;
  for (size_t i = 0; i < solution.size(); ++i) {
    checksum += static_cast<uint64_t>(solution[i]) * (i + 1);
  }
  return checksum;
}

// Greedy-family selection at n=10k with construction-time counts: the
// measured region is exactly the selection loop, the paper's Figures 7-9
// cost center.
void BM_Select(benchmark::State& state, Algorithm algorithm, size_t n) {
  const Dataset& dataset = Clustered(n, 2);
  const double radius = 0.03;
  TreeWithCounts cached = CachedTreeWithCounts(dataset, Euclidean(), radius);
  AlgorithmRunOptions options;
  options.initial_counts = cached.counts;
  DiscResult result;
  double ms = 0.0;
  for (auto _ : state) {
    // Five runs inside the one iteration: the best of them is the row's
    // time, and the row keeps the name the committed baseline keys on.
    for (int run = 0; run < 5; ++run) {
      cached.tree->ResetStats();
      Stopwatch watch;
      result = RunAlgorithm(cached.tree, algorithm, radius, options);
      const double elapsed = watch.ElapsedMillis();
      ms = ms == 0.0 ? elapsed : std::min(ms, elapsed);
      benchmark::DoNotOptimize(result.solution.data());
    }
  }
  state.counters["select_ms"] = ms;
  state.counters["solution_size"] = static_cast<double>(result.size());
  state.counters["solution_checksum"] =
      static_cast<double>(SolutionChecksum(result.solution));
  state.counters["node_accesses"] =
      static_cast<double>(result.stats.node_accesses);
  state.counters["distance_computations"] =
      static_cast<double>(result.stats.distance_computations);
  SelectTable()->AddRow({AlgorithmToString(algorithm), std::to_string(n),
                         FormatDouble(ms, 4), std::to_string(result.size()),
                         std::to_string(result.stats.node_accesses)});
}

// Graph-mode selection on open-churn's grid shape (clustered n=6000 seed 1,
// r=0.05): the graph is built once on the grid (the CSR a grid session
// builds for this input) and only the reference solver is timed (best of
// the iterations).
void BM_GraphSelect(benchmark::State& state, Algorithm algorithm) {
  static const Dataset dataset = MakeClusteredDataset(6000, 2, 1);
  static const NeighborhoodGraph graph(dataset, Euclidean(), 0.05);
  std::vector<ObjectId> solution;
  double ms = 0.0;
  for (auto _ : state) {
    Stopwatch watch;
    solution = algorithm == Algorithm::kGreedyC ? ReferenceGreedyC(graph)
                                                : ReferenceGreedyDisc(graph);
    const double elapsed = watch.ElapsedMillis();
    ms = ms == 0.0 ? elapsed : std::min(ms, elapsed);
    benchmark::DoNotOptimize(solution.data());
  }
  state.counters["select_ms"] = ms;
  state.counters["solution_size"] = static_cast<double>(solution.size());
  state.counters["solution_checksum"] =
      static_cast<double>(SolutionChecksum(solution));
  SelectTable()->AddRow({std::string("graph-") + AlgorithmToString(algorithm),
                         std::to_string(dataset.size()), FormatDouble(ms, 4),
                         std::to_string(solution.size()), "0"});
}

// Bulk load: the whole Build. num_nodes and the order-sensitive leaf
// checksum pin the tree's shape.
void BM_BulkLoad(benchmark::State& state, size_t n) {
  const Dataset& dataset = Clustered(n, 2);
  MTreeOptions options;
  options.build.strategy = BuildStrategy::kBulkLoad;
  double ms = 0.0;
  uint64_t num_nodes = 0;
  uint64_t leaf_checksum = 0;
  for (auto _ : state) {
    MTree tree(dataset, Euclidean(), options);
    Stopwatch watch;
    bool ok = tree.Build().ok();
    ms = watch.ElapsedMillis();
    benchmark::DoNotOptimize(ok);
    num_nodes = tree.num_nodes();
    leaf_checksum = SolutionChecksum(tree.LeafOrder());
  }
  state.counters["num_nodes"] = static_cast<double>(num_nodes);
  state.counters["leaf_checksum"] = static_cast<double>(leaf_checksum);
  SelectTable()->AddRow({"bulk-load", std::to_string(n), FormatDouble(ms, 4),
                         "0", std::to_string(num_nodes)});
}

// The serial counts pass over the engine's default tree (insert-built,
// capacity 50): the best of the iterations, per distance computed.
void BM_CountsPass(benchmark::State& state, const Dataset& dataset,
                   const DistanceMetric& metric, double radius) {
  MTree* tree = CachedTree(dataset, metric);
  std::vector<uint32_t> counts;
  AccessStats stats;
  double ms = 0.0;
  for (auto _ : state) {
    tree->ResetStats();
    Stopwatch watch;
    tree->ComputeNeighborCountsPostBuild(radius, &counts);
    const double elapsed = watch.ElapsedMillis();
    ms = ms == 0.0 ? elapsed : std::min(ms, elapsed);
    stats = tree->stats();
    benchmark::DoNotOptimize(counts.data());
  }
  uint64_t checksum = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    checksum += static_cast<uint64_t>(counts[i]) * (i + 1);
  }
  state.counters["counts_ms"] = ms;
  state.counters["distance_ns"] =
      ms * 1e6 / static_cast<double>(stats.distance_computations);
  state.counters["counts_checksum"] = static_cast<double>(checksum);
  state.counters["node_accesses"] = static_cast<double>(stats.node_accesses);
  state.counters["distance_computations"] =
      static_cast<double>(stats.distance_computations);
}

const Dataset& Uniform8d() {
  static const Dataset dataset = MakeUniformDataset(2000, 8, 7);
  return dataset;
}

// The greedy zoom-in quirk, A/B. Both rows run the same chain — pruned
// Greedy-DisC at r=0.05, then greedy zoom-ins to 0.03 and 0.02 — and must
// end in the same solution (checksummed). Row A pays
// RecomputeClosestBlackDistances before the second zoom-in (the engine's
// current policy after a greedy pass); row B widens the selection queries
// (observe_all) so the second recompute is skipped. Whichever chain is
// cheaper decides the engine default; both run serial (zooming is not a
// parallel pass), so the rows are identical across legs.
void BM_ZoomChain(benchmark::State& state, size_t n, bool observe_all) {
  const Dataset& dataset = Clustered(n, 2);
  const double r0 = 0.05, r1 = 0.03, r2 = 0.02;
  MTree* tree = CachedTree(dataset, Euclidean());
  RunAlgorithm(tree, Algorithm::kGreedy, r0, {});
  const MTree::ColorState seeded = tree->SaveColorState();
  DiscResult final_zoom;
  double ms = 0.0;
  for (auto _ : state) {
    bool ok = tree->RestoreColorState(seeded).ok();
    benchmark::DoNotOptimize(ok);
    tree->ResetStats();
    Stopwatch watch;
    // The pruned run left stale distances; the first zoom-in always pays.
    tree->RecomputeClosestBlackDistances(r0);
    ZoomIn(tree, r1, /*greedy=*/true, observe_all);
    if (!observe_all) tree->RecomputeClosestBlackDistances(r1);
    final_zoom = ZoomIn(tree, r2, /*greedy=*/true, observe_all);
    ms = watch.ElapsedMillis();
  }
  state.counters["solution_size"] = static_cast<double>(final_zoom.size());
  state.counters["solution_checksum"] =
      static_cast<double>(SolutionChecksum(final_zoom.solution));
  state.counters["node_accesses"] =
      static_cast<double>(tree->stats().node_accesses);
  SelectTable()->AddRow(
      {observe_all ? "zoom-observe-all" : "zoom-recompute", std::to_string(n),
       FormatDouble(ms, 4), std::to_string(final_zoom.size()),
       std::to_string(tree->stats().node_accesses)});
}

[[maybe_unused]] const bool registered = [] {
  const size_t kN = 10000;
  const Algorithm kAlgos[] = {Algorithm::kGreedy, Algorithm::kLazyWhite,
                              Algorithm::kGreedyC, Algorithm::kFastC};
  for (Algorithm algorithm : kAlgos) {
    std::string bench_name = "Select/" +
                             std::string(AlgorithmToString(algorithm)) +
                             "/n=" + std::to_string(kN);
    benchmark::RegisterBenchmark(
        bench_name.c_str(),
        [algorithm](benchmark::State& state) {
          BM_Select(state, algorithm, kN);
        })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  for (Algorithm algorithm : {Algorithm::kGreedy, Algorithm::kGreedyC}) {
    std::string bench_name = "GraphSelect/" +
                             std::string(AlgorithmToString(algorithm)) +
                             "/n=6000";
    benchmark::RegisterBenchmark(
        bench_name.c_str(),
        [algorithm](benchmark::State& state) {
          BM_GraphSelect(state, algorithm);
        })
        ->Iterations(5)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RegisterBenchmark(
      "CountsPass/clustered-2d/n=5000",
      [](benchmark::State& state) {
        BM_CountsPass(state, Clustered(5000, 2), Euclidean(), 0.05);
      })
      ->Iterations(5)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark(
      "CountsPass/cities",
      [](benchmark::State& state) {
        BM_CountsPass(state, Cities(), Euclidean(), 0.01);
      })
      ->Iterations(5)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark(
      "CountsPass/uniform-8d/n=2000",
      [](benchmark::State& state) {
        BM_CountsPass(state, Uniform8d(), Euclidean(), 0.4);
      })
      ->Iterations(5)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark(
      ("BulkLoad/n=" + std::to_string(kN)).c_str(),
      [](benchmark::State& state) { BM_BulkLoad(state, kN); })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  for (bool observe_all : {false, true}) {
    std::string bench_name = std::string("ZoomChain/") +
                             (observe_all ? "observe-all" : "recompute") +
                             "/n=" + std::to_string(kN);
    benchmark::RegisterBenchmark(
        bench_name.c_str(),
        [observe_all](benchmark::State& state) {
          BM_ZoomChain(state, kN, observe_all);
        })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  return true;
}();

}  // namespace
}  // namespace bench
}  // namespace disc

DISC_BENCH_MAIN()
