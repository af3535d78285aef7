// §6 text claims about the M-tree machinery, as four ablations:
//
//  (1) node capacity — "when doubling the node capacity, the computational
//      cost was reduced by almost 45%": Greedy-DisC accesses at capacity
//      25 / 50 / 100;
//  (2) white-neighborhood initialization — "computing the size of
//      neighborhoods while building the tree reduces node accesses up to
//      45%" versus a post-build counting pass;
//  (3) query mode — "employing bottom-up rather than top-down range queries
//      [benefited] less than 5% at most cases": total accesses for the same
//      query load issued both ways;
//  (4) build strategy — insert-at-a-time vs Ciaccia–Patella-style bulk load
//      (MTree::BulkLoad): construction wall time and distance computations,
//      plus the node accesses of a fixed downstream range-query load, per
//      cardinality. The bulk loader must win construction outright at
//      n >= 10000 (the PR gate tracked via the JSON artifact in CI).

#include "bench/common.h"
#include "util/stopwatch.h"

namespace disc {
namespace bench {
namespace {

const double kRadii[] = {0.01, 0.03, 0.05, 0.07};

// ---------------------------------------------------------------- capacity

TableCollector* CapacityTable() {
  static TableCollector table(
      "Ablation — node capacity vs Greedy-DisC node accesses (Clustered)",
      "ablation_capacity.csv",
      {"capacity", "r=0.01", "r=0.03", "r=0.05", "r=0.07"});
  return &table;
}

void BM_Capacity(benchmark::State& state, size_t capacity) {
  MTreeOptions options;
  options.node_capacity = capacity;
  std::vector<std::string> row = {std::to_string(capacity)};
  for (auto _ : state) {
    row.resize(1);
    for (double radius : kRadii) {
      TreeWithCounts tc =
          CachedTreeWithCounts(Clustered10k(), Euclidean(), radius, options);
      AlgorithmRunOptions greedy_options;
      greedy_options.initial_counts = tc.counts;
      DiscResult result = GreedyDisc(tc.tree, radius, greedy_options);
      row.push_back(std::to_string(result.stats.node_accesses));
      state.counters["r=" + FormatDouble(radius, 3)] =
          static_cast<double>(result.stats.node_accesses);
    }
  }
  CapacityTable()->AddRow(std::move(row));
}

// ------------------------------------------------- count initialization

TableCollector* CountsTable() {
  static TableCollector table(
      "Ablation — white-count initialization: during build vs post-build "
      "pass (Clustered)",
      "ablation_build_counts.csv",
      {"strategy", "r=0.01", "r=0.03", "r=0.05", "r=0.07"});
  return &table;
}

void BM_CountInit(benchmark::State& state, bool during_build) {
  const Dataset& dataset = Clustered10k();
  std::vector<std::string> row = {during_build ? "during-build"
                                               : "post-build"};
  for (auto _ : state) {
    row.resize(1);
    for (double radius : kRadii) {
      // Fresh tree each time: the strategies differ in how the build and
      // the counting interleave, so caching would blur the comparison.
      MTree tree(dataset, Euclidean());
      std::vector<uint32_t> counts;
      if (during_build) {
        benchmark::DoNotOptimize(
            tree.BuildWithNeighborCounts(radius, &counts));
      } else {
        benchmark::DoNotOptimize(tree.Build());
        tree.ComputeNeighborCountsPostBuild(radius, &counts);
      }
      row.push_back(std::to_string(tree.stats().node_accesses));
      state.counters["r=" + FormatDouble(radius, 3)] =
          static_cast<double>(tree.stats().node_accesses);
    }
  }
  CountsTable()->AddRow(std::move(row));
}

// --------------------------------------------------------- query mode

TableCollector* QueryModeTable() {
  static TableCollector table(
      "Ablation — query mode, 2000 white-filtered queries, "
      "region-consolidated greys (Clustered)",
      "ablation_query_mode.csv",
      {"mode", "r=0.01", "r=0.03", "r=0.05", "r=0.07"});
  return &table;
}

// Modes: 0 = top-down, 1 = bottom-up (exact), 2 = bottom-up stopping at the
// first grey ancestor (Fast-C's flavor). The exact bottom-up climb visits
// the same node set as top-down by construction (difference 0%, consistent
// with the paper's "< 5% at most cases"); grey-stopping is where bottom-up
// actually wins, at the price of occasionally missing distant whites.
void BM_QueryMode(benchmark::State& state, int mode) {
  MTree* tree = CachedTree(Clustered10k(), Euclidean());
  static const char* kNames[] = {"top-down", "bottom-up",
                                 "bottom-up (grey-stop)"};
  std::vector<std::string> row = {kNames[mode]};
  std::vector<Neighbor> found;
  for (auto _ : state) {
    row.resize(1);
    for (double radius : kRadii) {
      // Late-run snapshot: coverage consolidates spatially, so whole
      // regions (here: everything right of x = 0.15) have gone grey. This
      // is the state in which grey-stopping and pruning pay off.
      tree->ResetColors();
      for (ObjectId i = 0; i < tree->size(); ++i) {
        if (Clustered10k().point(i)[0] >= 0.15) {
          tree->SetColor(i, Color::kGrey);
        }
      }
      AccessStats before = tree->stats();
      size_t found_total = 0;
      for (ObjectId center = 0; center < 2000; ++center) {
        found.clear();
        if (mode == 0) {
          tree->RangeQueryAround(center, radius, QueryFilter::kWhiteOnly,
                                 true, &found);
        } else {
          tree->RangeQueryBottomUp(center, radius, QueryFilter::kWhiteOnly,
                                   true, /*stop_at_grey=*/mode == 2, &found);
        }
        found_total += found.size();
      }
      uint64_t accesses = (tree->stats() - before).node_accesses;
      row.push_back(std::to_string(accesses) + " (" +
                    std::to_string(found_total) + " hits)");
      state.counters["r=" + FormatDouble(radius, 3)] =
          static_cast<double>(accesses);
      state.counters["hits_r=" + FormatDouble(radius, 3)] =
          static_cast<double>(found_total);
    }
  }
  QueryModeTable()->AddRow(std::move(row));
}

// ------------------------------------------------------- build strategy

TableCollector* BuildStrategyTable() {
  static TableCollector table(
      "Ablation — build strategy: construction cost and downstream query "
      "accesses (Clustered, capacity 50, 2000 queries at r=0.03)",
      "ablation_build_strategy.csv",
      {"strategy", "n", "build_ms", "build_dists", "nodes", "fat_factor",
       "query_accesses"});
  return &table;
}

void BM_BuildStrategy(benchmark::State& state, BuildStrategy strategy,
                      size_t n) {
  const Dataset& dataset = Clustered(n, 2);
  MTreeOptions options;
  options.build.strategy = strategy;
  const double query_radius = 0.03;
  const size_t num_queries = 2000;

  double build_ms = 0.0;
  uint64_t build_dists = 0;
  uint64_t query_accesses = 0;
  size_t nodes = 0;
  double fat = 0.0;
  for (auto _ : state) {
    // Fresh tree each iteration: construction is the thing being measured.
    MTree tree(dataset, Euclidean(), options);
    Stopwatch watch;
    Status status = tree.Build();
    build_ms = watch.ElapsedMillis();
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
    build_dists = tree.stats().distance_computations;
    nodes = tree.num_nodes();

    // Downstream cost: the same fixed range-query load on each tree shape.
    // Paused so the benchmark's reported time measures construction only
    // (matching the build_ms counter in the JSON artifact).
    state.PauseTiming();
    tree.ResetStats();
    std::vector<Neighbor> found;
    for (ObjectId center = 0; center < num_queries && center < tree.size();
         ++center) {
      found.clear();
      tree.RangeQueryAround(center, query_radius, QueryFilter::kAll,
                            /*pruned=*/false, &found);
    }
    query_accesses = tree.stats().node_accesses;
    fat = tree.FatFactor();
    state.ResumeTiming();
  }
  state.counters["build_ms"] = build_ms;
  state.counters["build_dists"] = static_cast<double>(build_dists);
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["query_accesses"] = static_cast<double>(query_accesses);
  BuildStrategyTable()->AddRow(
      {BuildStrategyToString(strategy), std::to_string(n),
       FormatDouble(build_ms, 4), std::to_string(build_dists),
       std::to_string(nodes), FormatDouble(fat, 3),
       std::to_string(query_accesses)});
}

[[maybe_unused]] const bool registered = [] {
  for (size_t capacity : {25u, 50u, 100u}) {
    std::string name = "Ablation/Capacity/" + std::to_string(capacity);
    benchmark::RegisterBenchmark(name.c_str(),
                                 [capacity](benchmark::State& state) {
                                   BM_Capacity(state, capacity);
                                 })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  for (bool during_build : {false, true}) {
    std::string name = std::string("Ablation/CountInit/") +
                       (during_build ? "during-build" : "post-build");
    benchmark::RegisterBenchmark(name.c_str(),
                                 [during_build](benchmark::State& state) {
                                   BM_CountInit(state, during_build);
                                 })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  for (int mode : {0, 1, 2}) {
    std::string name =
        std::string("Ablation/QueryMode/mode=") + std::to_string(mode);
    benchmark::RegisterBenchmark(name.c_str(),
                                 [mode](benchmark::State& state) {
                                   BM_QueryMode(state, mode);
                                 })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  for (size_t n : {1000u, 10000u, 20000u}) {
    for (BuildStrategy strategy :
         {BuildStrategy::kInsertAtATime, BuildStrategy::kBulkLoad}) {
      std::string name = "Ablation/BuildStrategy/" +
                         std::string(BuildStrategyToString(strategy)) + "/n=" +
                         std::to_string(n);
      benchmark::RegisterBenchmark(name.c_str(),
                                   [strategy, n](benchmark::State& state) {
                                     BM_BuildStrategy(state, strategy, n);
                                   })
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
