// Figure 7 (a)-(d): M-tree node accesses of Basic-DisC and Grey-Greedy-DisC
// with and without the §5.1 pruning rule, plus Greedy-C (which cannot use
// pruning), across every dataset and radius. Expected shapes: Basic-DisC's
// cost falls with the radius (fewer, bigger-coverage range queries per leaf
// pass); the greedy algorithms' cost rises with the radius (bigger
// neighborhood-maintenance queries); pruning saves the most at small radii.

#include "bench/common.h"

namespace disc {
namespace bench {
namespace {

struct Variant {
  const char* name;
  DiscResult (*run)(const TreeWithCounts&, double);
};

DiscResult RunBasicUnpruned(const TreeWithCounts& tc, double r) {
  return BasicDisc(tc.tree, r, false);
}
DiscResult RunBasicPruned(const TreeWithCounts& tc, double r) {
  return BasicDisc(tc.tree, r, true);
}
DiscResult RunGreedyUnpruned(const TreeWithCounts& tc, double r) {
  AlgorithmRunOptions options;
  options.pruned = false;
  options.initial_counts = tc.counts;
  return GreedyDisc(tc.tree, r, options);
}
DiscResult RunGreedyPruned(const TreeWithCounts& tc, double r) {
  AlgorithmRunOptions options;
  options.pruned = true;
  options.initial_counts = tc.counts;
  return GreedyDisc(tc.tree, r, options);
}
DiscResult RunGreedyC(const TreeWithCounts& tc, double r) {
  return GreedyC(tc.tree, r, tc.counts);
}

const Variant kVariants[] = {
    {"B-DisC", RunBasicUnpruned},
    {"B-DisC (Pruned)", RunBasicPruned},
    {"Gr-G-DisC", RunGreedyUnpruned},
    {"Gr-G-DisC (Pruned)", RunGreedyPruned},
    {"G-C", RunGreedyC},
};

std::vector<std::unique_ptr<TableCollector>>& Collectors() {
  static std::vector<std::unique_ptr<TableCollector>> collectors;
  return collectors;
}

void SweepAccesses(benchmark::State& state, const Workload& workload,
                   const Variant& variant, TableCollector* collector) {
  std::vector<std::string> row = {variant.name};
  for (auto _ : state) {
    row.resize(1);
    for (double radius : workload.radii) {
      TreeWithCounts tc =
          CachedTreeWithCounts(*workload.dataset, *workload.metric, radius);
      DiscResult result = variant.run(tc, radius);
      row.push_back(std::to_string(result.stats.node_accesses));
      state.counters["r=" + FormatDouble(radius, 4)] =
          static_cast<double>(result.stats.node_accesses);
    }
  }
  collector->AddRow(std::move(row));
}

[[maybe_unused]] const bool registered = [] {
  const char* panel = "abcd";
  int index = 0;
  for (const Workload& workload : PaperWorkloads()) {
    std::vector<std::string> header = {"algorithm"};
    for (double radius : workload.radii) {
      header.push_back("r=" + FormatDouble(radius, 4));
    }
    Collectors().push_back(std::make_unique<TableCollector>(
        std::string("Figure 7(") + panel[index] + ") — node accesses, " +
            workload.name,
        "fig07" + std::string(1, panel[index]) + "_" + workload.name + ".csv",
        std::move(header)));
    TableCollector* collector = Collectors().back().get();
    for (const Variant& variant : kVariants) {
      std::string name =
          "Fig07/" + workload.name + "/" + std::string(variant.name);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [&workload, &variant, collector](benchmark::State& state) {
            SweepAccesses(state, workload, variant, collector);
          })
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
    ++index;
  }
  return true;
}();

}  // namespace
}  // namespace bench
}  // namespace disc

DISC_BENCH_MAIN()
