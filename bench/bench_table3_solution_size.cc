// Table 3 (a)-(d): solution size of Basic-DisC, Greedy-DisC, the two lazy
// Greedy-DisC variants, and Greedy-C, for every dataset and radius of the
// paper's sweep. One wide table per dataset, mirroring the paper's layout
// (algorithms as rows, radii as columns).

#include "bench/common.h"

namespace disc {
namespace bench {
namespace {

struct Algo {
  const char* name;
  Algorithm algorithm;
};

const Algo kAlgos[] = {
    {"B-DisC", Algorithm::kBasic},
    {"G-DisC", Algorithm::kGreedy},
    {"L-Gr-G-DisC", Algorithm::kLazyGrey},
    {"L-Wh-G-DisC", Algorithm::kLazyWhite},
    {"G-C", Algorithm::kGreedyC},
};

std::vector<std::unique_ptr<TableCollector>>& Collectors() {
  static std::vector<std::unique_ptr<TableCollector>> collectors;
  return collectors;
}

void SweepSizes(benchmark::State& state, const Workload& workload,
                const Algo& algo, TableCollector* collector) {
  std::vector<std::string> row = {algo.name};
  uint64_t total_accesses = 0;
  for (auto _ : state) {
    row.resize(1);
    total_accesses = 0;
    for (double radius : workload.radii) {
      TreeWithCounts tc =
          CachedTreeWithCounts(*workload.dataset, *workload.metric, radius);
      AlgorithmRunOptions options;
      options.initial_counts = tc.counts;
      DiscResult result =
          RunAlgorithm(tc.tree, algo.algorithm, radius, options);
      row.push_back(std::to_string(result.size()));
      state.counters["r=" + FormatDouble(radius, 4)] =
          static_cast<double>(result.size());
      total_accesses += result.stats.node_accesses;
    }
  }
  state.counters["node_accesses_total"] = static_cast<double>(total_accesses);
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
        std::string("Table 3(") + panel[index] + ") — solution size, " +
            workload.name,
        "table3" + std::string(1, panel[index]) + "_" + workload.name +
            ".csv",
        std::move(header)));
    TableCollector* collector = Collectors().back().get();
    for (const Algo& algo : kAlgos) {
      std::string name =
          "Table3/" + workload.name + "/" + std::string(algo.name);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [&workload, &algo, collector](benchmark::State& state) {
            SweepSizes(state, workload, algo, collector);
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
