// Figure 8 (a)-(d): node accesses of the pruned Greedy-DisC variants —
// Grey, White, Lazy-Grey, Lazy-White — against pruned Basic-DisC, across
// every dataset and radius. Expected shapes: White-Greedy wins on clustered
// data at larger radii (one 2r query replaces many per-grey queries); the
// lazy variants cut cost further at slightly larger solution sizes
// (cross-checked by Table 3).

#include "bench/common.h"

namespace disc {
namespace bench {
namespace {

struct Variant {
  const char* name;
  Algorithm algorithm;
};

const Variant kVariants[] = {
    {"B-DisC (Pruned)", Algorithm::kBasic},
    {"Gr-G-DisC (Pruned)", Algorithm::kGreedy},
    {"Wh-G-DisC (Pruned)", Algorithm::kGreedyWhite},
    {"L-Gr-G-DisC (Pruned)", Algorithm::kLazyGrey},
    {"L-Wh-G-DisC (Pruned)", Algorithm::kLazyWhite},
};

std::vector<std::unique_ptr<TableCollector>>& Collectors() {
  static std::vector<std::unique_ptr<TableCollector>> collectors;
  return collectors;
}

void SweepVariants(benchmark::State& state, const Workload& workload,
                   const Variant& variant, TableCollector* collector) {
  std::vector<std::string> row = {variant.name};
  for (auto _ : state) {
    row.resize(1);
    for (double radius : workload.radii) {
      TreeWithCounts tc =
          CachedTreeWithCounts(*workload.dataset, *workload.metric, radius);
      AlgorithmRunOptions options;
      options.initial_counts = tc.counts;
      DiscResult result =
          RunAlgorithm(tc.tree, variant.algorithm, radius, options);
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
        std::string("Figure 8(") + panel[index] +
            ") — node accesses (pruned variants), " + workload.name,
        "fig08" + std::string(1, panel[index]) + "_" + workload.name + ".csv",
        std::move(header)));
    TableCollector* collector = Collectors().back().get();
    for (const Variant& variant : kVariants) {
      std::string name =
          "Fig08/" + workload.name + "/" + std::string(variant.name);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [&workload, &variant, collector](benchmark::State& state) {
            SweepVariants(state, workload, variant, collector);
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
