// Figure 9 (c)-(d): impact of dimensionality. Greedy-DisC on the Clustered
// dataset (10000 objects) with 2..10 dimensions, r in 0.01..0.07.
// Expected shapes: higher dimensionality makes space sparser (curse of
// dimensionality), so solution sizes grow toward "everything is diverse";
// node accesses vary with the cost of the neighborhood-count maintenance.

#include "bench/common.h"

namespace disc {
namespace bench {
namespace {

const size_t kDimensions[] = {2, 4, 6, 8, 10};
const double kRadii[] = {0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07};

TableCollector* SizeTable() {
  static TableCollector table(
      "Figure 9(c) — Greedy-DisC solution size vs dimensionality "
      "(Clustered, 10000 objects)",
      "fig09c_size_vs_dimensionality.csv",
      {"dim", "r=0.01", "r=0.02", "r=0.03", "r=0.04", "r=0.05", "r=0.06",
       "r=0.07"});
  return &table;
}

TableCollector* AccessTable() {
  static TableCollector table(
      "Figure 9(d) — Greedy-DisC node accesses vs dimensionality "
      "(Clustered, 10000 objects)",
      "fig09d_accesses_vs_dimensionality.csv",
      {"dim", "r=0.01", "r=0.02", "r=0.03", "r=0.04", "r=0.05", "r=0.06",
       "r=0.07"});
  return &table;
}

void SweepDimensionality(benchmark::State& state, size_t dim) {
  std::vector<std::string> sizes = {std::to_string(dim)};
  std::vector<std::string> accesses = {std::to_string(dim)};
  for (auto _ : state) {
    sizes.resize(1);
    accesses.resize(1);
    for (double radius : kRadii) {
      TreeWithCounts tc =
          CachedTreeWithCounts(Clustered(10000, dim), Euclidean(), radius);
      AlgorithmRunOptions options;
      options.initial_counts = tc.counts;
      DiscResult result = GreedyDisc(tc.tree, radius, options);
      sizes.push_back(std::to_string(result.size()));
      accesses.push_back(std::to_string(result.stats.node_accesses));
      state.counters["size_r=" + FormatDouble(radius, 3)] =
          static_cast<double>(result.size());
      state.counters["acc_r=" + FormatDouble(radius, 3)] =
          static_cast<double>(result.stats.node_accesses);
    }
  }
  SizeTable()->AddRow(std::move(sizes));
  AccessTable()->AddRow(std::move(accesses));
}

[[maybe_unused]] const bool registered = [] {
  for (size_t dim : kDimensions) {
    std::string name = "Fig09cd/Clustered/dim=" + std::to_string(dim);
    benchmark::RegisterBenchmark(name.c_str(),
                                 [dim](benchmark::State& state) {
                                   SweepDimensionality(state, dim);
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
