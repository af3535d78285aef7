// Figure 9 (a)-(b): impact of dataset cardinality. Greedy-DisC on the
// Clustered 2-D dataset with 5000..15000 objects, r in 0.01..0.07.
// Expected shapes: solution size grows with cardinality mostly at small
// radii (large-radius solutions saturate quickly); node accesses grow with
// cardinality across the board.

#include "bench/common.h"

namespace disc {
namespace bench {
namespace {

const size_t kCardinalities[] = {5000, 7500, 10000, 12500, 15000};
const double kRadii[] = {0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07};

TableCollector* SizeTable() {
  static TableCollector table(
      "Figure 9(a) — Greedy-DisC solution size vs cardinality (Clustered 2-D)",
      "fig09a_size_vs_cardinality.csv",
      {"n", "r=0.01", "r=0.02", "r=0.03", "r=0.04", "r=0.05", "r=0.06",
       "r=0.07"});
  return &table;
}

TableCollector* AccessTable() {
  static TableCollector table(
      "Figure 9(b) — Greedy-DisC node accesses vs cardinality (Clustered 2-D)",
      "fig09b_accesses_vs_cardinality.csv",
      {"n", "r=0.01", "r=0.02", "r=0.03", "r=0.04", "r=0.05", "r=0.06",
       "r=0.07"});
  return &table;
}

void SweepCardinality(benchmark::State& state, size_t n) {
  std::vector<std::string> sizes = {std::to_string(n)};
  std::vector<std::string> accesses = {std::to_string(n)};
  for (auto _ : state) {
    sizes.resize(1);
    accesses.resize(1);
    for (double radius : kRadii) {
      TreeWithCounts tc =
          CachedTreeWithCounts(Clustered(n, 2), Euclidean(), radius);
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
  for (size_t n : kCardinalities) {
    std::string name = "Fig09ab/Clustered/n=" + std::to_string(n);
    benchmark::RegisterBenchmark(name.c_str(),
                                 [n](benchmark::State& state) {
                                   SweepCardinality(state, n);
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
