// Figure 10 (a)-(b): node accesses vs radius for M-trees built with the
// four splitting policies, whose fat-factors span low (MinOverlap) to high
// (random pivots). Expected shapes: on Uniform data, higher fat-factor
// (more overlap) costs clearly more accesses for the same solution; on
// Clustered data the effect is muted (locality + pruning absorb overlap);
// all policies converge at very large radii where one object covers nearly
// everything. Splitting policy never changes which objects are selected.

#include "bench/common.h"

namespace disc {
namespace bench {
namespace {

const double kRadii[] = {0.1, 0.3, 0.5, 0.7, 0.9};

struct Policy {
  const char* name;
  SplitPolicy policy;
};

const Policy kPolicies[] = {
    {"MinOverlap", SplitPolicy::MinOverlap()},
    {"MaxDistance", SplitPolicy::MaxDistanceSplit()},
    {"Balanced", SplitPolicy::BalancedSplit()},
    {"Random", SplitPolicy::RandomSplit()},
};

std::vector<std::unique_ptr<TableCollector>>& Collectors() {
  static std::vector<std::unique_ptr<TableCollector>> collectors;
  return collectors;
}

void SweepPolicy(benchmark::State& state, const Dataset& dataset,
                 const Policy& policy, TableCollector* collector) {
  MTreeOptions options;
  options.split_policy = policy.policy;
  const double fat = CachedTree(dataset, Euclidean(), options)->FatFactor();
  std::vector<std::string> row = {policy.name, FormatDouble(fat, 3)};
  for (auto _ : state) {
    row.resize(2);
    for (double radius : kRadii) {
      TreeWithCounts tc =
          CachedTreeWithCounts(dataset, Euclidean(), radius, options);
      AlgorithmRunOptions greedy_options;
      greedy_options.initial_counts = tc.counts;
      DiscResult result = GreedyDisc(tc.tree, radius, greedy_options);
      row.push_back(std::to_string(result.stats.node_accesses));
      state.counters["r=" + FormatDouble(radius, 2)] =
          static_cast<double>(result.stats.node_accesses);
    }
  }
  state.counters["fat_factor"] = fat;
  collector->AddRow(std::move(row));
}

[[maybe_unused]] const bool registered = [] {
  struct Panel {
    const char* name;
    const Dataset* dataset;
  };
  const Panel panels[] = {{"Uniform", &Uniform10k()},
                          {"Clustered", &Clustered10k()}};
  char letter = 'a';
  for (const Panel& panel : panels) {
    std::vector<std::string> header = {"policy", "fat-factor"};
    for (double radius : kRadii) {
      header.push_back("r=" + FormatDouble(radius, 2));
    }
    Collectors().push_back(std::make_unique<TableCollector>(
        std::string("Figure 10(") + letter +
            ") — node accesses by splitting policy, " + panel.name,
        std::string("fig10") + letter + "_" + panel.name + ".csv",
        std::move(header)));
    TableCollector* collector = Collectors().back().get();
    for (const Policy& policy : kPolicies) {
      std::string name =
          "Fig10/" + std::string(panel.name) + "/" + policy.name;
      const Dataset* dataset = panel.dataset;
      benchmark::RegisterBenchmark(
          name.c_str(),
          [dataset, &policy, collector](benchmark::State& state) {
            SweepPolicy(state, *dataset, policy, collector);
          })
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
    ++letter;
  }
  return true;
}();

}  // namespace
}  // namespace bench
}  // namespace disc

DISC_BENCH_MAIN()
