// Figures 14, 15, 16: incremental zooming-out versus recomputation.
//
// For each radius step r -> r' (each solution adapted from the immediately
// smaller radius), compares Greedy-DisC-from-scratch at r' against Zoom-Out
// and the three Greedy-Zoom-Out variants (a) most-red-neighbors, (b)
// fewest-red-neighbors, (c) most-white-neighbors. Reports solution size
// (Fig. 14), node accesses (Fig. 15) and Jaccard distance to the previous
// solution (Fig. 16). Expected shapes: (c) reaches the smallest adapted
// solutions at by far the highest cost; (a) is nearly as small at a
// fraction of the cost; the plain Zoom-Out is cheapest; all zooming
// variants stay closer to the previous solution than recomputation.

#include "bench/common.h"

#include "core/zoom.h"
#include "eval/quality.h"

namespace disc {
namespace bench {
namespace {

struct ZoomStep {
  double r_old;
  double r_new;
};

struct ZoomWorkload {
  const char* name;
  const Dataset* dataset;
  const DistanceMetric* metric;
  std::vector<ZoomStep> steps;
};

const std::vector<ZoomWorkload>& ZoomWorkloads() {
  static const std::vector<ZoomWorkload> workloads = {
      {"Clustered", &Clustered10k(), &Euclidean(),
       {{0.01, 0.02}, {0.02, 0.03}, {0.03, 0.04}, {0.04, 0.05}, {0.05, 0.06}}},
      {"Cities", &Cities(), &Euclidean(),
       {{0.0025, 0.005},
        {0.005, 0.0075},
        {0.0075, 0.01},
        {0.01, 0.0125}}},
  };
  return workloads;
}

struct Method {
  const char* name;
  bool scratch;
  ZoomOutVariant variant;
};

const Method kMethods[] = {
    {"Greedy-DisC", true, ZoomOutVariant::kArbitrary},
    {"Zoom-Out", false, ZoomOutVariant::kArbitrary},
    {"Greedy-Zoom-Out (a)", false, ZoomOutVariant::kGreedyMostRed},
    {"Greedy-Zoom-Out (b)", false, ZoomOutVariant::kGreedyFewestRed},
    {"Greedy-Zoom-Out (c)", false, ZoomOutVariant::kGreedyMostWhite},
};

std::vector<std::unique_ptr<TableCollector>>& Collectors() {
  static std::vector<std::unique_ptr<TableCollector>> collectors;
  return collectors;
}

void SweepZoomOut(benchmark::State& state, const ZoomWorkload& workload,
                  const Method& method, TableCollector* sizes,
                  TableCollector* accesses, TableCollector* jaccard) {
  std::vector<std::string> size_row = {method.name};
  std::vector<std::string> access_row = {method.name};
  std::vector<std::string> jaccard_row = {method.name};
  for (auto _ : state) {
    size_row.resize(1);
    access_row.resize(1);
    jaccard_row.resize(1);
    for (const ZoomStep& step : workload.steps) {
      TreeWithCounts old_tc = CachedTreeWithCounts(
          *workload.dataset, *workload.metric, step.r_old);
      AlgorithmRunOptions base_options;
      base_options.initial_counts = old_tc.counts;
      DiscResult base = GreedyDisc(old_tc.tree, step.r_old, base_options);

      DiscResult adapted;
      if (method.scratch) {
        TreeWithCounts new_tc = CachedTreeWithCounts(
            *workload.dataset, *workload.metric, step.r_new);
        AlgorithmRunOptions options;
        options.initial_counts = new_tc.counts;
        adapted = GreedyDisc(new_tc.tree, step.r_new, options);
      } else {
        adapted = ZoomOut(old_tc.tree, step.r_new, method.variant);
      }

      double jd = JaccardDistance(base.solution, adapted.solution);
      size_row.push_back(std::to_string(adapted.size()));
      access_row.push_back(std::to_string(adapted.stats.node_accesses));
      jaccard_row.push_back(FormatDouble(jd, 3));
      std::string key = "r=" + FormatDouble(step.r_new, 4);
      state.counters["size_" + key] = static_cast<double>(adapted.size());
      state.counters["acc_" + key] =
          static_cast<double>(adapted.stats.node_accesses);
      state.counters["jac_" + key] = jd;
    }
  }
  sizes->AddRow(std::move(size_row));
  accesses->AddRow(std::move(access_row));
  jaccard->AddRow(std::move(jaccard_row));
}

[[maybe_unused]] const bool registered = [] {
  for (const ZoomWorkload& workload : ZoomWorkloads()) {
    std::vector<std::string> header = {"method"};
    for (const ZoomStep& step : workload.steps) {
      header.push_back("r=" + FormatDouble(step.r_new, 4));
    }
    auto make = [&](const std::string& what, const std::string& csv) {
      Collectors().push_back(std::make_unique<TableCollector>(
          what + ", " + workload.name + " (adapted from next smaller r)",
          csv + "_" + workload.name + ".csv", header));
      return Collectors().back().get();
    };
    TableCollector* sizes = make("Figure 14 — zoom-out solution size",
                                 "fig14_zoomout_size");
    TableCollector* accesses = make("Figure 15 — zoom-out node accesses",
                                    "fig15_zoomout_accesses");
    TableCollector* jaccard = make(
        "Figure 16 — Jaccard distance to previous solution",
        "fig16_zoomout_jaccard");
    for (const Method& method : kMethods) {
      std::string name = "Fig14_16/" + std::string(workload.name) + "/" +
                         std::string(method.name);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [&workload, &method, sizes, accesses,
           jaccard](benchmark::State& state) {
            SweepZoomOut(state, workload, method, sizes, accesses, jaccard);
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
