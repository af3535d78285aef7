// Figures 11, 12, 13: incremental zooming-in versus recomputation.
//
// For each radius step r -> r' (each solution adapted from the immediately
// larger radius, as in the paper), compares Greedy-DisC-from-scratch at r'
// against Zoom-In and Greedy-Zoom-In applied to the Greedy-DisC solution
// for r. Reports solution size (Fig. 11), node accesses (Fig. 12) and the
// Jaccard distance to the previous solution (Fig. 13). Zooming costs
// include the §5.2 closest-black post-processing pass. Expected shapes:
// similar sizes, much lower zooming cost, and far lower Jaccard distance
// than recomputation (the user keeps most of what they saw).

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
       {{0.07, 0.06}, {0.06, 0.05}, {0.05, 0.04}, {0.04, 0.03}, {0.03, 0.02}}},
      {"Cities", &Cities(), &Euclidean(),
       {{0.01, 0.0075}, {0.0075, 0.005}, {0.005, 0.0025}, {0.0025, 0.001}}},
  };
  return workloads;
}

enum class Method { kScratch, kZoomIn, kGreedyZoomIn };

const char* MethodName(Method method) {
  switch (method) {
    case Method::kScratch:
      return "Greedy-DisC";
    case Method::kZoomIn:
      return "Zoom-In";
    case Method::kGreedyZoomIn:
      return "Greedy-Zoom-In";
  }
  return "?";
}

std::vector<std::unique_ptr<TableCollector>>& Collectors() {
  static std::vector<std::unique_ptr<TableCollector>> collectors;
  return collectors;
}

void SweepZoomIn(benchmark::State& state, const ZoomWorkload& workload,
                 Method method, TableCollector* sizes,
                 TableCollector* accesses, TableCollector* jaccard) {
  std::vector<std::string> size_row = {MethodName(method)};
  std::vector<std::string> access_row = {MethodName(method)};
  std::vector<std::string> jaccard_row = {MethodName(method)};
  for (auto _ : state) {
    size_row.resize(1);
    access_row.resize(1);
    jaccard_row.resize(1);
    for (const ZoomStep& step : workload.steps) {
      // Previous view: the Greedy-DisC solution at the larger radius, on a
      // tree whose neighborhood counts were computed during its build.
      TreeWithCounts old_tc = CachedTreeWithCounts(
          *workload.dataset, *workload.metric, step.r_old);
      AlgorithmRunOptions base_options;
      base_options.initial_counts = old_tc.counts;
      DiscResult base = GreedyDisc(old_tc.tree, step.r_old, base_options);

      DiscResult adapted;
      if (method == Method::kScratch) {
        TreeWithCounts new_tc = CachedTreeWithCounts(
            *workload.dataset, *workload.metric, step.r_new);
        AlgorithmRunOptions options;
        options.initial_counts = new_tc.counts;
        adapted = GreedyDisc(new_tc.tree, step.r_new, options);
      } else {
        AccessStats before = old_tc.tree->stats();
        old_tc.tree->RecomputeClosestBlackDistances(step.r_old);
        adapted =
            ZoomIn(old_tc.tree, step.r_new, method == Method::kGreedyZoomIn);
        adapted.stats = old_tc.tree->stats() - before;
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
          what + ", " + workload.name + " (adapted from next larger r)",
          csv + "_" + workload.name + ".csv", header));
      return Collectors().back().get();
    };
    TableCollector* sizes = make("Figure 11 — zoom-in solution size",
                                 "fig11_zoomin_size");
    TableCollector* accesses = make("Figure 12 — zoom-in node accesses",
                                    "fig12_zoomin_accesses");
    TableCollector* jaccard = make(
        "Figure 13 — Jaccard distance to previous solution",
        "fig13_zoomin_jaccard");
    for (Method method :
         {Method::kScratch, Method::kZoomIn, Method::kGreedyZoomIn}) {
      std::string name = "Fig11_13/" + std::string(workload.name) + "/" +
                         MethodName(method);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [&workload, method, sizes, accesses,
           jaccard](benchmark::State& state) {
            SweepZoomIn(state, workload, method, sizes, accesses, jaccard);
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
