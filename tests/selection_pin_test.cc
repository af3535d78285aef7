// Selection pins: the exact solutions every heap-driven pass produces.
//
// The M-tree algorithms and the graph-mode reference solvers share one L'
// structure (util/indexed_heap.h), so a change to its tie order would move
// both together and no cross-check between them would notice. These pins
// are independent of the heap: each row is the solution size and an
// order-sensitive checksum (sum of id * (position + 1), the bench's
// solution_checksum) recorded from the eager sift-down heap, so any change
// to which object is selected, or when, fails here.
//
// On a mismatch the test prints the row as it now reads; only paste it in
// when a selection change is intended.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/disc_algorithms.h"
#include "core/reference.h"
#include "core/zoom.h"
#include "data/cameras.h"
#include "data/generators.h"
#include "graph/neighborhood.h"
#include "metric/metric.h"
#include "mtree/mtree.h"

namespace disc {
namespace {

struct Pin {
  const char* dataset;
  const char* pass;
  size_t size;
  uint64_t checksum;
};

// Radii per dataset are in Workloads() below. Zoom passes start from a
// Greedy-DisC solution at the base radius.
const Pin kPins[] = {
    {"clustered-2d", "greedy", 68, 2789567u},
    {"clustered-2d", "greedy-white", 68, 2789567u},
    {"clustered-2d", "lazy-grey", 80, 4038864u},
    {"clustered-2d", "lazy-white", 70, 3097579u},
    {"clustered-2d", "greedy-c", 65, 2346623u},
    {"clustered-2d", "fast-c", 74, 3226659u},
    {"clustered-2d", "zoom-in", 187, 19851195u},
    {"clustered-2d", "zoom-out-greedy-a", 23, 314124u},
    {"clustered-2d", "zoom-out-greedy-b", 31, 556880u},
    {"clustered-2d", "zoom-out-greedy-c", 25, 399203u},
    {"clustered-2d", "graph-basic", 79, 4225886u},
    {"clustered-2d", "graph-greedy", 68, 2789567u},
    {"clustered-2d", "graph-greedy-c", 65, 2346623u},
    {"uniform-8d-manhattan", "greedy", 121, 3645552u},
    {"uniform-8d-manhattan", "greedy-white", 121, 3645552u},
    {"uniform-8d-manhattan", "lazy-grey", 130, 4836797u},
    {"uniform-8d-manhattan", "lazy-white", 125, 4136193u},
    {"uniform-8d-manhattan", "greedy-c", 99, 1595082u},
    {"uniform-8d-manhattan", "fast-c", 107, 2281761u},
    {"uniform-8d-manhattan", "zoom-in", 481, 59887084u},
    {"uniform-8d-manhattan", "zoom-out-greedy-a", 18, 103919u},
    {"uniform-8d-manhattan", "zoom-out-greedy-b", 24, 141715u},
    {"uniform-8d-manhattan", "zoom-out-greedy-c", 20, 118326u},
    {"uniform-8d-manhattan", "graph-basic", 160, 5754834u},
    {"uniform-8d-manhattan", "graph-greedy", 121, 3645552u},
    {"uniform-8d-manhattan", "graph-greedy-c", 99, 1595082u},
    {"cameras-hamming", "greedy", 222, 8062220u},
    {"cameras-hamming", "greedy-white", 222, 8062220u},
    {"cameras-hamming", "lazy-grey", 231, 7863888u},
    {"cameras-hamming", "lazy-white", 230, 8186212u},
    {"cameras-hamming", "greedy-c", 205, 5734549u},
    {"cameras-hamming", "fast-c", 211, 6362959u},
    {"cameras-hamming", "zoom-in", 447, 34008402u},
    {"cameras-hamming", "zoom-out-greedy-a", 24, 68200u},
    {"cameras-hamming", "zoom-out-greedy-b", 40, 200291u},
    {"cameras-hamming", "zoom-out-greedy-c", 27, 99773u},
    {"cameras-hamming", "graph-basic", 247, 10059709u},
    {"cameras-hamming", "graph-greedy", 222, 8062220u},
    {"cameras-hamming", "graph-greedy-c", 205, 5734549u},
};

struct Workload {
  std::string name;
  Dataset dataset;
  std::unique_ptr<DistanceMetric> metric;
  double radius;
  double zoom_in_radius;
  double zoom_out_radius;
};

// Clustered 2-D, uniform 8-D under Manhattan and cameras under Hamming; each
// with a base radius, a zoom-in target and a zoom-out target.
std::vector<Workload> Workloads() {
  std::vector<Workload> w;
  w.push_back({"clustered-2d", MakeClusteredDataset(2000, 2, 1),
               MakeMetric(MetricKind::kEuclidean), 0.05, 0.025, 0.1});
  w.push_back({"uniform-8d-manhattan", MakeUniformDataset(1000, 8, 2),
               MakeMetric(MetricKind::kManhattan), 1.4, 1.0, 2.2});
  w.push_back({"cameras-hamming", MakeCamerasDataset(),
               MakeMetric(MetricKind::kHamming), 2.0, 1.0, 4.0});
  return w;
}

uint64_t Checksum(const std::vector<ObjectId>& solution) {
  uint64_t checksum = 0;
  for (size_t i = 0; i < solution.size(); ++i) {
    checksum += static_cast<uint64_t>(solution[i]) * (i + 1);
  }
  return checksum;
}

// Every pinned pass, run fresh on its own tree or graph.
std::vector<std::pair<std::string, std::vector<ObjectId>>> RunPasses(
    const Workload& w) {
  std::vector<std::pair<std::string, std::vector<ObjectId>>> out;
  auto on_tree = [&](const std::string& pass,
                     const std::function<DiscResult(MTree*)>& run) {
    MTree tree(w.dataset, *w.metric);
    EXPECT_TRUE(tree.Build().ok());
    out.emplace_back(pass, run(&tree).solution);
  };
  const std::pair<const char*, Algorithm> algorithms[] = {
      {"greedy", Algorithm::kGreedy},
      {"greedy-white", Algorithm::kGreedyWhite},
      {"lazy-grey", Algorithm::kLazyGrey},
      {"lazy-white", Algorithm::kLazyWhite},
      {"greedy-c", Algorithm::kGreedyC},
      {"fast-c", Algorithm::kFastC},
  };
  for (const auto& [pass, algorithm] : algorithms) {
    on_tree(pass, [&, algorithm = algorithm](MTree* tree) {
      return RunAlgorithm(tree, algorithm, w.radius);
    });
  }
  auto seeded = [&](MTree* tree) {
    GreedyDisc(tree, w.radius);
    tree->RecomputeClosestBlackDistances(w.radius);
  };
  on_tree("zoom-in", [&](MTree* tree) {
    seeded(tree);
    return ZoomIn(tree, w.zoom_in_radius, /*greedy=*/true);
  });
  for (ZoomOutVariant variant :
       {ZoomOutVariant::kGreedyMostRed, ZoomOutVariant::kGreedyFewestRed,
        ZoomOutVariant::kGreedyMostWhite}) {
    on_tree(std::string("zoom-out-") + ZoomOutVariantToString(variant),
            [&](MTree* tree) {
              seeded(tree);
              return ZoomOut(tree, w.zoom_out_radius, variant);
            });
  }

  NeighborhoodGraph graph(w.dataset, *w.metric, w.radius);
  std::vector<ObjectId> order(w.dataset.size());
  std::iota(order.begin(), order.end(), ObjectId{0});
  out.emplace_back("graph-basic", ReferenceBasicDisc(graph, order));
  out.emplace_back("graph-greedy", ReferenceGreedyDisc(graph));
  out.emplace_back("graph-greedy-c", ReferenceGreedyC(graph));
  return out;
}

TEST(SelectionPinTest, SolutionsMatchPins) {
  size_t checked = 0;
  for (const Workload& w : Workloads()) {
    for (const auto& [pass, solution] : RunPasses(w)) {
      const Pin* pin = nullptr;
      for (const Pin& p : kPins) {
        if (w.name == p.dataset && pass == p.pass) pin = &p;
      }
      const std::string row = "{\"" + w.name + "\", \"" + pass + "\", " +
                              std::to_string(solution.size()) + ", " +
                              std::to_string(Checksum(solution)) + "u},";
      if (pin == nullptr) {
        ADD_FAILURE() << "unpinned pass: " << row;
        continue;
      }
      EXPECT_EQ(solution.size(), pin->size) << "now reads: " << row;
      EXPECT_EQ(Checksum(solution), pin->checksum) << "now reads: " << row;
      ++checked;
    }
  }
  EXPECT_EQ(checked, std::size(kPins));
}

}  // namespace
}  // namespace disc
