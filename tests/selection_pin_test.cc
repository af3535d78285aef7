// Selection pins: the exact solutions and index work of every selection
// pass.
//
// The M-tree algorithms and the graph-mode reference solvers share one L'
// structure (util/indexed_heap.h), so a change to its tie order would move
// both together and no cross-check between them would notice. These pins
// are independent of the heap: each row is the solution size and an
// order-sensitive checksum (sum of id * (position + 1), the bench's
// solution_checksum) recorded from the eager sift-down heap, so any change
// to which object is selected, or when, fails here. Each row also pins the
// pass's AccessStats (node accesses, range queries, distance computations),
// the paper's cost metric, so a pass that selects the same objects through
// a different query sequence fails too. The graph rows run on a prebuilt
// G_r and touch no index: their stats are zero.
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
  AccessStats stats;
};

// Radii per dataset are in Workloads() below. Zoom passes start from a
// Greedy-DisC solution at the base radius. Local zooms are centered on that
// solution's first object, over the wider region N_1.5r(center) so that the
// region holds several old picks and zoom-out has a second pass to run.
const Pin kPins[] = {
    {"clustered-2d", "basic", 75, 3406252u, {544, 75, 4346}},
    {"clustered-2d", "greedy", 68, 2789567u, {43843, 4000, 530569}},
    {"clustered-2d", "greedy-white", 68, 2789567u, {24563, 2136, 524509}},
    {"clustered-2d", "lazy-grey", 80, 4038864u, {40426, 4000, 485197}},
    {"clustered-2d", "lazy-white", 70, 3097579u, {24489, 2140, 479037}},
    {"clustered-2d", "greedy-c", 65, 2346623u, {47295, 4029, 832707}},
    {"clustered-2d", "fast-c", 74, 3226659u, {58832, 5890, 642356}},
    {"clustered-2d", "basic-unpruned", 75, 3406252u, {749, 75, 10008}},
    {"clustered-2d", "greedy-unpruned", 68, 2789567u, {47006, 4000, 828124}},
    {"clustered-2d", "zoom-in", 187, 19851195u, {17247, 1886, 90167}},
    {"clustered-2d", "zoom-in-observe", 187, 19851195u, {17427, 1886, 97324}},
    {"clustered-2d", "zoom-in-plain", 212, 25332479u, {1251, 144, 12676}},
    {"clustered-2d", "zoom-out-arbitrary", 29, 535491u, {452, 29, 8456}},
    {"clustered-2d", "zoom-out-greedy-a", 23, 314124u, {664, 100, 7359}},
    {"clustered-2d", "zoom-out-greedy-b", 31, 556880u, {387, 46, 8657}},
    {"clustered-2d", "zoom-out-greedy-c", 25, 399203u, {1150, 96, 113614}},
    {"clustered-2d", "local-in-greedy", 73, 3824888u, {1281, 157, 5075}},
    {"clustered-2d", "local-out-greedy", 64, 2901421u, {24, 2, 590}},
    {"clustered-2d", "local-in-plain", 75, 4030212u, {138, 8, 1269}},
    {"clustered-2d", "local-out-plain", 65, 2982125u, {160, 3, 876}},
    {"clustered-2d", "graph-basic", 79, 4225886u, {0, 0, 0}},
    {"clustered-2d", "graph-greedy", 68, 2789567u, {0, 0, 0}},
    {"clustered-2d", "graph-greedy-c", 65, 2346623u, {0, 0, 0}},
    {"uniform-8d", "basic", 161, 5872861u, {2686, 161, 31251}},
    {"uniform-8d", "greedy", 121, 3645552u, {52994, 2000, 1000025}},
    {"uniform-8d", "greedy-white", 121, 3645552u, {32078, 1242, 1015850}},
    {"uniform-8d", "lazy-grey", 130, 4836797u, {47945, 2000, 840881}},
    {"uniform-8d", "lazy-white", 125, 4136193u, {32631, 1250, 813987}},
    {"uniform-8d", "greedy-c", 99, 1595082u, {55890, 2064, 1357042}},
    {"uniform-8d", "fast-c", 107, 2281761u, {66195, 2729, 929758}},
    {"uniform-8d", "basic-unpruned", 161, 5872861u, {4260, 161, 98076}},
    {"uniform-8d", "greedy-unpruned", 121, 3645552u, {54140, 2000, 1313838}},
    {"uniform-8d", "zoom-in", 481, 59887084u, {32091, 1352, 339354}},
    {"uniform-8d", "zoom-in-observe", 481, 59887084u, {32708, 1352, 454833}},
    {"uniform-8d", "zoom-in-plain", 523, 68903841u, {9553, 402, 178319}},
    {"uniform-8d", "zoom-out-arbitrary", 20, 100210u, {628, 20, 24975}},
    {"uniform-8d", "zoom-out-greedy-a", 18, 103919u, {724, 50, 20194}},
    {"uniform-8d", "zoom-out-greedy-b", 24, 141715u, {734, 43, 25091}},
    {"uniform-8d", "zoom-out-greedy-c", 20, 118326u, {3971, 147, 179848}},
    {"uniform-8d", "local-in-greedy", 271, 19424769u, {12519, 549, 74690}},
    {"uniform-8d", "local-out-greedy", 87, 2269594u, {58, 2, 2591}},
    {"uniform-8d", "local-in-plain", 289, 21370797u, {4265, 169, 84603}},
    {"uniform-8d", "local-out-plain", 95, 2662621u, {345, 10, 10070}},
    {"uniform-8d", "graph-basic", 160, 5754834u, {0, 0, 0}},
    {"uniform-8d", "graph-greedy", 121, 3645552u, {0, 0, 0}},
    {"uniform-8d", "graph-greedy-c", 99, 1595082u, {0, 0, 0}},
    {"cameras", "basic", 250, 8058870u, {2736, 250, 40848}},
    {"cameras", "greedy", 222, 8062220u, {22061, 1158, 361339}},
    {"cameras", "greedy-white", 222, 8062220u, {19085, 1023, 309685}},
    {"cameras", "lazy-grey", 231, 7863888u, {21375, 1158, 326784}},
    {"cameras", "lazy-white", 230, 8186212u, {19450, 1039, 301822}},
    {"cameras", "greedy-c", 205, 5734549u, {23476, 1207, 487402}},
    {"cameras", "fast-c", 211, 6362959u, {23989, 1249, 350936}},
    {"cameras", "basic-unpruned", 250, 8058870u, {4871, 250, 99142}},
    {"cameras", "greedy-unpruned", 222, 8062220u, {22522, 1158, 467088}},
    {"cameras", "zoom-in", 447, 34008402u, {8944, 544, 52855}},
    {"cameras", "zoom-in-observe", 447, 34008402u, {9327, 544, 94503}},
    {"cameras", "zoom-in-plain", 454, 32758583u, {3976, 232, 56666}},
    {"cameras", "zoom-out-arbitrary", 31, 143431u, {658, 31, 41794}},
    {"cameras", "zoom-out-greedy-a", 24, 68200u, {442, 33, 35116}},
    {"cameras", "zoom-out-greedy-b", 40, 200291u, {769, 42, 45592}},
    {"cameras", "zoom-out-greedy-c", 27, 99773u, {4980, 249, 169045}},
    {"cameras", "local-in-greedy", 254, 10952454u, {966, 107, 3894}},
    {"cameras", "local-out-greedy", 206, 7898661u, {40, 2, 1248}},
    {"cameras", "local-in-plain", 257, 11099910u, {686, 36, 10732}},
    {"cameras", "local-out-plain", 208, 7991168u, {118, 4, 2397}},
    {"cameras", "graph-basic", 247, 10059709u, {0, 0, 0}},
    {"cameras", "graph-greedy", 222, 8062220u, {0, 0, 0}},
    {"cameras", "graph-greedy-c", 205, 5734549u, {0, 0, 0}},
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
  w.push_back({"uniform-8d", MakeUniformDataset(1000, 8, 2),
               MakeMetric(MetricKind::kManhattan), 1.4, 1.0, 2.2});
  w.push_back({"cameras", MakeCamerasDataset(),
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

struct PassRun {
  std::string pass;
  std::vector<ObjectId> solution;
  AccessStats stats;
};

// Every pinned pass, run fresh on its own tree or graph.
std::vector<PassRun> RunPasses(const Workload& w) {
  std::vector<PassRun> out;
  auto on_tree = [&](const std::string& pass,
                     const std::function<DiscResult(MTree*)>& run) {
    MTree tree(w.dataset, *w.metric);
    EXPECT_TRUE(tree.Build().ok());
    DiscResult result = run(&tree);
    out.push_back({pass, std::move(result.solution), result.stats});
  };
  const std::pair<const char*, Algorithm> algorithms[] = {
      {"basic", Algorithm::kBasic},
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
  AlgorithmRunOptions unpruned;
  unpruned.pruned = false;
  on_tree("basic-unpruned", [&](MTree* tree) {
    return RunAlgorithm(tree, Algorithm::kBasic, w.radius, unpruned);
  });
  on_tree("greedy-unpruned", [&](MTree* tree) {
    return RunAlgorithm(tree, Algorithm::kGreedy, w.radius, unpruned);
  });

  // Seeds the tree with a Greedy-DisC solution at the base radius and
  // returns its first object (the local-zoom center).
  auto seeded = [&](MTree* tree) {
    ObjectId center = GreedyDisc(tree, w.radius).solution.front();
    tree->RecomputeClosestBlackDistances(w.radius);
    return center;
  };
  on_tree("zoom-in", [&](MTree* tree) {
    seeded(tree);
    return ZoomIn(tree, w.zoom_in_radius, /*greedy=*/true);
  });
  on_tree("zoom-in-observe", [&](MTree* tree) {
    seeded(tree);
    return ZoomIn(tree, w.zoom_in_radius, /*greedy=*/true,
                  /*observe_all=*/true);
  });
  on_tree("zoom-in-plain", [&](MTree* tree) {
    seeded(tree);
    return ZoomIn(tree, w.zoom_in_radius, /*greedy=*/false);
  });
  for (ZoomOutVariant variant :
       {ZoomOutVariant::kArbitrary, ZoomOutVariant::kGreedyMostRed,
        ZoomOutVariant::kGreedyFewestRed, ZoomOutVariant::kGreedyMostWhite}) {
    on_tree(std::string("zoom-out-") + ZoomOutVariantToString(variant),
            [&](MTree* tree) {
              seeded(tree);
              return ZoomOut(tree, w.zoom_out_radius, variant);
            });
  }
  for (bool greedy : {true, false}) {
    const std::string kind = greedy ? "greedy" : "plain";
    on_tree("local-in-" + kind, [&](MTree* tree) {
      ObjectId center = seeded(tree);
      return LocalZoom(tree, center, 1.5 * w.radius, w.zoom_in_radius,
                       greedy);
    });
    on_tree("local-out-" + kind, [&](MTree* tree) {
      ObjectId center = seeded(tree);
      return LocalZoom(tree, center, 1.5 * w.radius, w.zoom_out_radius,
                       greedy);
    });
  }

  NeighborhoodGraph graph(w.dataset, *w.metric, w.radius);
  std::vector<ObjectId> order(w.dataset.size());
  std::iota(order.begin(), order.end(), ObjectId{0});
  out.push_back({"graph-basic", ReferenceBasicDisc(graph, order), {}});
  out.push_back({"graph-greedy", ReferenceGreedyDisc(graph), {}});
  out.push_back({"graph-greedy-c", ReferenceGreedyC(graph), {}});
  return out;
}

// The row as the kPins table spells it.
std::string Row(const std::string& dataset, const PassRun& run) {
  const AccessStats& s = run.stats;
  return "{\"" + dataset + "\", \"" + run.pass + "\", " +
         std::to_string(run.solution.size()) + ", " +
         std::to_string(Checksum(run.solution)) + "u, {" +
         std::to_string(s.node_accesses) + ", " +
         std::to_string(s.range_queries) + ", " +
         std::to_string(s.distance_computations) + "}},";
}

TEST(SelectionPinTest, SolutionsMatchPins) {
  size_t checked = 0;
  for (const Workload& w : Workloads()) {
    for (const PassRun& run : RunPasses(w)) {
      const Pin* pin = nullptr;
      for (const Pin& p : kPins) {
        if (w.name == p.dataset && run.pass == p.pass) pin = &p;
      }
      const std::string row = Row(w.name, run);
      if (pin == nullptr) {
        ADD_FAILURE() << "unpinned pass: " << row;
        continue;
      }
      EXPECT_EQ(run.solution.size(), pin->size) << "now reads: " << row;
      EXPECT_EQ(Checksum(run.solution), pin->checksum) << "now reads: " << row;
      EXPECT_TRUE(run.stats == pin->stats) << "now reads: " << row;
      ++checked;
    }
  }
  EXPECT_EQ(checked, std::size(kPins));
}

}  // namespace
}  // namespace disc
