#include "graph/neighborhood.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "data/generators.h"
#include "metric/metric.h"
#include "mtree/mtree.h"
#include "neighbor/adjacency.h"
#include "util/parallel.h"

namespace disc {
namespace {

// Wraps a metric and counts Distance calls. The counter is atomic so the
// same wrapper pins the parallel builds too.
class CountingMetric final : public DistanceMetric {
 public:
  explicit CountingMetric(const DistanceMetric& inner) : inner_(inner) {}

  double Distance(const Point& a, const Point& b) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_.Distance(a, b);
  }
  MetricKind kind() const override { return inner_.kind(); }

  uint64_t calls() const { return calls_.load(); }
  void Reset() { calls_.store(0); }

 private:
  const DistanceMetric& inner_;
  mutable std::atomic<uint64_t> calls_{0};
};

TEST(NeighborhoodGraphTest, EmptyDataset) {
  Dataset d;
  EuclideanMetric metric;
  NeighborhoodGraph g(d, metric, 0.1);
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.MaxDegree(), 0u);
}

TEST(NeighborhoodGraphTest, SingleVertexHasNoNeighbors) {
  Dataset d;
  ASSERT_TRUE(d.Add(Point{0.5, 0.5}).ok());
  EuclideanMetric metric;
  NeighborhoodGraph g(d, metric, 1.0);
  EXPECT_EQ(g.num_vertices(), 1u);
  EXPECT_TRUE(g.neighbors(0).empty());
}

TEST(NeighborhoodGraphTest, SimpleTriangle) {
  Dataset d;
  ASSERT_TRUE(d.Add(Point{0.0, 0.0}).ok());
  ASSERT_TRUE(d.Add(Point{0.1, 0.0}).ok());
  ASSERT_TRUE(d.Add(Point{0.9, 0.9}).ok());
  EuclideanMetric metric;
  NeighborhoodGraph g(d, metric, 0.2);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(2), 0u);
}

TEST(NeighborhoodGraphTest, BoundaryDistanceIsAnEdge) {
  // dist == r must be an edge (the paper uses dist <= r for similarity).
  Dataset d;
  ASSERT_TRUE(d.Add(Point{0.0}).ok());
  ASSERT_TRUE(d.Add(Point{0.5}).ok());
  EuclideanMetric metric;
  NeighborhoodGraph g(d, metric, 0.5);
  EXPECT_TRUE(g.HasEdge(0, 1));
}

TEST(NeighborhoodGraphTest, ZeroRadiusOnlyDuplicates) {
  Dataset d;
  ASSERT_TRUE(d.Add(Point{0.3, 0.3}).ok());
  ASSERT_TRUE(d.Add(Point{0.3, 0.3}).ok());
  ASSERT_TRUE(d.Add(Point{0.4, 0.3}).ok());
  EuclideanMetric metric;
  NeighborhoodGraph g(d, metric, 0.0);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(0, 2));
}

TEST(NeighborhoodGraphTest, NeighborsSortedById) {
  Dataset d = MakeUniformDataset(200, 2, 3);
  EuclideanMetric metric;
  NeighborhoodGraph g(d, metric, 0.2);
  for (ObjectId v = 0; v < g.num_vertices(); ++v) {
    const auto& nbs = g.neighbors(v);
    for (size_t i = 1; i < nbs.size(); ++i) {
      EXPECT_LT(nbs[i - 1], nbs[i]);
    }
  }
}

TEST(NeighborhoodGraphTest, MaxDegreeMatchesScan) {
  Dataset d = MakeClusteredDataset(300, 2, 9);
  EuclideanMetric metric;
  NeighborhoodGraph g(d, metric, 0.1);
  size_t expected = 0;
  for (ObjectId v = 0; v < g.num_vertices(); ++v) {
    expected = std::max(expected, g.degree(v));
  }
  EXPECT_EQ(g.MaxDegree(), expected);
}

// The grid accelerator (n >= 256, dim <= 3, Minkowski metric) must agree
// exactly with the brute-force construction, and every build must be
// byte-identical across thread counts. Exercise several shapes, including
// the CSR edge cases: empty and single-vertex graphs, either side of the
// grid threshold, isolated first and last vertices, duplicate points at
// radius 0, and every point in one grid cell.
enum class Shape {
  kGenerated,      // clustered for Euclidean, uniform otherwise
  kIsolatedEnds,   // vertices 0 and n-1 far from everything else
  kDuplicates,     // the second half repeats the first
  kOneCell,        // every point inside one cell of side `radius`
  kFarOutlier,     // the last vertex at 1e5 along the first axis
  kLattice,        // coordinates multiples of 32, at most 1024, per axis
};

struct GridParam {
  size_t n;
  size_t dim;
  MetricKind kind;
  double radius;
  Shape shape = Shape::kGenerated;
};

Dataset MakeShape(const GridParam& p) {
  Dataset generated = p.kind == MetricKind::kEuclidean
                          ? MakeClusteredDataset(p.n, p.dim, 77)
                          : MakeUniformDataset(p.n, p.dim, 77);
  Dataset d(p.dim);
  for (ObjectId i = 0; i < p.n; ++i) {
    Point point = generated.point(i);
    if (p.shape == Shape::kIsolatedEnds && (i == 0 || i + 1 == p.n)) {
      for (size_t k = 0; k < p.dim; ++k) point[k] = i == 0 ? -5.0 : 5.0;
    } else if (p.shape == Shape::kDuplicates && i >= p.n / 2) {
      point = generated.point(i - p.n / 2);
    } else if (p.shape == Shape::kOneCell) {
      for (size_t k = 0; k < p.dim; ++k) point[k] *= 0.99 * p.radius;
    } else if (p.shape == Shape::kFarOutlier && i + 1 == p.n) {
      point[0] = 1e5;
    } else if (p.shape == Shape::kLattice) {
      for (size_t k = 0, rem = i; k < p.dim; ++k, rem /= 33) {
        point[k] = static_cast<double>(rem % 33) * 32;
      }
    }
    EXPECT_TRUE(d.Add(point).ok());
  }
  return d;
}

class GridEquivalenceTest : public ::testing::TestWithParam<GridParam> {};

TEST_P(GridEquivalenceTest, GridMatchesBruteForce) {
  const GridParam& p = GetParam();
  const Dataset d = MakeShape(p);
  auto metric = MakeMetric(p.kind);
  NeighborhoodGraph g(d, *metric, p.radius);
  size_t edges = 0;
  for (ObjectId i = 0; i < d.size(); ++i) {
    for (ObjectId j = i + 1; j < d.size(); ++j) {
      bool close = metric->Distance(d.point(i), d.point(j)) <= p.radius;
      ASSERT_EQ(g.HasEdge(i, j), close)
          << "edge (" << i << "," << j << ") mismatch";
      if (close) ++edges;
    }
  }
  EXPECT_EQ(g.num_edges(), edges);
  EXPECT_TRUE(g.adjacency() ==
              BuildAdjacencyBruteForce(d, *metric, p.radius, nullptr))
      << "the graph's CSR differs from the brute-force build's";
  for (size_t threads : {2u, 4u}) {
    ThreadPool pool(threads);
    NeighborhoodGraph parallel(d, *metric, p.radius, &pool);
    EXPECT_TRUE(parallel.adjacency() == g.adjacency())
        << threads << " threads diverged from the serial build";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GridEquivalenceTest,
    ::testing::Values(
        GridParam{400, 2, MetricKind::kEuclidean, 0.05},
        GridParam{400, 2, MetricKind::kEuclidean, 0.3},
        GridParam{300, 2, MetricKind::kManhattan, 0.1},
        GridParam{300, 3, MetricKind::kEuclidean, 0.15},
        GridParam{300, 2, MetricKind::kChebyshev, 0.08},
        GridParam{100, 2, MetricKind::kEuclidean, 0.1},
        GridParam{0, 2, MetricKind::kEuclidean, 0.1},
        GridParam{1, 2, MetricKind::kEuclidean, 0.1},
        GridParam{255, 2, MetricKind::kEuclidean, 0.05},
        GridParam{256, 2, MetricKind::kEuclidean, 0.05},
        GridParam{400, 2, MetricKind::kEuclidean, 0.05, Shape::kIsolatedEnds},
        GridParam{100, 2, MetricKind::kEuclidean, 0.05, Shape::kIsolatedEnds},
        GridParam{300, 2, MetricKind::kEuclidean, 0.0, Shape::kDuplicates},
        GridParam{300, 2, MetricKind::kEuclidean, 0.05, Shape::kDuplicates},
        GridParam{300, 2, MetricKind::kEuclidean, 0.05, Shape::kOneCell},
        GridParam{300, 3, MetricKind::kManhattan, 0.1, Shape::kOneCell},
        GridParam{400, 1, MetricKind::kEuclidean, 0.002},
        GridParam{300, 1, MetricKind::kManhattan, 0.01},
        GridParam{256, 1, MetricKind::kChebyshev, 0.004},
        GridParam{300, 1, MetricKind::kEuclidean, 0.0, Shape::kDuplicates},
        GridParam{300, 1, MetricKind::kChebyshev, 0.01, Shape::kOneCell}),
    [](const ::testing::TestParamInfo<GridParam>& param_info) {
      const GridParam& p = param_info.param;
      return std::string(MetricKindToString(p.kind)) + "_n" +
             std::to_string(p.n) + "_d" + std::to_string(p.dim) + "_i" +
             std::to_string(param_info.index);
    });

// The grid build's contract, pinned: edge count, candidate pairs (one
// distance each) and a hash of the CSR bytes, identical at 1, 2 and 4
// threads. The values come from a per-point scan (each point against the
// ids above it in its 3^dim cells), so any change to the graph or to the
// work shows here.
struct GridContract {
  const char* name;
  GridParam input;
  uint64_t edges;
  uint64_t distance_computations;
  uint64_t csr_hash;
};

// Byte-wise 64-bit FNV-1a over the offsets, then the ids.
uint64_t CsrHash(const CsrAdjacency& csr) {
  uint64_t hash = 14695981039346656037ull;
  auto mix = [&hash](const void* data, size_t bytes) {
    const auto* byte = static_cast<const unsigned char*>(data);
    for (size_t k = 0; k < bytes; ++k) {
      hash ^= byte[k];
      hash *= 1099511628211ull;
    }
  };
  mix(csr.offsets.data(), csr.offsets.size() * sizeof(csr.offsets[0]));
  mix(csr.ids.data(), csr.ids.size() * sizeof(csr.ids[0]));
  return hash;
}

TEST(GridContractTest, EdgesDistancesAndBytesArePinned) {
  using K = MetricKind;
  const GridContract kContracts[] = {
      {"euclidean_d1", {600, 1, K::kEuclidean, 0.002},
       1745, 2531, 9834914494322187193ull},
      {"euclidean_d2", {600, 2, K::kEuclidean, 0.05},
       9328, 18959, 12748070992511642400ull},
      {"euclidean_d3", {600, 3, K::kEuclidean, 0.12},
       17974, 36519, 15978305700518006436ull},
      {"manhattan_d1", {600, 1, K::kManhattan, 0.005},
       1787, 2714, 11047967409004261005ull},
      {"manhattan_d2", {600, 2, K::kManhattan, 0.06},
       1202, 5390, 14157928533810268338ull},
      {"manhattan_d3", {600, 3, K::kManhattan, 0.2},
       1637, 24817, 6686548768901958446ull},
      {"chebyshev_d1", {600, 1, K::kChebyshev, 0.004},
       1442, 2133, 14027258277563148236ull},
      {"chebyshev_d2", {600, 2, K::kChebyshev, 0.04},
       1084, 2451, 15044644577062651150ull},
      {"chebyshev_d3", {600, 3, K::kChebyshev, 0.1},
       1209, 3989, 6310004884589457142ull},
      {"one_cell", {500, 2, K::kEuclidean, 0.05, Shape::kOneCell},
       124750, 124750, 6005237795702687896ull},
      {"duplicates", {600, 2, K::kEuclidean, 0.03, Shape::kDuplicates},
       9480, 20128, 2027513040608962547ull},
      {"zero_radius", {600, 3, K::kManhattan, 0.0, Shape::kDuplicates},
       300, 300, 1656900144386985335ull},
      {"far_outlier", {600, 2, K::kEuclidean, 0.02, Shape::kFarOutlier},
       1849, 4605, 8400700828221341094ull},
      {"lattice_r0", {1000, 2, K::kEuclidean, 0.0, Shape::kLattice},
       0, 0, 11920499126216567493ull},
      {"lattice_spacing", {1000, 2, K::kEuclidean, 32.0, Shape::kLattice},
       1936, 3811, 17318721728995376640ull},
  };
  ThreadPool pool2(2);
  ThreadPool pool4(4);
  for (const GridContract& c : kContracts) {
    SCOPED_TRACE(c.name);
    const Dataset d = MakeShape(c.input);
    auto metric = MakeMetric(c.input.kind);
    ASSERT_TRUE(GridCompatible(*metric, d.dim(), d.size()));
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool2,
                             &pool4}) {
      SCOPED_TRACE(pool == nullptr ? 1 : pool->threads());
      uint64_t calls = 0;
      const CsrAdjacency csr =
          BuildAdjacencyWithGrid(d, *metric, c.input.radius, pool, &calls);
      EXPECT_EQ(csr.num_edges(), c.edges);
      EXPECT_EQ(calls, c.distance_computations);
      EXPECT_EQ(CsrHash(csr), c.csr_hash);
    }
  }
}

// ---------------------------------------------------------------------------
// Distance-call accounting: one computation per unordered pair.
// ---------------------------------------------------------------------------

TEST(NeighborhoodGraphTest, BruteForceComputesEachPairOnce) {
  // n < 256 keeps the build on the O(n^2) path. The regression this pins:
  // a scan that evaluated Distance(a, b) and Distance(b, a) separately
  // would cost exactly n(n-1) calls — twice this bound.
  const size_t n = 120;
  Dataset d = MakeUniformDataset(n, 2, 11);
  EuclideanMetric inner;
  CountingMetric metric(inner);
  NeighborhoodGraph g(d, metric, 0.1);
  EXPECT_EQ(metric.calls(), n * (n - 1) / 2);
  EXPECT_GT(g.num_edges(), 0u);
}

TEST(NeighborhoodGraphTest, GridComputesAtMostEachPairOnce) {
  // The grid path (n >= 256, low dim) meets each candidate pair from both
  // endpoints' cells; it must compute at most one distance per unordered
  // pair (fewer: distant pairs never meet). The builder calls the metric's
  // inline kernel, so its own counter is the measure, pinned exactly.
  const size_t n = 400;
  Dataset d = MakeClusteredDataset(n, 2, 11);
  EuclideanMetric metric;
  uint64_t calls = 0;
  BuildAdjacencyWithGrid(d, metric, 0.05, nullptr, &calls);
  EXPECT_EQ(calls, 9318u);
  EXPECT_LT(calls, n * (n - 1) / 2);  // the accelerator must pay off
  // (GridEquivalenceTest pins the resulting graph against brute force; this
  // test pins the cost model: dedupe means at most one call per pair.)
}

TEST(NeighborhoodGraphTest, GridStaysSubquadraticAtZeroAndTinyRadii) {
  // Cells of side r would overflow floor(x / r) at r = 1e-30 and are empty
  // at r = 0; the grid widens them to about one ulp of the dataset's largest
  // |coordinate| instead, so both radii keep the grid's exact graph without
  // a quadratic scan: for data near and far from the origin, and on a
  // power-of-two lattice, whose cell coordinates must not share the low
  // bits the cell keys pack.
  // Half the points are duplicates so the graph has edges.
  const size_t n = 2000;
  const Dataset uniform = MakeUniformDataset(n / 2, 2, 13);
  auto distinct_point = [&](const std::string& layout, ObjectId i) {
    if (layout == "lattice") {
      // Coordinates in {0, 32, ..., 1024}: multiples of 2^5 up to 2^10.
      return Point{static_cast<double>(i % 33) * 32,
                   static_cast<double>(i / 33) * 32};
    }
    Point point = uniform.point(i);
    if (layout == "offset") {
      for (size_t k = 0; k < 2; ++k) point[k] += 1e6;
    }
    return point;
  };
  // The build's distance count per layout and radius, recorded from the
  // per-point scan the cell-pair build replaced: each duplicate pair once.
  const struct {
    const char* layout;
    uint64_t build_calls;
  } kLayouts[] = {{"uniform", 1000}, {"offset", 1000}, {"lattice", 1000}};
  EuclideanMetric inner;
  for (const auto& [layout, build_calls] : kLayouts) {
    Dataset d(2);
    for (ObjectId i = 0; i < n; ++i) {
      ASSERT_TRUE(d.Add(distinct_point(layout, i % (n / 2))).ok());
    }
    for (double radius : {0.0, 1e-30}) {
      SCOPED_TRACE(std::string(layout) +
                   " r=" + ::testing::PrintToString(radius));
      uint64_t calls = 0;
      const CsrAdjacency csr =
          BuildAdjacencyWithGrid(d, inner, radius, nullptr, &calls);
      EXPECT_EQ(calls, build_calls);
      EXPECT_LT(calls, n * (n - 1) / 2);
      EXPECT_EQ(csr.num_edges(), n / 2);
      EXPECT_TRUE(csr ==
                  BuildAdjacencyBruteForce(d, inner, radius, nullptr));
      NeighborhoodGraph g(d, inner, radius);
      EXPECT_TRUE(g.adjacency() == csr);
    }
  }
}

TEST(NeighborhoodGraphTest, GridCellsStaySideRWithAFarOutlier) {
  // One point far from the rest must not widen every cell: the outlier
  // sits alone in its cell, so the grid computes exactly the distances it
  // computes without it.
  const size_t n = 2000;
  const double radius = 0.003;
  const Dataset base = MakeUniformDataset(n, 2, 21);
  Dataset with_outlier(2);
  for (ObjectId i = 0; i < n; ++i) {
    ASSERT_TRUE(with_outlier.Add(base.point(i)).ok());
  }
  ASSERT_TRUE(with_outlier.Add(Point{1e5, 0.0}).ok());

  EuclideanMetric metric;
  uint64_t base_calls = 0;
  uint64_t outlier_calls = 0;
  const CsrAdjacency base_graph =
      BuildAdjacencyWithGrid(base, metric, radius, nullptr, &base_calls);
  const CsrAdjacency outlier_graph = BuildAdjacencyWithGrid(
      with_outlier, metric, radius, nullptr, &outlier_calls);
  EXPECT_EQ(outlier_calls, base_calls);
  EXPECT_EQ(outlier_graph.num_edges(), base_graph.num_edges());
  EXPECT_TRUE(outlier_graph ==
              BuildAdjacencyBruteForce(with_outlier, metric, radius, nullptr));
}

// ---------------------------------------------------------------------------
// Parallel builds: byte-identical to serial for every path and thread count.
// ---------------------------------------------------------------------------

void ExpectSameAdjacency(const CsrAdjacency& a, const CsrAdjacency& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (ObjectId v = 0; v < a.size(); ++v) {
    ASSERT_TRUE(std::ranges::equal(a.row(v), b.row(v))) << "vertex " << v;
  }
  EXPECT_TRUE(a == b);
}

void ExpectSameGraph(const NeighborhoodGraph& a, const NeighborhoodGraph& b) {
  ExpectSameAdjacency(a.adjacency(), b.adjacency());
}

TEST(NeighborhoodGraphParallelTest, BruteForcePathMatchesSerial) {
  // dim 4 keeps the build off the grid accelerator.
  Dataset d = MakeUniformDataset(500, 4, 23);
  EuclideanMetric metric;
  NeighborhoodGraph serial(d, metric, 0.25);
  for (size_t threads : {2u, 4u}) {
    ThreadPool pool(threads);
    NeighborhoodGraph parallel(d, metric, 0.25, &pool);
    ExpectSameGraph(serial, parallel);
  }
}

TEST(NeighborhoodGraphParallelTest, GridPathMatchesSerial) {
  Dataset d = MakeClusteredDataset(800, 2, 23);
  EuclideanMetric metric;
  NeighborhoodGraph serial(d, metric, 0.05);
  for (size_t threads : {2u, 4u}) {
    ThreadPool pool(threads);
    NeighborhoodGraph parallel(d, metric, 0.05, &pool);
    ExpectSameGraph(serial, parallel);
  }
}

TEST(NeighborhoodGraphParallelTest, ParallelBruteForceDistanceCallsUnchanged) {
  // Threading must not change the work, only the wall time: still exactly
  // one Distance call per unordered pair.
  const size_t n = 300;
  Dataset d = MakeUniformDataset(n, 4, 29);
  EuclideanMetric inner;
  CountingMetric metric(inner);
  ThreadPool pool(4);
  NeighborhoodGraph g(d, metric, 0.3, &pool);
  EXPECT_EQ(metric.calls(), n * (n - 1) / 2);
}

TEST(NeighborhoodGraphParallelTest, IndexBackedPathMatchesSerialWithStats) {
  Dataset d = MakeClusteredDataset(600, 2, 31);
  EuclideanMetric metric;
  const double radius = 0.05;

  MTree serial_tree(d, metric);  // insert-built, like a default MTree
  ASSERT_TRUE(serial_tree.Build().ok());
  serial_tree.ResetStats();
  const CsrAdjacency serial = serial_tree.BuildNeighborhoods(radius);
  const AccessStats serial_stats = serial_tree.stats();

  for (size_t threads : {2u, 4u}) {
    MTree tree(d, metric);
    ASSERT_TRUE(tree.Build().ok());
    tree.ResetStats();
    ThreadPool pool(threads);
    const CsrAdjacency parallel = tree.BuildNeighborhoods(radius, &pool);
    ExpectSameAdjacency(serial, parallel);
    // Node-access accounting fans out through per-thread sinks and is
    // summed back: totals must be exactly the serial totals.
    EXPECT_EQ(tree.stats(), serial_stats) << "threads " << threads;
  }
}

TEST(NeighborhoodGraphParallelTest, ParallelCountsMatchSerial) {
  Dataset d = MakeClusteredDataset(700, 2, 37);
  EuclideanMetric metric;
  const double radius = 0.04;

  MTree serial_tree(d, metric);
  ASSERT_TRUE(serial_tree.Build().ok());
  serial_tree.ResetStats();
  std::vector<uint32_t> serial_counts;
  serial_tree.ComputeNeighborCountsPostBuild(radius, &serial_counts);
  const AccessStats serial_stats = serial_tree.stats();

  for (size_t threads : {2u, 4u}) {
    MTree tree(d, metric);
    ASSERT_TRUE(tree.Build().ok());
    tree.ResetStats();
    ThreadPool pool(threads);
    std::vector<uint32_t> counts;
    tree.ComputeNeighborCountsPostBuild(radius, &counts, &pool);
    EXPECT_EQ(counts, serial_counts) << "threads " << threads;
    EXPECT_EQ(tree.stats(), serial_stats) << "threads " << threads;
  }
}

TEST(NeighborhoodGraphTest, HammingGraphOnCategoricalData) {
  Dataset d;
  ASSERT_TRUE(d.Add(Point{0, 0, 0}).ok());
  ASSERT_TRUE(d.Add(Point{0, 0, 1}).ok());
  ASSERT_TRUE(d.Add(Point{1, 1, 1}).ok());
  HammingMetric metric;
  NeighborhoodGraph g(d, metric, 1.0);
  EXPECT_TRUE(g.HasEdge(0, 1));   // differ in 1 attribute
  EXPECT_FALSE(g.HasEdge(0, 2));  // differ in 3 attributes
  EXPECT_FALSE(g.HasEdge(1, 2));  // differ in 2 attributes
}

}  // namespace
}  // namespace disc
