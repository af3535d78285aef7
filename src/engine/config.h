// Engine configuration: where the dataset comes from, which metric compares
// its points, and how the M-tree index is constructed.
//
// A DatasetSpec is a *description* of a dataset (a generator family plus its
// knobs, a built-in catalog, a CSV path, or an already-materialized Dataset),
// so an EngineConfig is a plain value that can be parsed from CLI flags,
// logged, or shipped to a server before any data is loaded. ResolveDataset
// turns the description into points; DiscEngine::Create does that once and
// owns the result for the session's lifetime.

#ifndef DISC_ENGINE_CONFIG_H_
#define DISC_ENGINE_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "data/dataset.h"
#include "metric/metric.h"
#include "mtree/mtree.h"
#include "neighbor/backend.h"
#include "util/status.h"

namespace disc {

/// Describes a dataset without materializing it.
struct DatasetSpec {
  enum class Source {
    kUniform,    // MakeUniformDataset(n, dim, seed)
    kClustered,  // MakeClusteredDataset(n, dim, seed)
    kCities,     // the synthetic Greek-cities stand-in (5922 points, 2-D)
    kCameras,    // the synthetic camera catalog (579 points, 7 categorical)
    kCsv,        // LoadPointsCsv(csv_path)
    kProvided,   // the `provided` Dataset, moved in by the caller
  };

  Source source = Source::kClustered;
  /// Generator knobs (kUniform / kClustered only).
  size_t n = 10000;
  size_t dim = 2;
  uint64_t seed = 42;
  /// kCsv only.
  std::string csv_path;
  /// kProvided only.
  Dataset provided;

  static DatasetSpec Uniform(size_t n, size_t dim, uint64_t seed) {
    DatasetSpec spec;
    spec.source = Source::kUniform;
    spec.n = n;
    spec.dim = dim;
    spec.seed = seed;
    return spec;
  }
  static DatasetSpec Clustered(size_t n, size_t dim, uint64_t seed) {
    DatasetSpec spec = Uniform(n, dim, seed);
    spec.source = Source::kClustered;
    return spec;
  }
  static DatasetSpec Cities() {
    DatasetSpec spec;
    spec.source = Source::kCities;
    return spec;
  }
  static DatasetSpec Cameras() {
    DatasetSpec spec;
    spec.source = Source::kCameras;
    return spec;
  }
  static DatasetSpec Csv(std::string path) {
    DatasetSpec spec;
    spec.source = Source::kCsv;
    spec.csv_path = std::move(path);
    return spec;
  }
  static DatasetSpec Provided(Dataset dataset) {
    DatasetSpec spec;
    spec.source = Source::kProvided;
    spec.provided = std::move(dataset);
    return spec;
  }
};

/// "uniform" / "clustered" / "cities" / "cameras" / "csv" / "provided".
const char* DatasetSourceToString(DatasetSpec::Source source);

/// Parses the CLI-style dataset names: "uniform", "clustered", "cities",
/// "cameras", or "csv:<path>". The generator knobs apply to the synthetic
/// sources and are ignored by the rest.
Result<DatasetSpec> ParseDatasetSpec(const std::string& text, size_t n,
                                     size_t dim, uint64_t seed);

/// The metric a dataset is conventionally compared under (Hamming for the
/// categorical cameras catalog, Euclidean for everything else).
MetricKind DefaultMetricFor(DatasetSpec::Source source);

/// A sensible starting radius per source, matching the paper's experiment
/// ranges: 0.01 for the dense cities map, 3 for Hamming over the cameras
/// catalog, 0.05 for the unit-box synthetic workloads.
double DefaultRadiusFor(DatasetSpec::Source source);

/// Materializes the dataset a spec describes. Takes the spec by value so a
/// kProvided dataset is moved, not copied. Fails with the loader's error for
/// kCsv and with InvalidArgument for an empty kProvided dataset.
Result<Dataset> ResolveDataset(DatasetSpec spec);

/// Everything DiscEngine::Create needs: the dataset description, the metric
/// family, and the index construction knobs (including
/// MTreeOptions::build.strategy).
struct EngineConfig {
  DatasetSpec dataset;
  MetricKind metric = MetricKind::kEuclidean;
  MTreeOptions tree;
  /// Worker threads for the engine's parallel read-only passes (the
  /// per-radius neighborhood-count fan-out; see util/parallel.h). 0 means
  /// one per hardware thread; 1 keeps every pass on the original serial
  /// code path. Results and reported stats totals are byte-identical for
  /// every value — threads only change wall time — so this knob is *not*
  /// part of an engine's pooling identity (server/session_manager.h).
  size_t threads = 0;
  /// Which neighbor engine computes N_r(p) (neighbor/backend.h). kExact
  /// keeps the historical M-tree session engine byte-for-byte; every other
  /// kind runs the engine in graph mode — algorithms execute on the
  /// neighborhood graph the backend builds and zooming is unavailable.
  /// Unlike `threads`, this IS part of the pooling identity: a graph-mode
  /// engine's memo (no tree, no zoom state) must never serve an M-tree
  /// session or vice versa.
  NeighborBackendOptions neighbor;
};

}  // namespace disc

#endif  // DISC_ENGINE_CONFIG_H_
