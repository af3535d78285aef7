// disc_cli — command-line driver for the library.
//
// A thin translator from flags to DiscEngine requests: every flag maps onto
// an EngineConfig field or a DiversifyRequest/ZoomRequest field, and all
// index and algorithm work happens inside the engine.
//
// Usage:
//   disc_cli [--dataset=uniform|clustered|cities|cameras|csv:<path>]
//            [--n=10000] [--dim=2] [--seed=42]
//            [--metric=euclidean|manhattan|chebyshev|hamming]
//            [--algorithm=basic|greedy|greedy-white|lazy-grey|lazy-white|
//                         greedy-c|fast-c]
//            [--build=insert|bulk] [--threads=0] [--radius=0.05]
//            [--neighbor-backend=exact|grid]
//            [--zoom-to=<r'>] [--out=<points.csv>] [--help]
//
// Examples:
//   disc_cli --dataset=cities --radius=0.01 --zoom-to=0.005
//   disc_cli --dataset=csv:points.csv --metric=manhattan --radius=0.1

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "data/dataset.h"
#include "engine/engine.h"
#include "eval/quality.h"
#include "eval/table.h"
#include "util/flags.h"

namespace {

using namespace disc;

constexpr const char* kUsage =
    "usage: disc_cli [--dataset=uniform|clustered|cities|cameras|csv:<path>]\n"
    "                [--n=<count>] [--dim=<dims>] [--seed=<seed>]\n"
    "                [--metric=euclidean|manhattan|chebyshev|hamming]\n"
    "                [--algorithm=basic|greedy|greedy-white|lazy-grey|"
    "lazy-white|greedy-c|fast-c]\n"
    "                [--build=insert|bulk] [--threads=<count>]\n"
    "                [--neighbor-backend=exact|grid]\n"
    "                [--radius=<r>] [--zoom-to=<r'>] [--out=<points.csv>]\n"
    "                [--help]\n"
    "\n"
    "--threads: worker threads for the engine's parallel passes (0 = one\n"
    "           per hardware thread, 1 = serial; results are byte-identical\n"
    "           either way).\n"
    "--neighbor-backend: the neighbor engine computing N_r(p). 'exact'\n"
    "           (default) is the M-tree session engine; 'grid' runs in\n"
    "           graph mode (algorithms basic/greedy/greedy-c only, no\n"
    "           --zoom-to) on the same exact graph and opens million-point\n"
    "           workloads in dims 1-3 (non-Hamming).\n";

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  std::exit(1);
}

// Unwraps a parsed flag value or exits with the parse error.
template <typename T>
T FlagValueOrDie(const Result<T>& result) {
  if (!result.ok()) Fail(result.status().ToString());
  return *result;
}

}  // namespace

int main(int argc, char** argv) {
  // The full flag vocabulary; anything else is rejected with the usage text.
  auto flags_or = ParseFlagArgs(
      argc, argv,
      {"dataset", "n", "dim", "seed", "metric", "algorithm", "build",
       "threads", "neighbor-backend", "radius", "zoom-to", "out", "help"});
  if (!flags_or.ok()) {
    std::fprintf(stderr, "%s\n%s", flags_or.status().message().c_str(),
                 kUsage);
    return 2;
  }
  auto flags = std::move(flags_or).value();
  if (flags.count("help")) {
    std::printf("%s", kUsage);
    return 0;
  }

  // ---- flags -> EngineConfig ----
  const std::string which = FlagOr(flags, "dataset", "clustered");
  const size_t n = FlagValueOrDie(FlagUint(flags, "n", 10000));
  const size_t dim = FlagValueOrDie(FlagUint(flags, "dim", 2));
  const uint64_t seed = FlagValueOrDie(FlagUint(flags, "seed", 42));

  EngineConfig config;
  auto spec = ParseDatasetSpec(which, n, dim, seed);
  if (!spec.ok()) Fail(spec.status().ToString());
  config.dataset = std::move(spec).value();
  const DatasetSpec::Source source = config.dataset.source;

  auto metric_kind = ParseMetricKind(
      FlagOr(flags, "metric", MetricKindToString(DefaultMetricFor(source))));
  if (!metric_kind.ok()) Fail(metric_kind.status().ToString());
  config.metric = *metric_kind;

  const std::string build = FlagOr(flags, "build", "insert");
  if (build == "bulk") {
    config.tree.build.strategy = BuildStrategy::kBulkLoad;
  } else if (build != "insert") {
    Fail("unknown build strategy '" + build + "' (want insert or bulk)");
  }
  config.threads = FlagValueOrDie(FlagUint(flags, "threads", 0));

  if (flags.count("neighbor-backend")) {
    auto backend = ParseNeighborBackendKind(flags["neighbor-backend"]);
    if (!backend.ok()) {
      // An unknown backend is a usage error (exit 2 + usage text), the
      // same contract as an unknown flag — never a silent default.
      std::fprintf(stderr, "%s\n%s", backend.status().message().c_str(),
                   kUsage);
      return 2;
    }
    config.neighbor.kind = *backend;
  }

  // ---- engine ----
  auto engine_or = DiscEngine::Create(std::move(config));
  if (!engine_or.ok()) Fail(engine_or.status().ToString());
  DiscEngine& engine = **engine_or;

  // ---- flags -> DiversifyRequest ----
  DiversifyRequest request;
  auto algorithm =
      ParseAlgorithm(FlagOr(flags, "algorithm", "greedy"));
  if (!algorithm.ok()) Fail(algorithm.status().ToString());
  request.algorithm = *algorithm;
  request.radius =
      FlagValueOrDie(FlagDouble(flags, "radius", DefaultRadiusFor(source)));
  if (request.radius < 0) Fail("radius must be non-negative");
  request.compute_quality = true;

  auto response_or = engine.Diversify(request);
  if (!response_or.ok()) Fail(response_or.status().ToString());
  DiversifyResponse response = std::move(response_or).value();

  // ---- report ----
  const Dataset& dataset = engine.dataset();
  TablePrinter table("DisC diversification result");
  table.SetHeader({"property", "value"});
  table.AddRow({"dataset", which + " (" + std::to_string(dataset.size()) +
                               " objects, dim " +
                               std::to_string(dataset.dim()) + ")"});
  table.AddRow({"metric", engine.metric().name()});
  table.AddRow({"index build", build});
  table.AddRow({"algorithm", AlgorithmToString(request.algorithm)});
  table.AddRow({"radius", FormatDouble(request.radius, 6)});
  table.AddRow({"solution size", std::to_string(response.size())});
  table.AddRow(
      {"node accesses", std::to_string(response.stats.node_accesses)});
  table.AddRow(
      {"range queries", std::to_string(response.stats.range_queries)});
  table.AddRow({"wall ms", FormatDouble(response.wall_ms, 4)});
  const QualityMetrics& quality = *response.quality;
  table.AddRow({"coverage@r", FormatDouble(quality.coverage, 4)});
  table.AddRow({"fMin", FormatDouble(quality.f_min, 5)});
  Status valid = quality.verification;
  table.AddRow({"verified", valid.ok() ? "OK" : valid.ToString()});
  table.Print();

  // ---- optional zoom ----
  const double zoom_to =
      FlagValueOrDie(FlagDouble(flags, "zoom-to", request.radius));
  if (flags.count("zoom-to") && zoom_to == request.radius) {
    std::printf("zoom-to equals the current radius; nothing to adapt\n");
  } else if (flags.count("zoom-to")) {
    ZoomRequest zoom;
    zoom.radius = zoom_to;
    zoom.compute_quality = true;
    auto zoomed_or = engine.Zoom(zoom);
    if (!zoomed_or.ok()) Fail(zoomed_or.status().ToString());
    DiversifyResponse zoomed = std::move(zoomed_or).value();
    double jd = JaccardDistance(response.solution, zoomed.solution);
    TablePrinter zoom_table("After zooming to r' = " +
                            FormatDouble(zoom.radius, 6));
    zoom_table.SetHeader({"property", "value"});
    zoom_table.AddRow({"solution size", std::to_string(zoomed.size())});
    zoom_table.AddRow(
        {"node accesses", std::to_string(zoomed.stats.node_accesses)});
    zoom_table.AddRow({"jaccard distance to previous", FormatDouble(jd, 4)});
    Status zoom_valid = zoomed.quality->verification;
    zoom_table.AddRow(
        {"verified", zoom_valid.ok() ? "OK" : zoom_valid.ToString()});
    zoom_table.Print();
    response = std::move(zoomed);
  }

  // ---- optional CSV of points + selection markers ----
  if (flags.count("out")) {
    Status s = SavePointsCsv(flags["out"], dataset, &response.solution);
    if (!s.ok()) Fail(s.ToString());
    std::printf("wrote %s (x0..x%zu, selected)\n", flags["out"].c_str(),
                dataset.dim() - 1);
  }
  return valid.ok() ? 0 : 1;
}
