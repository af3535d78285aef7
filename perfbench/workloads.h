// The benchmark's traffic: three workloads, each a deterministic function of
// (seed, client, session index). The daemon only ever sees the generated
// command lines.
//
//   cold-sessions  OPEN -> DIVERSIFY -> ZOOM in -> ZOOM out -> local ZOOM ->
//                  CLOSE over the paper's four dataset families; every radius
//                  is fresh, so no cache, memo, coalescing or adaptation fires.
//   hot-adapt      one shared dataset, DIVERSIFY adapt=true over a Zipf-skewed
//                  grid of 64 (algorithm, radius) keys, twice the server memo.
//                  Not in BENCHMARK.json: its millisecond answers move with
//                  the host's speed more than any regression bound allows.
//   open-churn     OPEN -> DIVERSIFY (-> ZOOM in -> ZOOM out on exact-backend
//                  sessions) -> CLOSE cycling over 24 pool keys, three times
//                  the idle engine pool.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Framing { kLine, kHttp, kBatch };
const char* FramingName(Framing framing);

/// One unit a client sends and waits for: a single command (line or HTTP
/// framing) or a BATCH frame of several commands.
struct Exchange {
  Framing framing = Framing::kLine;
  std::vector<std::string> lines;
};

/// One session: OPEN first, CLOSE last, both inside `exchanges`.
struct Session {
  std::vector<Exchange> exchanges;
};

enum class WorkloadKind { kColdSessions, kHotAdapt, kOpenChurn };

struct Workload {
  WorkloadKind kind;
  const char* name;
  /// Radii never repeat within a run: the deterministic counters of the
  /// first `counted_sessions` sessions per client must match exactly
  /// between runs of one build.
  bool deterministic;
  /// Sessions per client summed into the deterministic counters; each
  /// client always completes at least this many.
  size_t counted_sessions;
};

/// Looks a workload up by its BENCHMARK.json name; nullptr when unknown.
const Workload* FindWorkload(const std::string& name);

/// Closed-loop connections; one per core of the benchmark's 4-core host.
inline constexpr size_t kClients = 4;

/// The framing client `client` uses for the whole run (line connections
/// also carry the BATCH frames).
Framing ClientFraming(const Workload& workload, size_t client);

/// The k-th session of `client`: a pure function of its arguments.
Session MakeSession(const Workload& workload, uint64_t seed, size_t client,
                    size_t k);

/// The set-up's warm-up leases: per connection, rounds of an OPEN plus
/// any commands after it. All connections hold round i's lease at once
/// before closing it, so the idle pool ends with the same engines each run.
using WarmupRounds = std::vector<std::vector<std::string>>;
std::vector<WarmupRounds> WarmupLeases(const Workload& workload);

/// The traced replay's layer probes: OPEN arguments of the workload's main
/// dataset (exact backend, insert build) and three radii the workload
/// issues on it.
std::string ProbeOpen(const Workload& workload);
std::vector<double> ProbeRadii(const Workload& workload, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
