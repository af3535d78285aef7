// The traced run's in-process half: replays a traced phase's requests
// against the layers' public functions, then probes each layer on the
// workload's main dataset. Every call is timed from outside the layer and
// recorded as a span; nothing inside src/ is instrumented.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

/// Every per-layer metric of BENCHMARK.json except the serving-layer ratios
/// and the tracing overhead, which come from the served phases.
Metrics ReplayLayers(const Workload& workload, uint64_t seed,
                     const std::vector<SessionRun>& sessions, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
