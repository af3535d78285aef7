// The self-check: every response of a measured phase against a direct
// DiscEngine replica of the same session, computed after the timed window.

#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

struct CheckResult {
  size_t attempted = 0;  // commands sent
  size_t ok = 0;         // answered ok and matching the replica
  size_t errors = 0;     // error lines, BUSY included
  size_t busy = 0;
  size_t mismatches = 0;
  std::string first_failure;
};

/// On deterministic workloads a DIVERSIFY/ZOOM line must equal the
/// replica's serialization byte for byte (wall_ms aside). On hot-adapt the
/// served answer may be a cache hit, a memo hit, or an adaptation from
/// `seed_radius`, so only the solution and radius are compared, against the
/// replica's Diversify(r) or Diversify(seed_radius) -> Zoom(r) chain.
CheckResult CheckSessions(const Workload& workload,
                          const std::vector<SessionRun>& sessions,
                          size_t threads);

/// Totals over the DIVERSIFY/ZOOM answers of the first
/// `workload.counted_sessions` sessions of every client.
struct Counters {
  uint64_t node_accesses = 0;
  uint64_t distance_computations = 0;
  uint64_t range_queries = 0;
  uint64_t checksum = 0xcbf29ce484222325ULL;  // FNV-1a over the solutions
  size_t responses = 0;

  std::string ToString() const;
};

Counters CountSessions(const Workload& workload,
                       const std::vector<SessionRun>& sessions);

/// Helpers over one response line.
std::string StripWallMs(const std::string& line);
bool FieldU64(const std::string& line, const std::string& key,
              uint64_t* value);
bool FieldDouble(const std::string& line, const std::string& key,
                 double* value);
std::string SolutionText(const std::string& line);
std::string VerbOf(const std::string& command);

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
