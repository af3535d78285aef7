// Per-verb execution for the DiscServer event loop.
//
// The loop threads the single-flight table between the pieces, so they
// stay separate: DispatchFastPath answers every command that needs no
// engine job, PlanCompute derives a request's coalescing key and
// adaptation family *before* any engine work, the session manager's
// JoinFlight decides from them (memo hit, follower, or leader — cold or
// seeded), and ExecuteOpen / RunCompute are what a compute worker
// executes. A single command and a BATCH slot run through the same
// pieces, which is what makes a batch's bytes equal sequential bytes.

#ifndef DISC_SERVER_HANDLERS_H_
#define DISC_SERVER_HANDLERS_H_

#include <cstddef>
#include <memory>
#include <string>

#include "server/protocol.h"
#include "server/session_manager.h"

namespace disc {

/// Dependencies a verb handler needs, independent of transport.
struct CommandContext {
  SessionManager* manager = nullptr;
  /// ServerOptions::engine_threads, applied to every engine an OPEN builds
  /// (the knob is the operator's, not the client's: it changes wall time
  /// only, so it stays out of the wire vocabulary and the pool key).
  size_t engine_threads = 0;
  /// ServerOptions::default_backend: the neighbor backend applied when the
  /// client's OPEN carries no backend= key. Unlike engine_threads this
  /// changes results, so it IS in the wire vocabulary and the pool key.
  NeighborBackendKind default_backend = NeighborBackendKind::kExact;
  /// ServerOptions::max_exact_points, stamped onto every OPEN-built config:
  /// over larger datasets the slower backend for the input is refused with
  /// InvalidArgument (CheckExactPointCap) instead of risking an O(n^2) scan
  /// or an oversized index taking the daemon down. 0 = unlimited.
  size_t max_exact_points = 0;
};

/// OPEN: decodes, applies the operator thread knob, acquires a lease. On
/// success installs the lease into `*lease` and returns the OPEN response
/// line; on failure returns the error line and leaves `*lease` untouched.
/// The caller is responsible for the already-open precondition.
std::string ExecuteOpen(const CommandContext& ctx, const Request& request,
                        EngineLease* lease);

/// A decoded DIVERSIFY or ZOOM plus its single-flight identity.
struct ComputePlan {
  Verb verb = Verb::kDiversify;
  DiversifyRequest diversify;
  ZoomRequest zoom;
  /// Canonical coalescing key: pool key + verb + canonical parameters
  /// (+ the session fingerprint for ZOOM, whose result depends on the
  /// state the session is in). Equal keys imply interchangeable response
  /// lines. Empty when the request must not be coalesced: an unpoolable
  /// engine, a DIVERSIFY this engine can answer from its own solution
  /// cache (kept local so from_cache stays honest), or a ZOOM with no
  /// zoomable session to fingerprint. Requests that allow adaptation get a
  /// distinct key suffix — an adapted response line differs from a cold
  /// one, so the two populations must never share a flight.
  std::string flight_key;
  /// True when the client allowed §5.2 radius adaptation (DIVERSIFY
  /// adapt=true) and this request is eligible (coalescable, DisC-family).
  bool adapt = false;
  /// The request's radius-compatibility family: flight key minus radius
  /// (pool key + algorithm + pruning; quality excluded — it changes the
  /// response line but not the session state a seed capsule carries, and
  /// RunCompute re-applies the request's own quality flag). Non-empty for
  /// every coalescable DisC-family DIVERSIFY — it marks the outcome as a
  /// future adaptation seed even when this client did not ask to adapt.
  std::string adapt_family;
  /// The seed JoinFlight picked (kSeeded: a memoized outcome; kRider: the
  /// in-flight cold leader's capsule once it lands, null if that leader
  /// failed): RunCompute then adopts the capsule and zooms to the request
  /// radius (DiscEngine::AdaptFrom) instead of computing cold.
  std::shared_ptr<DiscEngine::SessionCapsule> seed;
  double seed_radius = 0.0;
};

/// Decodes a DIVERSIFY/ZOOM request and derives its flight key against the
/// session `lease` currently holds. Fails with the decoder's error. The
/// caller is responsible for the session-open precondition.
Result<ComputePlan> PlanCompute(const Request& request, EngineLease& lease);

/// What a computation produced: the full response line (success or error)
/// and whether the engine call succeeded — when true, the engine's session
/// now encodes the result and ExportSession() is meaningful.
struct ComputeResult {
  std::string response;
  bool ok = false;
  /// True when the result is a successful *cold* DIVERSIFY of a zoomable
  /// DisC-family solution: the exported capsule may seed radius adaptation
  /// (FinishFlight's `seedable`).
  bool seedable = false;
};

/// Runs the planned computation on `engine` and serializes the outcome.
ComputeResult RunCompute(const ComputePlan& plan, DiscEngine& engine);

/// The synchronous half of per-command dispatch: answers every command
/// that needs no engine job — precondition failures (OPEN with a session
/// open, compute/STATS/CLOSE without one), STATS, CLOSE, and a BATCH
/// envelope reaching command execution (a nested frame) — and returns true
/// with `*response` set. Returns false (response untouched) exactly when
/// the command is an OPEN or a DIVERSIFY/ZOOM whose preconditions hold:
/// the caller runs ExecuteOpen or PlanCompute+RunCompute on a worker.
bool DispatchFastPath(const Request& request, EngineLease* lease,
                      std::string* response);

}  // namespace disc

#endif  // DISC_SERVER_HANDLERS_H_
