#include "server/handlers.h"

#include <string>
#include <utility>

#include "core/disc_algorithms.h"

namespace disc {

namespace {

/// The coalescing key for a DIVERSIFY. Greedy-C / Fast-C ignore the pruned
/// flag, so it is normalized out (mirroring the engine's cache key) — the
/// same request text must never lead two flights.
std::string DiversifyFlightKey(const std::string& pool_key,
                               const DiversifyRequest& request, bool adapt) {
  if (pool_key.empty()) return "";
  const bool covering = request.algorithm == Algorithm::kGreedyC ||
                        request.algorithm == Algorithm::kFastC;
  const bool pruned = covering ? false : request.pruned;
  std::string key = pool_key;
  key += "|D|";
  key += AlgorithmToString(request.algorithm);
  key += "|";
  key += FormatJsonDouble(request.radius);
  key += pruned ? "|p1" : "|p0";
  key += request.compute_quality ? "|q1" : "|q0";
  // Adapt-eligible requests may be answered with an adapted line
  // ("adapted":true, different stats); plain requests never may. The two
  // populations coalesce among themselves but must not share a flight.
  if (adapt) key += "|a1";
  return key;
}

/// The radius-compatibility family for a DIVERSIFY (ComputePlan's
/// adapt_family): the flight key minus radius, quality, and the adapt
/// marker. Empty for covering-only algorithms — their solutions are not
/// zoomable, so they can neither seed nor receive adaptation.
std::string AdaptFamilyKey(const std::string& pool_key,
                           const DiversifyRequest& request) {
  if (pool_key.empty() || !IsDiscFamily(request.algorithm)) return "";
  std::string key = pool_key;
  key += "|DF|";
  key += AlgorithmToString(request.algorithm);
  key += request.pruned ? "|p1" : "|p0";
  return key;
}

/// The coalescing key for a ZOOM: everything the zoom result depends on —
/// the session state (fingerprint) plus every request knob. `fingerprint`
/// must be non-empty (the caller checks).
std::string ZoomFlightKey(const std::string& pool_key,
                          const std::string& fingerprint,
                          const ZoomRequest& request) {
  if (pool_key.empty()) return "";
  std::string key = pool_key;
  key += "|Z|";
  key += fingerprint;
  key += "|";
  key += FormatJsonDouble(request.radius);
  key += request.greedy ? "|g1" : "|g0";
  key += "|v" + std::to_string(static_cast<int>(request.zoom_out_variant));
  if (request.center.has_value()) {
    key += "|c" + std::to_string(*request.center);
  }
  key += request.distances == DistancePolicy::kRequireExact ? "|de" : "|da";
  key += request.compute_quality ? "|q1" : "|q0";
  return key;
}

}  // namespace

std::string ExecuteOpen(const CommandContext& ctx, const Request& request,
                        EngineLease* lease) {
  const char* cmd = VerbToString(Verb::kOpen);
  Result<OpenParams> params = DecodeOpen(request);
  if (!params.ok()) return SerializeError(cmd, params.status());
  params->config.threads = ctx.engine_threads;
  if (!params->backend_specified) {
    params->config.neighbor.kind = ctx.default_backend;
  }
  params->config.neighbor.max_exact_points = ctx.max_exact_points;
  Result<EngineLease> acquired = ctx.manager->Acquire(params->config);
  if (!acquired.ok()) return SerializeError(cmd, acquired.status());
  *lease = std::move(acquired).value();
  return SerializeOpen(lease->engine().Snapshot(), params->dataset_text,
                       lease->reused());
}

Result<ComputePlan> PlanCompute(const Request& request, EngineLease& lease) {
  ComputePlan plan;
  plan.verb = request.verb;
  if (request.verb == Verb::kDiversify) {
    DISC_ASSIGN_OR_RETURN(plan.diversify, DecodeDiversify(request));
    DISC_ASSIGN_OR_RETURN(plan.adapt, DecodeDiversifyAdapt(request));
    // An engine that can answer from its own solution cache serves the
    // request locally (zero index work, honest from_cache): replaying a
    // coalesced from_cache=false line would misreport the work done — and
    // a cache hit beats adaptation, so adapt is moot there too.
    if (!lease.engine().HasCachedDiversify(plan.diversify)) {
      plan.adapt_family = AdaptFamilyKey(lease.key(), plan.diversify);
      // Graph-mode engines (any non-exact backend) hold no tree color
      // state, so their outcomes can neither seed nor receive §5.2 radius
      // adaptation; they still coalesce by exact flight key.
      if (lease.engine().Snapshot().backend != NeighborBackendKind::kExact) {
        plan.adapt_family.clear();
      }
      if (plan.adapt_family.empty()) plan.adapt = false;
      plan.flight_key =
          DiversifyFlightKey(lease.key(), plan.diversify, plan.adapt);
    } else {
      plan.adapt = false;
    }
    return plan;
  }
  DISC_ASSIGN_OR_RETURN(plan.zoom, DecodeZoom(request));
  const std::string fingerprint = lease.engine().SessionFingerprint();
  if (!fingerprint.empty()) {
    plan.flight_key = ZoomFlightKey(lease.key(), fingerprint, plan.zoom);
  }
  return plan;
}

ComputeResult RunCompute(const ComputePlan& plan, DiscEngine& engine) {
  ComputeResult result;
  if (plan.verb == Verb::kDiversify && plan.seed != nullptr) {
    // §5.2 radius adaptation: adopt the seed capsule and zoom to the
    // requested radius with the canonical deterministic knobs (greedy,
    // greedy-a, distances=auto — DecodeZoom's defaults), re-applying this
    // request's own quality flag. Byte-identical to running the same chain
    // cold — the engine contract AdaptFrom documents.
    ZoomRequest zoom;
    zoom.radius = plan.diversify.radius;
    zoom.compute_quality = plan.diversify.compute_quality;
    Result<DiversifyResponse> adapted = engine.AdaptFrom(*plan.seed, zoom);
    if (adapted.ok()) {
      result.response = SerializeAdaptedResponse(*adapted, plan.seed_radius);
      result.ok = true;
      return result;
    }
    // Seed unusable (e.g. it cannot zoom to this radius): fall through to
    // an honest cold computation — Diversify resets the session state the
    // failed adoption left behind.
  }
  Result<DiversifyResponse> response =
      plan.verb == Verb::kDiversify ? engine.Diversify(plan.diversify)
                                    : engine.Zoom(plan.zoom);
  if (!response.ok()) {
    result.response =
        SerializeError(VerbToString(plan.verb), response.status());
    return result;
  }
  result.response = SerializeDiversifyResponse(plan.verb, *response);
  result.ok = true;
  result.seedable =
      plan.verb == Verb::kDiversify && !plan.adapt_family.empty();
  return result;
}

bool DispatchFastPath(const Request& request, EngineLease* lease,
                      std::string* response) {
  const char* cmd = VerbToString(request.verb);
  switch (request.verb) {
    case Verb::kOpen: {
      if (lease->valid()) {
        *response = SerializeError(
            cmd, Status::FailedPrecondition(
                     "a session is already open on this connection; CLOSE "
                     "it first"));
        return true;
      }
      return false;
    }
    case Verb::kDiversify:
    case Verb::kZoom: {
      if (!lease->valid()) {
        *response = SerializeError(
            cmd, Status::FailedPrecondition("no session open; OPEN first"));
        return true;
      }
      return false;
    }
    case Verb::kStats: {
      if (!lease->valid()) {
        *response = SerializeError(
            cmd, Status::FailedPrecondition("no session open; OPEN first"));
        return true;
      }
      *response = SerializeSnapshot(lease->engine().Snapshot());
      return true;
    }
    case Verb::kClose: {
      if (!lease->valid()) {
        *response =
            SerializeError(cmd, Status::FailedPrecondition("no session open"));
        return true;
      }
      lease->Release();
      *response = SerializeClose();
      return true;
    }
    case Verb::kBatchEnvelope: {
      // The loop intercepts BATCH at framing time; one reaching command
      // execution is a batch inside a batch.
      *response = SerializeError(
          cmd, Status::InvalidArgument(
                   "BATCH is a framing envelope and cannot be nested"));
      return true;
    }
  }
  *response = SerializeError(cmd, Status::InvalidArgument("unhandled verb"));
  return true;
}

}  // namespace disc
