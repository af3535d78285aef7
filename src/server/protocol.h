// The disc_serve wire protocol: newline-delimited commands in, one JSON
// object per line out.
//
// A client session is a sequence of text lines over one TCP connection:
//
//   OPEN dataset=clustered n=1000 dim=2 seed=42 metric=euclidean build=bulk
//   DIVERSIFY r=0.05 algo=greedy
//   ZOOM to=0.025
//   STATS
//   CLOSE
//
// Each command is a verb followed by key=value arguments separated by
// whitespace (so values — including csv:<path> dataset specs — cannot
// contain spaces). Verbs are case-insensitive; keys are not. Unknown verbs
// and unknown keys are rejected, mirroring disc_cli's strict flag handling.
//
// Every command produces exactly one response line: a JSON object with
// "ok" first and "cmd" echoing the verb, then either the result fields or
// an "error"/"code" pair. Solutions serialize as "solution":[id,...] in
// selection order, so two runs of the same deterministic algorithm compare
// byte-identically (the server end-to-end test relies on this).
//
// This header also hosts the server-side decoding of parsed requests into
// the engine's request structs (DecodeOpen/DecodeDiversify/DecodeZoom) and
// the JSON serializers for responses — everything about the wire format in
// one place, so a future transport (HTTP, batching) reuses it unchanged.

#ifndef DISC_SERVER_PROTOCOL_H_
#define DISC_SERVER_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/config.h"
#include "engine/engine.h"
#include "util/status.h"

namespace disc {

/// The five session commands plus the BATCH framing envelope. kClose both
/// answers and ends the lease; a client dropping the connection is an
/// implicit CLOSE. kBatchEnvelope is not a session command: it frames the
/// next n command lines as one request unit (the event loop intercepts it
/// at framing time; a BATCH line reaching command execution — nested
/// inside another batch — is an error).
enum class Verb {
  kOpen,
  kDiversify,
  kZoom,
  kStats,
  kClose,
  kBatchEnvelope,
};

/// "OPEN" / "DIVERSIFY" / "ZOOM" / "STATS" / "CLOSE" / "BATCH".
const char* VerbToString(Verb verb);

/// A parsed command line: the verb plus its key=value arguments. Keys are
/// validated against the verb's vocabulary at parse time, values only when
/// decoded into a typed request.
struct Request {
  Verb verb = Verb::kStats;
  std::map<std::string, std::string> args;
};

/// Parses one command line. InvalidArgument on an empty line, an unknown
/// verb, a malformed token (no '='), a duplicate key, an unknown key for
/// the verb, or a missing required key (OPEN dataset=, DIVERSIFY r=,
/// ZOOM to=).
Result<Request> ParseRequest(const std::string& line);

/// A decoded OPEN: the engine configuration plus the canonical dataset text
/// used for pool keying and response echoing.
struct OpenParams {
  EngineConfig config;
  std::string dataset_text;
  /// True when the client sent backend= explicitly. When false the serving
  /// layer applies its operator default (disc_serve --neighbor-backend=)
  /// before acquiring the lease.
  bool backend_specified = false;
};

/// OPEN's default generator knobs, shared by DecodeOpen and by disc_serve's
/// --prewarm parsing — the two must agree or a prewarmed engine's pool key
/// would never match a default-argument OPEN.
inline constexpr uint64_t kDefaultOpenN = 10000;
inline constexpr uint64_t kDefaultOpenDim = 2;
inline constexpr uint64_t kDefaultOpenSeed = 42;

/// OPEN -> EngineConfig. Defaults mirror disc_cli: n=10000 dim=2 seed=42,
/// metric defaults per dataset (DefaultMetricFor), build=insert.
Result<OpenParams> DecodeOpen(const Request& request);

/// DIVERSIFY -> DiversifyRequest. algo defaults to greedy, pruned to true,
/// quality to false.
Result<DiversifyRequest> DecodeDiversify(const Request& request);

/// DIVERSIFY adapt= (default false): whether the serving layer may answer
/// this request by *adapting* a compatible memoized outcome at a different
/// radius (the paper's §5.2 zoom path) instead of computing cold. Not part
/// of DiversifyRequest — the engine never sees it; PlanCompute
/// (server/handlers.h) decodes it separately. Purely an allowance: with no
/// compatible outcome available the request computes cold.
Result<bool> DecodeDiversifyAdapt(const Request& request);

/// ZOOM -> ZoomRequest. greedy defaults to true, variant to greedy-a
/// (kGreedyMostRed), distances to auto; center switches to local zooming.
Result<ZoomRequest> DecodeZoom(const Request& request);

/// Commands one BATCH envelope may frame (memory bound: a frame is
/// buffered whole before its slots run; larger workloads pipeline multiple
/// batches).
inline constexpr size_t kMaxBatchCommands = 64;

/// BATCH n= -> the framed command count. InvalidArgument when n is 0 or
/// exceeds kMaxBatchCommands.
Result<size_t> DecodeBatchSize(const Request& request);

/// Parses a JSON array of strings — the POST /batch request body, each
/// element one protocol command line. Strict about shape (top-level array,
/// string elements, standard escapes; \uXXXX only for ASCII code points —
/// command lines are ASCII) but tolerant of whitespace. InvalidArgument on
/// anything else.
Result<std::vector<std::string>> ParseJsonStringArray(const std::string& text);

/// Minimal JSON-object builder for one response line. Fields keep insertion
/// order; no nesting beyond the flat object plus integer arrays (all the
/// protocol needs). Doubles serialize shortest-round-trip via
/// std::to_chars, so equal doubles always serialize identically.
class JsonWriter {
 public:
  JsonWriter& Field(const std::string& key, const std::string& value);
  JsonWriter& Field(const std::string& key, const char* value);
  JsonWriter& Field(const std::string& key, bool value);
  JsonWriter& Field(const std::string& key, uint64_t value);
  JsonWriter& Field(const std::string& key, double value);
  /// Appends a preformatted JSON value (array, number) verbatim.
  JsonWriter& RawField(const std::string& key, const std::string& json);

  /// The complete object, e.g. {"ok":true,"cmd":"STATS"}.
  std::string Finish() const;

 private:
  std::string body_;
};

/// Backslash-escapes quotes, backslashes, and control characters.
std::string JsonEscape(const std::string& text);

/// Shortest round-trip decimal form ("0.05", not "0.050000..."); non-finite
/// values serialize as null (JSON has no literal for them).
std::string FormatJsonDouble(double value);

/// "[1,5,9]" in selection order — the byte-comparable core of a response.
std::string SerializeSolution(const std::vector<ObjectId>& solution);

/// The success line for DIVERSIFY / ZOOM. `include_wall_ms` exists so tests
/// can render an expected response without the one machine-dependent field.
std::string SerializeDiversifyResponse(Verb verb,
                                       const DiversifyResponse& response,
                                       bool include_wall_ms = true);

/// The success line for a DIVERSIFY served through §5.2 radius adaptation:
/// identical to SerializeDiversifyResponse(kDiversify, ...) except that
/// "adapted":true and "seed_radius":<r of the memoized seed> follow
/// from_cache, telling the client which cached radius the answer was
/// adapted from. Everything after those two fields — solution, stats —
/// is byte-identical to adopting the seed cold and zooming (the contract
/// tests pin).
std::string SerializeAdaptedResponse(const DiversifyResponse& response,
                                     double seed_radius,
                                     bool include_wall_ms = true);

/// The success line for OPEN: dataset/metric/index echo plus whether the
/// lease reused a pooled engine (warm caches).
std::string SerializeOpen(const EngineSnapshot& snapshot,
                          const std::string& dataset_text, bool reused);

/// The success line for STATS: the full EngineSnapshot.
std::string SerializeSnapshot(const EngineSnapshot& snapshot);

/// The success line for CLOSE.
std::string SerializeClose();

/// An error line: {"ok":false,"cmd":...,"code":...,"error":...}. `cmd` is
/// the verb text when the line parsed, or "?" when it did not.
std::string SerializeError(const std::string& cmd, const Status& status);

}  // namespace disc

#endif  // DISC_SERVER_PROTOCOL_H_
