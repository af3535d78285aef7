// Minimal, dependency-free HTTP/1.1 support for the disc_serve event loop.
//
// The HTTP transport is a *framing* layer, nothing more: each request maps
// onto exactly one protocol command line (server/protocol.h) and each
// response body is exactly the one JSON line (plus its trailing newline)
// the line protocol would have produced — so the two transports cannot
// drift, and a bench can byte-compare an HTTP body against a direct engine
// call. One keep-alive connection is one session, mirroring the line
// protocol's connection-is-a-session model (OPEN leases an engine to the
// connection; dropping it is an implicit CLOSE).
//
// Mapping (docs/PROTOCOL.md is the normative spec):
//   POST /open       body: "dataset=clustered n=500 ..."   -> OPEN ...
//   POST /diversify  body: "r=0.05 algo=greedy"            -> DIVERSIFY ...
//   POST /zoom       body: "to=0.025"                      -> ZOOM ...
//   POST /stats      (GET also accepted; read-only)        -> STATS
//   POST /close                                            -> CLOSE
//
// POST /batch is the exception to one-request-one-command: its body is a
// JSON array of command strings and its 200 response body is one protocol
// line per command, in order (the event loop expands it into batch slots
// directly, so it never flows through the one-command mapping below). Envelope-level failures answer a single
// error line under cmd "BATCH" with the usual status mapping.
//
// The HTTP status code is derived from the response line itself
// (HttpStatusForProtocolLine): "ok":true is 200, a Busy rejection is 503
// with a Retry-After header, InvalidArgument is 400, FailedPrecondition is
// 409, NotFound is 404 — the JSON body stays authoritative either way.
//
// The parser is incremental (feed it the connection's read buffer whenever
// bytes arrive) and hardened the same way the line transport is: a bounded
// head, a bounded body (Content-Length or chunked), and a hard error state
// after any malformed input — the caller answers 400 and closes.

#ifndef DISC_SERVER_HTTP_H_
#define DISC_SERVER_HTTP_H_

#include <cstddef>
#include <string>

#include "util/status.h"

namespace disc {

/// Request line + headers may not exceed this (DoS bound, like the line
/// transport's 1 MiB line cap — heads are far smaller than bodies).
inline constexpr size_t kMaxHttpHeadBytes = 64 << 10;
/// Decoded body bytes per request (Content-Length or summed chunks); the
/// same bound as the line transport's maximum command line.
inline constexpr size_t kMaxHttpBodyBytes = 1 << 20;

/// One parsed request. `keep_alive` resolves the Connection header against
/// the version's default (HTTP/1.1 persists, HTTP/1.0 closes).
struct HttpRequest {
  std::string method;
  std::string target;
  bool keep_alive = true;
  std::string body;
};

/// Incremental request parser for one connection. Call Consume with the
/// connection's read buffer whenever bytes arrive; it removes the bytes it
/// consumed. Returns kRequest once per complete request (pipelined
/// requests: keep calling), kNeedMore when the buffer ran dry mid-request,
/// and kError after malformed input — the parser then stays failed (the
/// connection cannot be resynchronized) and error() describes why.
class HttpParser {
 public:
  enum class Step { kNeedMore, kRequest, kError };

  Step Consume(std::string* buffer, HttpRequest* request);

  /// Why the parser failed (meaningful after kError).
  const Status& error() const { return error_; }

  /// True once per request that carried "Expect: 100-continue" and whose
  /// body has not completed yet — the caller should emit the interim
  /// "HTTP/1.1 100 Continue" response so the client sends the body.
  bool TakeExpectContinue();

 private:
  enum class State {
    kHead,
    kBody,
    kChunkSize,
    kChunkData,
    kChunkDataEnd,
    kChunkTrailer,
    kFailed,
  };

  Step Fail(Status status);
  /// Parses the request line + headers out of `head` (terminator already
  /// stripped) into current_; decides the body state.
  Status ParseHead(const std::string& head);
  Step Emit(HttpRequest* request);

  State state_ = State::kHead;
  HttpRequest current_;
  /// kBody: Content-Length bytes still owed. kChunkData: bytes left in the
  /// current chunk.
  size_t body_remaining_ = 0;
  bool chunked_ = false;
  bool expect_continue_ = false;
  Status error_;
};

/// A complete response: status line, Content-Type/Content-Length/Connection
/// headers (plus Retry-After when `retry_after_seconds` > 0), and `body`.
std::string WriteHttpResponse(int status_code, const std::string& body,
                              bool keep_alive, int retry_after_seconds = 0);

/// The HTTP status for a serialized protocol response line: 200 for
/// "ok":true, otherwise mapped from the line's "code" field (Busy -> 503,
/// InvalidArgument -> 400, NotFound -> 404, FailedPrecondition -> 409,
/// Unimplemented -> 501, anything else -> 500).
int HttpStatusForProtocolLine(const std::string& line);

/// "OK", "Bad Request", ... for the codes this server emits.
const char* HttpReasonPhrase(int status_code);

/// Maps a parsed request onto its protocol command line ("OPEN ...").
/// NotFound for an unknown path (-> 404), InvalidArgument for a method the
/// endpoint does not accept (POST everywhere, GET additionally on /stats).
/// Newlines and carriage returns in the body become spaces — the body is
/// the command's whitespace-separated key=value argument list.
Result<std::string> HttpRequestToCommandLine(const HttpRequest& request);

}  // namespace disc

#endif  // DISC_SERVER_HTTP_H_
