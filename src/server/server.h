// DiscServer: the long-lived disc_serve daemon core.
//
// One transport: a single epoll-driven loop thread owns every connection
// (non-blocking sockets, per-connection read/write buffers) and hands
// engine work — OPEN builds plus DIVERSIFY/ZOOM computations — to a fixed
// pool of compute workers. Identical concurrent computations are
// *coalesced* through the session manager's single-flight table: one
// leader computes, every follower receives the byte-identical response
// line and adopts the leader's session state. DIVERSIFY adapt=true widens
// this radius-aware: one seed rule — the closest radius over memoized and
// in-flight cold solves of the same family — seeds the answer through the
// engine's §5.2 zoom adaptation, run as the request's own job
// (docs/PROTOCOL.md §6). Admission control bounds the work the loop will
// queue (max_pending beyond one executing job per worker); excess requests
// that would compute — OPEN builds and adapting riders included — are
// answered with a BUSY error line instead of growing an unbounded backlog.
// The loop speaks the line protocol and HTTP/1.1
// (server/http.h), auto-detected per connection: one POST per command,
// same JSON per response body, BUSY as 503 + Retry-After. A BATCH frame is
// framing only: its slots run through the same per-command path.
//
// Concurrency model in one sentence: sessions are sharded across engines,
// an engine is never shared while leased, and all cross-thread state lives
// in the session manager (pool + single-flight table) or the event loop's
// own mutex-guarded queues.
//
// The server runs entirely in background threads: Start() returns once the
// socket is listening, and Shutdown() (or destruction) stops accepting,
// drains in-flight work, and joins every thread. Tests run it in-process;
// disc_serve.cc wraps it in a binary.

#ifndef DISC_SERVER_SERVER_H_
#define DISC_SERVER_SERVER_H_

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/config.h"

#include "server/session_manager.h"
#include "util/status.h"

namespace disc {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back via port().
  int port = 0;
  /// Compute worker threads (connection count is unbounded by threads).
  size_t workers = 4;
  /// Idle engines kept warm by the session manager (LRU beyond this).
  size_t max_idle_engines = 8;
  /// EngineConfig::threads for every engine this server builds (each
  /// leased engine fans its read-only passes out across its own pool).
  /// 0 = one per hardware thread; 1 = serial engines. Results are
  /// byte-identical either way, so this never affects protocol output.
  size_t engine_threads = 0;
  /// Engines to pre-build into the idle pool before Start() returns
  /// (SessionManager::Prewarm): the first OPEN of a hot dataset then
  /// leases a warm engine instead of paying the index build. The builds
  /// run concurrently, so warm-up costs max(build), not sum.
  std::vector<EngineConfig> prewarm;
  /// Admission control: compute jobs (OPEN builds and leader
  /// DIVERSIFY/ZOOM computations) the loop will hold beyond the ones
  /// currently executing, at most one per worker. A request arriving with
  /// `workers` executing and max_pending queued is answered with a BUSY
  /// error line. Followers
  /// joining an in-flight computation and memo hits are exempt — they
  /// consume no compute slot; a request adapting from an in-flight seed
  /// computes, so it holds one from arrival. A BATCH slot is admitted like
  /// a single command.
  size_t max_pending = 64;
  /// The neighbor backend applied to OPENs that carry no backend= key
  /// (disc_serve --neighbor-backend=). Part of the pool key off the
  /// default: M-tree and graph-mode engines never share memoized results.
  NeighborBackendKind default_backend = NeighborBackendKind::kExact;
  /// Guardrail over the two backends: an OPEN whose dataset exceeds this
  /// many points is refused with InvalidArgument when it asks for the
  /// slower kind for its input — exact where the grid applies, grid where
  /// the grid would fall back to an O(n^2) scan — instead of a build that
  /// could take the daemon down (CheckExactPointCap, neighbor/backend.h).
  /// The refusal names the other kind, the supported way past the cap.
  /// 0 = unlimited (disc_serve --max-exact-points=).
  size_t max_exact_points = 262144;
};

/// Transport-level counters (the session manager has its own stats).
struct ServerStats {
  size_t connections_accepted = 0;
  /// Requests refused by admission control with a BUSY error line.
  size_t busy_rejections = 0;
  /// Responses fanned out from another connection's computation (flight
  /// followers plus memoized-outcome hits).
  size_t coalesced_responses = 0;
  size_t active_connections = 0;
  /// Requests framed over HTTP.
  size_t http_requests = 0;
};

class DiscServer {
 public:
  /// Binds, listens, prewarms, and spawns the event loop and its workers.
  /// Fails with the socket error (e.g. a taken port).
  static Result<std::unique_ptr<DiscServer>> Start(ServerOptions options);

  DiscServer(const DiscServer&) = delete;
  DiscServer& operator=(const DiscServer&) = delete;

  virtual ~DiscServer() = default;

  /// The bound port (resolves port 0).
  int port() const { return port_; }

  /// Stops accepting, drains or disconnects in-flight clients, joins all
  /// threads. Idempotent.
  virtual void Shutdown() = 0;

  /// Pool observability (used by tests and the daemon's exit log).
  SessionManagerStats manager_stats() const { return manager_.stats(); }

  /// Transport observability.
  virtual ServerStats server_stats() const = 0;

 protected:
  explicit DiscServer(ServerOptions options)
      : options_(std::move(options)),
        manager_(options_.max_idle_engines) {}

  /// Binds + listens and runs the configured prewarm.
  Status Listen();

  ServerOptions options_;
  SessionManager manager_;

  int listen_fd_ = -1;
  int port_ = 0;
};

}  // namespace disc

#endif  // DISC_SERVER_SERVER_H_
