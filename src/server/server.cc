// DiscServer::Listen: bind, listen, and prewarm. DiscServer::Start and
// the event loop it runs live in event_server.cc.

#include "server/server.h"

#include <vector>

#include "server/net.h"

namespace disc {

Status DiscServer::Listen() {
  DISC_ASSIGN_OR_RETURN(listen_fd_, ListenTcp(options_.host, options_.port));
  DISC_ASSIGN_OR_RETURN(port_, ListenPort(listen_fd_));
  // Pre-build the configured hot engines into the idle pool before serving;
  // the builds overlap on a temporary pool instead of serializing on each
  // dataset's first OPEN. Build concurrency is deliberately NOT tied to
  // engine_threads (a knob for per-request passes): warm-up is a one-shot
  // startup burst, so it always uses the hardware (threads=0) even when
  // the operator wants serial engines. A prewarm failure is a startup
  // error: the operator asked for those datasets by name.
  if (!options_.prewarm.empty()) {
    std::vector<EngineConfig> prewarm = options_.prewarm;
    for (EngineConfig& config : prewarm) {
      config.threads = options_.engine_threads;
      // Same backend defaulting as ExecuteOpen, or the prewarmed pool key
      // would never match a default-argument OPEN.
      if (config.neighbor.kind == NeighborBackendKind::kExact) {
        config.neighbor.kind = options_.default_backend;
      }
      config.neighbor.max_exact_points = options_.max_exact_points;
    }
    DISC_RETURN_NOT_OK(manager_.Prewarm(prewarm, /*threads=*/0));
  }
  return Status::OK();
}

}  // namespace disc
