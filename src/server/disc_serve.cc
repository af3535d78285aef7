// disc_serve — the long-lived diversification daemon.
//
// Listens on a TCP port and speaks the newline-delimited protocol of
// server/protocol.h: each connection is one interactive session (OPEN,
// then DIVERSIFY / ZOOM / STATS, then CLOSE), sharded across pooled
// DiscEngine instances by server/session_manager.h. The event loop
// additionally auto-detects HTTP/1.1 per connection — one POST
// per command (POST /diversify with "r=0.1" as the body), the protocol's
// JSON line as the response body — see docs/PROTOCOL.md.
//
// Usage:
//   disc_serve [--host=127.0.0.1] [--port=4817] [--workers=4]
//              [--max-engines=8] [--threads=0] [--prewarm=<ds>[,<ds>...]]
//              [--max-pending=64]
//              [--neighbor-backend=exact|grid]
//              [--max-exact-points=262144] [--help]
//
// --port=0 picks an ephemeral port. The daemon prints exactly one line
//   disc_serve listening on <host>:<port>
// to stdout once it accepts connections (tests parse it), then runs until
// SIGINT or SIGTERM, exiting gracefully (in-flight requests finish).

#include <signal.h>  // sigset_t, pthread_sigmask, sigwait (POSIX)

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "server/protocol.h"  // kDefaultOpenN/Dim/Seed
#include "server/server.h"
#include "util/flags.h"

namespace {

using namespace disc;

constexpr const char* kUsage =
    "usage: disc_serve [--host=<ipv4>] [--port=<port>] [--workers=<count>]\n"
    "                  [--max-engines=<count>] [--threads=<count>]\n"
    "                  [--prewarm=<dataset>[,<dataset>...]]\n"
    "                  [--max-pending=<count>]\n"
    "                  [--neighbor-backend=exact|grid]\n"
    "                  [--max-exact-points=<count>] [--help]\n"
    "\n"
    "--neighbor-backend: default neighbor engine for OPENs that carry no\n"
    "           backend= key. 'exact' (default) is the historical M-tree\n"
    "           session engine; 'grid' runs in graph mode (no ZOOM) and\n"
    "           builds the same exact graph, opening million-point\n"
    "           workloads in dims 1-3 (non-Hamming).\n"
    "--max-exact-points: above this many points, refuse the slower\n"
    "           backend for the input: 'exact' where the grid applies,\n"
    "           'grid' where it would fall back to an O(n^2) scan\n"
    "           (0 = unlimited; default 262144). The refusal names the\n"
    "           other backend, which serves the input.\n"
    "--threads: engine worker threads for parallel read-only passes\n"
    "           (0 = one per hardware thread, 1 = serial; results are\n"
    "           byte-identical either way).\n"
    "--prewarm: comma-separated dataset names (the OPEN dataset= values,\n"
    "           default n/dim/seed/metric) whose engines are pre-built\n"
    "           concurrently into the idle pool before serving starts.\n"
    "--workers: compute worker threads of the epoll event loop, which\n"
    "           coalesces identical requests and auto-detects HTTP/1.1 per\n"
    "           connection (POST /open, /diversify, /zoom, /close, /batch;\n"
    "           GET or POST /stats; see docs/PROTOCOL.md).\n"
    "--max-pending: compute requests (OPEN builds included) queued beyond\n"
    "           the ones executing (one per worker thread) before new\n"
    "           requests get a BUSY error.\n"
    "\n"
    "Line protocol (one command per line, one JSON response per line):\n"
    "  OPEN dataset=uniform|clustered|cities|cameras|csv:<path>\n"
    "       [n=<count>] [dim=<dims>] [seed=<seed>]\n"
    "       [metric=euclidean|manhattan|chebyshev|hamming]\n"
    "       [build=insert|bulk]\n"
    "       [backend=exact|grid]\n"
    "  DIVERSIFY r=<radius> [algo=basic|greedy|greedy-white|lazy-grey|\n"
    "            lazy-white|greedy-c|fast-c] [pruned=<bool>]\n"
    "            [quality=<bool>] [adapt=<bool>]\n"
    "            (adapt: allow zooming from the closest-radius memoized\n"
    "            or in-flight cold solution of the same algorithm)\n"
    "  ZOOM to=<radius> [greedy=<bool>] [variant=arbitrary|greedy-a|\n"
    "       greedy-b|greedy-c] [center=<id>] [distances=auto|exact]\n"
    "       [quality=<bool>]\n"
    "  STATS\n"
    "  CLOSE\n"
    "  BATCH n=<k>   (envelope: the next k lines run in order, each like\n"
    "       a single command, and their k responses are written as one\n"
    "       unit. HTTP: POST /batch with a JSON array of command "
    "strings)\n";

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  auto flags_or = ParseFlagArgs(
      argc, argv,
      {"host", "port", "workers", "max-engines", "threads", "prewarm",
       "max-pending", "neighbor-backend", "max-exact-points", "help"});
  if (!flags_or.ok()) {
    std::fprintf(stderr, "%s\n%s", flags_or.status().message().c_str(),
                 kUsage);
    return 2;
  }
  const auto& flags = *flags_or;
  if (flags.count("help")) {
    std::printf("%s", kUsage);
    return 0;
  }

  ServerOptions options;
  auto port = FlagInt(flags, "port", 4817);
  auto workers = FlagUint(flags, "workers", options.workers);
  auto max_engines = FlagUint(flags, "max-engines",
                              options.max_idle_engines);
  auto threads = FlagUint(flags, "threads", options.engine_threads);
  auto max_pending = FlagUint(flags, "max-pending", options.max_pending);
  auto max_exact = FlagUint(flags, "max-exact-points",
                            options.max_exact_points);
  for (const Status& status :
       {port.status(), workers.status(), max_engines.status(),
        threads.status(), max_pending.status(), max_exact.status()}) {
    if (!status.ok()) Fail(status.ToString());
  }
  options.host = FlagOr(flags, "host", options.host);
  options.port = *port;
  options.workers = *workers;
  options.max_idle_engines = *max_engines;
  options.engine_threads = *threads;
  options.max_pending = *max_pending;
  options.max_exact_points = *max_exact;
  if (flags.count("neighbor-backend")) {
    auto backend = ParseNeighborBackendKind(flags.at("neighbor-backend"));
    if (!backend.ok()) {
      std::fprintf(stderr, "%s\n%s", backend.status().message().c_str(),
                   kUsage);
      return 2;
    }
    options.default_backend = *backend;
  }
  // --prewarm=cities,clustered: each name is an OPEN dataset= value with
  // the protocol's default knobs (n=10000 dim=2 seed=42, default metric).
  std::string prewarm_list = FlagOr(flags, "prewarm", "");
  for (size_t pos = 0; pos < prewarm_list.size();) {
    size_t comma = prewarm_list.find(',', pos);
    if (comma == std::string::npos) comma = prewarm_list.size();
    std::string name = prewarm_list.substr(pos, comma - pos);
    pos = comma + 1;
    if (name.empty()) continue;
    EngineConfig config;
    // Same knob defaults as DecodeOpen, so the prewarmed pool key matches
    // a default-argument OPEN of the same dataset.
    auto spec =
        ParseDatasetSpec(name, kDefaultOpenN, kDefaultOpenDim,
                         kDefaultOpenSeed);
    if (!spec.ok()) Fail("--prewarm: " + spec.status().ToString());
    config.dataset = std::move(spec).value();
    config.metric = DefaultMetricFor(config.dataset.source);
    options.prewarm.push_back(std::move(config));
  }

  // Block the shutdown signals before Start so every server thread
  // inherits the mask and delivery funnels into the sigwait below — no
  // check-then-pause window where a signal could be lost.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGINT);
  sigaddset(&stop_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);
  std::signal(SIGPIPE, SIG_IGN);

  const std::string host = options.host;
  auto server_or = DiscServer::Start(std::move(options));
  if (!server_or.ok()) Fail(server_or.status().ToString());
  std::unique_ptr<DiscServer> server = std::move(server_or).value();

  std::printf("disc_serve listening on %s:%d\n", host.c_str(),
              server->port());
  std::fflush(stdout);

  // The server runs in its own threads; park the main thread until
  // SIGINT/SIGTERM arrives (queued signals are consumed atomically).
  int signal_number = 0;
  sigwait(&stop_signals, &signal_number);

  SessionManagerStats stats = server->manager_stats();
  ServerStats transport = server->server_stats();
  server->Shutdown();
  std::fprintf(stderr,
               "disc_serve exiting: %zu leases (%zu pool hits), "
               "%zu engines built, %zu evicted; %zu connections, "
               "%zu coalesced responses, %zu busy rejections\n",
               stats.leases_acquired, stats.pool_hits, stats.engines_created,
               stats.engines_evicted, transport.connections_accepted,
               transport.coalesced_responses, transport.busy_rejections);
  return 0;
}
