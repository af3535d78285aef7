// End-to-end tests for the disc_serve transport: the in-process DiscServer
// (protocol handling, session manager pooling, concurrency) plus a smoke
// test that spawns the real daemon binary and drives it with disc_client.
//
// The concurrency contract under test (ISSUE 4): N concurrent client
// sessions on one server produce byte-identical DIVERSIFY/ZOOM results to
// direct DiscEngine calls — sessions are sharded across exclusive engine
// leases, so no request ever races another on a tree's color state. The
// suite runs in CI under both ASan/UBSan and TSan.

#include "server/server.h"

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <latch>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/generators.h"
#include "engine/engine.h"
#include "server/net.h"
#include "server/protocol.h"
#include "util/status.h"

namespace disc {
namespace {

std::unique_ptr<DiscServer> StartServer(size_t workers = 4,
                                        size_t max_idle_engines = 8) {
  ServerOptions options;
  options.port = 0;  // ephemeral; parallel ctest runs must not collide
  options.workers = workers;
  options.max_idle_engines = max_idle_engines;
  auto server = DiscServer::Start(options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return std::move(server).value();
}

LineClient ConnectTo(const DiscServer& server) {
  auto client = LineClient::Connect("127.0.0.1", server.port());
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(client).value();
}

HttpClient HttpConnectTo(const DiscServer& server) {
  auto client = HttpClient::Connect("127.0.0.1", server.port());
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(client).value();
}

std::string MustRoundtrip(LineClient& client, const std::string& line) {
  auto response = client.Roundtrip(line);
  EXPECT_TRUE(response.ok()) << line << ": "
                             << response.status().ToString();
  return response.ok() ? *response : "";
}

/// The deterministic prefix of a serialized response: everything except the
/// machine-dependent trailing wall_ms field.
std::string DeterministicPrefix(Verb verb, const DiversifyResponse& response) {
  std::string line =
      SerializeDiversifyResponse(verb, response, /*include_wall_ms=*/false);
  return line.substr(0, line.size() - 1);  // drop the closing brace
}

/// Same, for a DIVERSIFY served through §5.2 radius adaptation.
std::string AdaptedPrefix(const DiversifyResponse& response,
                          double seed_radius) {
  std::string line = SerializeAdaptedResponse(response, seed_radius,
                                              /*include_wall_ms=*/false);
  return line.substr(0, line.size() - 1);  // drop the closing brace
}

/// Everything before the machine-dependent trailing wall_ms field (the
/// whole line when it carries none) — for comparing full transcripts
/// produced by two different runs, where the replica-prefix helpers above
/// do not apply.
std::string StripWallMs(const std::string& line) {
  const size_t pos = line.find(",\"wall_ms\":");
  return pos == std::string::npos ? line : line.substr(0, pos);
}

EngineConfig TestConfig(size_t n = 400, uint64_t seed = 9) {
  EngineConfig config;
  config.dataset = DatasetSpec::Clustered(n, 2, seed);
  return config;
}

// ---------------------------------------------------------------------------
// Single-session protocol behavior
// ---------------------------------------------------------------------------

TEST(ServerTest, OpenDiversifyZoomMatchesDirectEngineByteForByte) {
  auto server = StartServer();
  LineClient client = ConnectTo(*server);

  std::string open = MustRoundtrip(
      client, "OPEN dataset=clustered n=400 dim=2 seed=9");
  EXPECT_NE(open.find("\"ok\":true"), std::string::npos) << open;
  EXPECT_NE(open.find("\"n\":400"), std::string::npos) << open;
  EXPECT_NE(open.find("\"reused\":false"), std::string::npos) << open;

  // The same requests against a directly-constructed engine.
  auto engine = DiscEngine::Create(TestConfig());
  ASSERT_TRUE(engine.ok());
  DiversifyRequest diversify;
  diversify.radius = 0.1;
  auto expected = (*engine)->Diversify(diversify);
  ASSERT_TRUE(expected.ok());
  ZoomRequest zoom;
  zoom.radius = 0.05;
  auto expected_zoom = (*engine)->Zoom(zoom);
  ASSERT_TRUE(expected_zoom.ok());

  std::string wire = MustRoundtrip(client, "DIVERSIFY r=0.1");
  EXPECT_EQ(wire.rfind(DeterministicPrefix(Verb::kDiversify, *expected), 0),
            0u)
      << wire;

  std::string wire_zoom = MustRoundtrip(client, "ZOOM to=0.05");
  EXPECT_EQ(
      wire_zoom.rfind(DeterministicPrefix(Verb::kZoom, *expected_zoom), 0),
      0u)
      << wire_zoom;

  EXPECT_EQ(MustRoundtrip(client, "CLOSE"),
            "{\"ok\":true,\"cmd\":\"CLOSE\"}");
}

TEST(ServerTest, QualityFieldsTravelOverTheWire) {
  auto server = StartServer();
  LineClient client = ConnectTo(*server);
  MustRoundtrip(client, "OPEN dataset=uniform n=150 dim=2 seed=11");
  std::string wire = MustRoundtrip(client, "DIVERSIFY r=0.15 quality=true");
  EXPECT_NE(wire.find("\"verified\":\"OK\""), std::string::npos) << wire;
  EXPECT_NE(wire.find("\"coverage\":1"), std::string::npos) << wire;
}

TEST(ServerTest, StatsReportsSessionState) {
  auto server = StartServer();
  LineClient client = ConnectTo(*server);
  MustRoundtrip(client, "OPEN dataset=clustered n=300 dim=2 seed=5");

  std::string before = MustRoundtrip(client, "STATS");
  EXPECT_NE(before.find("\"has_solution\":false"), std::string::npos)
      << before;

  MustRoundtrip(client, "DIVERSIFY r=0.1");
  std::string after = MustRoundtrip(client, "STATS");
  EXPECT_NE(after.find("\"has_solution\":true"), std::string::npos) << after;
  EXPECT_NE(after.find("\"algorithm\":\"greedy\""), std::string::npos)
      << after;
  EXPECT_NE(after.find("\"cached_solutions\":1"), std::string::npos) << after;
}

TEST(ServerTest, ProtocolErrorsComeBackAsErrorLines) {
  auto server = StartServer();
  LineClient client = ConnectTo(*server);

  // Before OPEN, everything but OPEN is a precondition failure.
  for (const char* cmd : {"DIVERSIFY r=0.1", "ZOOM to=0.1", "STATS",
                          "CLOSE"}) {
    std::string response = MustRoundtrip(client, cmd);
    EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << response;
    EXPECT_NE(response.find("\"code\":\"FailedPrecondition\""),
              std::string::npos)
        << response;
  }

  // Unknown verbs and malformed lines parse-fail with cmd "?".
  std::string unknown = MustRoundtrip(client, "LAUNCH r=0.1");
  EXPECT_NE(unknown.find("\"cmd\":\"?\""), std::string::npos) << unknown;

  // A failed OPEN leaves the connection usable.
  std::string bad_open = MustRoundtrip(client, "OPEN dataset=nope");
  EXPECT_NE(bad_open.find("\"ok\":false"), std::string::npos) << bad_open;
  std::string good_open =
      MustRoundtrip(client, "OPEN dataset=uniform n=100 dim=2 seed=1");
  EXPECT_NE(good_open.find("\"ok\":true"), std::string::npos) << good_open;

  // Engine-level misuse surfaces with the engine's status code.
  std::string zoom = MustRoundtrip(client, "ZOOM to=0.05");
  EXPECT_NE(zoom.find("\"code\":\"FailedPrecondition\""), std::string::npos)
      << zoom;
  std::string double_open =
      MustRoundtrip(client, "OPEN dataset=uniform n=100 dim=2 seed=1");
  EXPECT_NE(double_open.find("already open"), std::string::npos)
      << double_open;
}

TEST(ServerTest, BlankLinesAreSkippedSilently) {
  auto server = StartServer();
  LineClient client = ConnectTo(*server);
  ASSERT_TRUE(client.SendLine("").ok());
  ASSERT_TRUE(client.SendLine("  \t ").ok());
  // If the blanks produced responses, this would read one of them instead.
  std::string response = MustRoundtrip(client, "STATS");
  EXPECT_NE(response.find("\"cmd\":\"STATS\""), std::string::npos)
      << response;
}

// ---------------------------------------------------------------------------
// Engine pooling across sessions
// ---------------------------------------------------------------------------

TEST(ServerTest, PooledEngineIsReusedWithWarmCachesAcrossSessions) {
  auto server = StartServer();
  LineClient client = ConnectTo(*server);

  MustRoundtrip(client, "OPEN dataset=clustered n=400 dim=2 seed=9");
  std::string first = MustRoundtrip(client, "DIVERSIFY r=0.1");
  EXPECT_NE(first.find("\"from_cache\":false"), std::string::npos) << first;
  MustRoundtrip(client, "CLOSE");

  // Same key -> the pooled engine comes back, caches warm: an identical
  // DIVERSIFY is a cache hit with zero index work, and zooming still works
  // because the cached color snapshot was restored.
  std::string reopened =
      MustRoundtrip(client, "OPEN dataset=clustered n=400 dim=2 seed=9");
  EXPECT_NE(reopened.find("\"reused\":true"), std::string::npos) << reopened;
  EXPECT_NE(reopened.find("\"sessions_served\":2"), std::string::npos)
      << reopened;

  std::string second = MustRoundtrip(client, "DIVERSIFY r=0.1");
  EXPECT_NE(second.find("\"from_cache\":true"), std::string::npos) << second;
  EXPECT_NE(second.find("\"node_accesses\":0"), std::string::npos) << second;

  std::string zoom = MustRoundtrip(client, "ZOOM to=0.05");
  EXPECT_NE(zoom.find("\"ok\":true"), std::string::npos) << zoom;

  SessionManagerStats stats = server->manager_stats();
  EXPECT_EQ(stats.leases_acquired, 2u);
  EXPECT_EQ(stats.pool_hits, 1u);
  EXPECT_EQ(stats.engines_created, 1u);
}

TEST(ServerTest, DifferentKeysGetDifferentEngines) {
  auto server = StartServer();
  LineClient client = ConnectTo(*server);
  MustRoundtrip(client, "OPEN dataset=uniform n=100 dim=2 seed=1");
  MustRoundtrip(client, "CLOSE");
  // Same generator, different seed: a different dataset, so no reuse.
  std::string open =
      MustRoundtrip(client, "OPEN dataset=uniform n=100 dim=2 seed=2");
  EXPECT_NE(open.find("\"reused\":false"), std::string::npos) << open;
  EXPECT_EQ(server->manager_stats().engines_created, 2u);
}

TEST(SessionManagerTest, ProvidedDatasetsAreNeverPooled) {
  // Two caller-materialized datasets are not interchangeable just because
  // their metric and build strategy match: leases over kProvided specs
  // must never reuse a pooled engine (EnginePoolKey returns "").
  SessionManager manager(/*max_idle_engines=*/8);
  EngineConfig first;
  first.dataset = DatasetSpec::Provided(MakeUniformDataset(50, 2, 1));
  EXPECT_EQ(EnginePoolKey(first), "");
  {
    auto lease = manager.Acquire(first);
    ASSERT_TRUE(lease.ok()) << lease.status().ToString();
    EXPECT_FALSE(lease->reused());
  }
  EngineConfig second;
  second.dataset = DatasetSpec::Provided(MakeUniformDataset(80, 2, 2));
  auto lease = manager.Acquire(second);
  ASSERT_TRUE(lease.ok());
  EXPECT_FALSE(lease->reused());
  EXPECT_EQ(lease->engine().dataset().size(), 80u);
  EXPECT_EQ(manager.stats().engines_created, 2u);
  EXPECT_EQ(manager.stats().idle_engines, 0u);
}

TEST(SessionManagerTest, EvictedEnginesGoToTheDisposer) {
  SessionManager manager(/*max_idle_engines=*/1);
  std::vector<std::unique_ptr<DiscEngine>> disposed;
  manager.SetEngineDisposer([&](std::unique_ptr<DiscEngine> engine) {
    disposed.push_back(std::move(engine));
  });
  ASSERT_TRUE(manager.Acquire(TestConfig(120, 1)).ok());  // released at once
  EXPECT_TRUE(disposed.empty());
  ASSERT_TRUE(manager.Acquire(TestConfig(140, 2)).ok());  // evicts n=120
  ASSERT_EQ(disposed.size(), 1u);
  EXPECT_EQ(disposed[0]->dataset().size(), 120u);
  // An unpoolable engine is evicted at release, through the same hook.
  EngineConfig provided;
  provided.dataset = DatasetSpec::Provided(MakeUniformDataset(50, 2, 3));
  ASSERT_TRUE(manager.Acquire(provided).ok());
  ASSERT_EQ(disposed.size(), 2u);
  EXPECT_EQ(disposed[1]->dataset().size(), 50u);
  EXPECT_EQ(manager.stats().engines_evicted, 2u);
  EXPECT_EQ(manager.stats().idle_engines, 1u);
}

TEST(SessionManagerTest, PrewarmBuildsEnginesConcurrentlyIntoThePool) {
  SessionManager manager(/*max_idle_engines=*/8);
  std::vector<EngineConfig> configs = {TestConfig(300, 1), TestConfig(300, 2)};
  // Unpoolable configs are skipped, not built.
  EngineConfig provided;
  provided.dataset = DatasetSpec::Provided(MakeUniformDataset(50, 2, 3));
  configs.push_back(provided);

  Status status = manager.Prewarm(configs, /*threads=*/4);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(manager.stats().engines_created, 2u);
  EXPECT_EQ(manager.stats().idle_engines, 2u);

  // The first OPEN of a prewarmed key is a pool hit — no build.
  auto lease = manager.Acquire(TestConfig(300, 1));
  ASSERT_TRUE(lease.ok()) << lease.status().ToString();
  EXPECT_TRUE(lease->reused());
  EXPECT_EQ(manager.stats().engines_created, 2u);
  EXPECT_EQ(manager.stats().pool_hits, 1u);
}

TEST(SessionManagerTest, PrewarmSurfacesBuildErrors) {
  SessionManager manager(/*max_idle_engines=*/8);
  EngineConfig bad;
  bad.dataset = DatasetSpec::Csv("/nonexistent/prewarm.csv");
  Status status = manager.Prewarm({TestConfig(200, 4), bad}, /*threads=*/2);
  EXPECT_FALSE(status.ok());
  // The good engine was still built and pooled.
  EXPECT_EQ(manager.stats().engines_created, 1u);
  EXPECT_EQ(manager.stats().idle_engines, 1u);
}

TEST(ServerTest, PrewarmedServerReusesEngineOnFirstOpen) {
  ServerOptions options;
  options.port = 0;
  options.workers = 2;
  options.max_idle_engines = 4;
  options.engine_threads = 2;
  options.prewarm = {TestConfig(350, 21)};
  auto server = DiscServer::Start(std::move(options));
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  LineClient client = ConnectTo(**server);
  std::string open =
      MustRoundtrip(client, "OPEN dataset=clustered n=350 dim=2 seed=21");
  EXPECT_NE(open.find("\"reused\":true"), std::string::npos) << open;
  // sessions_served 2: the prewarm build was session 1, this lease is 2.
  EXPECT_NE(open.find("\"sessions_served\":2"), std::string::npos) << open;
  SessionManagerStats stats = (*server)->manager_stats();
  EXPECT_EQ(stats.pool_hits, 1u);
}

TEST(ServerTest, StatsReportsWireCacheHits) {
  auto server = StartServer();
  LineClient client = ConnectTo(*server);
  MustRoundtrip(client, "OPEN dataset=clustered n=300 dim=2 seed=6");
  std::string cold = MustRoundtrip(client, "STATS");
  EXPECT_NE(cold.find("\"cache_hits\":0"), std::string::npos) << cold;

  MustRoundtrip(client, "DIVERSIFY r=0.1");
  MustRoundtrip(client, "DIVERSIFY r=0.1");  // identical -> cache hit
  std::string warm = MustRoundtrip(client, "STATS");
  EXPECT_NE(warm.find("\"cache_hits\":1"), std::string::npos) << warm;
}

TEST(ServerTest, OversizedLinesCloseTheConnectionInsteadOfBuffering) {
  auto server = StartServer();
  LineClient client = ConnectTo(*server);
  // Far beyond the 1 MB line cap, no newline: the server must drop the
  // connection rather than buffer the stream indefinitely.
  std::string flood(3u << 20, 'a');
  (void)client.SendLine(flood);
  auto response = client.RecvLine();
  EXPECT_FALSE(response.ok());
}

TEST(ServerTest, IdlePoolEvictsLeastRecentlyReleased) {
  auto server = StartServer(/*workers=*/2, /*max_idle_engines=*/1);
  LineClient client = ConnectTo(*server);
  MustRoundtrip(client, "OPEN dataset=uniform n=80 dim=2 seed=1");
  MustRoundtrip(client, "CLOSE");
  MustRoundtrip(client, "OPEN dataset=uniform n=80 dim=2 seed=2");
  MustRoundtrip(client, "CLOSE");  // evicts seed=1 (cap is 1)

  std::string open =
      MustRoundtrip(client, "OPEN dataset=uniform n=80 dim=2 seed=1");
  EXPECT_NE(open.find("\"reused\":false"), std::string::npos) << open;
  EXPECT_EQ(server->manager_stats().engines_evicted, 1u);
}

// ---------------------------------------------------------------------------
// Concurrency: the acceptance-criteria test
// ---------------------------------------------------------------------------

// N concurrent sessions, all open at once on one server, each issuing
// DIVERSIFY + ZOOM at its own radius. Every wire response must be
// byte-identical (modulo the trailing wall_ms field) to a direct
// DiscEngine call with the same config — exclusive engine leases mean no
// session can observe another's tree mutations. Run under TSan in CI.
TEST(ServerConcurrencyTest, ConcurrentSessionsMatchDirectEngineCalls) {
  constexpr size_t kSessions = 4;
  auto server = StartServer(/*workers=*/kSessions);

  // Open all sessions before any work: the leases coexist, so the manager
  // must shard them onto distinct engines (nothing is idle to reuse).
  std::vector<LineClient> clients;
  for (size_t i = 0; i < kSessions; ++i) {
    clients.push_back(ConnectTo(*server));
    std::string open = MustRoundtrip(
        clients.back(), "OPEN dataset=clustered n=400 dim=2 seed=9");
    ASSERT_NE(open.find("\"ok\":true"), std::string::npos) << open;
    ASSERT_NE(open.find("\"reused\":false"), std::string::npos) << open;
  }
  EXPECT_EQ(server->manager_stats().engines_created, kSessions);

  // Each session diversifies and zooms at its own radius, concurrently.
  std::vector<double> radii;
  for (size_t i = 0; i < kSessions; ++i) {
    radii.push_back(0.05 + 0.02 * static_cast<double>(i));
  }
  std::vector<std::string> diversify_wire(kSessions);
  std::vector<std::string> zoom_wire(kSessions);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      diversify_wire[i] = MustRoundtrip(
          clients[i], "DIVERSIFY r=" + FormatJsonDouble(radii[i]));
      zoom_wire[i] = MustRoundtrip(
          clients[i], "ZOOM to=" + FormatJsonDouble(radii[i] / 2));
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Replay each session against its own direct engine and compare bytes.
  for (size_t i = 0; i < kSessions; ++i) {
    auto engine = DiscEngine::Create(TestConfig());
    ASSERT_TRUE(engine.ok());
    DiversifyRequest diversify;
    diversify.radius = radii[i];
    auto expected = (*engine)->Diversify(diversify);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(diversify_wire[i].rfind(
                  DeterministicPrefix(Verb::kDiversify, *expected), 0),
              0u)
        << "session " << i << ": " << diversify_wire[i];

    ZoomRequest zoom;
    zoom.radius = radii[i] / 2;
    auto expected_zoom = (*engine)->Zoom(zoom);
    ASSERT_TRUE(expected_zoom.ok());
    EXPECT_EQ(zoom_wire[i].rfind(
                  DeterministicPrefix(Verb::kZoom, *expected_zoom), 0),
              0u)
        << "session " << i << ": " << zoom_wire[i];
  }

  for (LineClient& client : clients) {
    EXPECT_EQ(MustRoundtrip(client, "CLOSE"),
              "{\"ok\":true,\"cmd\":\"CLOSE\"}");
  }
}

TEST(ServerConcurrencyTest, ManyShortSessionsChurnThePoolSafely) {
  auto server = StartServer(/*workers=*/4, /*max_idle_engines=*/2);
  constexpr size_t kThreads = 4;
  constexpr size_t kSessionsPerThread = 5;

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t s = 0; s < kSessionsPerThread; ++s) {
        LineClient client = ConnectTo(*server);
        // Two distinct keys ping-pong through the size-2 idle pool.
        std::string open = MustRoundtrip(
            client, "OPEN dataset=uniform n=120 dim=2 seed=" +
                        std::to_string(t % 2));
        ASSERT_NE(open.find("\"ok\":true"), std::string::npos) << open;
        std::string wire = MustRoundtrip(client, "DIVERSIFY r=0.15");
        ASSERT_NE(wire.find("\"ok\":true"), std::string::npos) << wire;
        MustRoundtrip(client, "CLOSE");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  SessionManagerStats stats = server->manager_stats();
  EXPECT_EQ(stats.leases_acquired, kThreads * kSessionsPerThread);
  EXPECT_GT(stats.pool_hits, 0u);
  EXPECT_LE(stats.idle_engines, 2u);
}

// ---------------------------------------------------------------------------
// Request coalescing (the single-flight table, ISSUE 6): N concurrent
// identical requests cost one computation, and every client receives the
// byte-identical response line.
// ---------------------------------------------------------------------------

/// Parses an unsigned JSON field out of a response line.
uint64_t ExtractUint(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = json.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " missing in " << json;
  if (pos == std::string::npos) return 0;
  return std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
}

/// Ships one well-formed BATCH frame over the line transport and reads the
/// k response lines it owes.
std::vector<std::string> RunLineBatch(
    LineClient& client, const std::vector<std::string>& commands) {
  EXPECT_TRUE(
      client.SendLine("BATCH n=" + std::to_string(commands.size())).ok());
  for (const std::string& command : commands) {
    EXPECT_TRUE(client.SendLine(command).ok());
  }
  std::vector<std::string> responses;
  responses.reserve(commands.size());
  for (size_t i = 0; i < commands.size(); ++i) {
    auto line = client.RecvLine();
    EXPECT_TRUE(line.ok()) << "response " << i << ": "
                           << line.status().ToString();
    responses.push_back(line.ok() ? *line : "");
  }
  return responses;
}

/// How a test session carries its commands.
enum class Framing { kLine, kHttp, kBatch };

const char* FramingName(Framing framing) {
  switch (framing) {
    case Framing::kLine:
      return "line";
    case Framing::kHttp:
      return "http";
    case Framing::kBatch:
      return "batch";
  }
  return "?";
}

/// One session on a framing. Send carries one command — a line roundtrip,
/// or over HTTP a POST to /<verb> whose body minus its framing newline is
/// the protocol line. Run carries a command list: one BATCH frame on the
/// batch framing, one Send per command otherwise.
class FramedSession {
 public:
  FramedSession(const DiscServer& server, Framing framing)
      : framing_(framing) {
    if (framing == Framing::kHttp) {
      http_.emplace(HttpConnectTo(server));
    } else {
      line_.emplace(ConnectTo(server));
    }
  }

  std::string Send(const std::string& command) {
    if (line_.has_value()) return MustRoundtrip(*line_, command);
    const size_t space = command.find(' ');
    std::string verb = command.substr(0, space);
    for (char& c : verb) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    auto response = http_->Post(
        "/" + verb, space == std::string::npos ? "" : command.substr(space + 1));
    EXPECT_TRUE(response.ok()) << command << ": "
                               << response.status().ToString();
    if (!response.ok()) return "";
    std::string body = std::move(response->body);
    if (!body.empty() && body.back() == '\n') body.pop_back();
    return body;
  }

  std::vector<std::string> Run(const std::vector<std::string>& commands) {
    if (framing_ == Framing::kBatch) return RunLineBatch(*line_, commands);
    std::vector<std::string> responses;
    for (const std::string& command : commands) {
      responses.push_back(Send(command));
    }
    return responses;
  }

 private:
  Framing framing_;
  std::optional<LineClient> line_;
  std::optional<HttpClient> http_;
};

/// kClients sessions send the same fresh-radius rounds concurrently — round
/// by round on the line and HTTP framings, as one frame each on BATCH —
/// ending with a ZOOM every session can coalesce (they all hold the last
/// round's state). Each round must compute exactly once, and every client
/// must receive the replica engine's bytes, fanned out verbatim (wall_ms
/// included) from that one computation.
void ExpectEachRoundComputesOnce(Framing framing) {
  SCOPED_TRACE(FramingName(framing));
  constexpr size_t kClients = 6;
  const std::vector<std::string> rounds = {
      "DIVERSIFY r=0.07", "DIVERSIFY r=0.075", "DIVERSIFY r=0.08",
      "ZOOM to=0.035"};
  auto server = StartServer(/*workers=*/4, /*max_idle_engines=*/kClients);

  // Reference: the same rounds, in order, on a direct engine.
  auto engine = DiscEngine::Create(TestConfig());
  ASSERT_TRUE(engine.ok());
  std::vector<std::string> expected;
  for (double radius : {0.07, 0.075, 0.08}) {
    DiversifyRequest diversify;
    diversify.radius = radius;
    auto result = (*engine)->Diversify(diversify);
    ASSERT_TRUE(result.ok());
    expected.push_back(DeterministicPrefix(Verb::kDiversify, *result));
  }
  ZoomRequest zoom;
  zoom.radius = 0.035;
  auto zoomed = (*engine)->Zoom(zoom);
  ASSERT_TRUE(zoomed.ok());
  expected.push_back(DeterministicPrefix(Verb::kZoom, *zoomed));

  std::vector<std::unique_ptr<FramedSession>> clients;
  for (size_t i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<FramedSession>(*server, framing));
    std::string open =
        clients.back()->Send("OPEN dataset=clustered n=400 dim=2 seed=9");
    ASSERT_NE(open.find("\"ok\":true"), std::string::npos) << open;
  }

  // wire[i][k]: client i's answer to round k.
  std::vector<std::vector<std::string>> wire(kClients);
  const size_t waves = framing == Framing::kBatch ? 1 : rounds.size();
  for (size_t wave = 0; wave < waves; ++wave) {
    const std::vector<std::string> commands =
        framing == Framing::kBatch
            ? rounds
            : std::vector<std::string>{rounds[wave]};
    std::latch start(static_cast<ptrdiff_t>(kClients));
    std::vector<std::thread> threads;
    for (size_t i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i] {
        start.arrive_and_wait();
        for (std::string& line : clients[i]->Run(commands)) {
          wire[i].push_back(std::move(line));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (size_t i = 0; i < kClients; ++i) {
    ASSERT_EQ(wire[i].size(), rounds.size()) << "client " << i;
    for (size_t k = 0; k < rounds.size(); ++k) {
      EXPECT_EQ(wire[i][k].rfind(expected[k], 0), 0u)
          << rounds[k] << " client " << i << ": " << wire[i][k];
      EXPECT_EQ(wire[i][k], wire[0][k]) << rounds[k] << " client " << i;
    }
  }

  // One engine computed each round; every other session adopted that
  // leader's capsule (STATS `coalesced`).
  uint64_t computations = 0;
  uint64_t coalesced = 0;
  for (auto& client : clients) {
    std::string stats = client->Send("STATS");
    computations += ExtractUint(stats, "computations");
    coalesced += ExtractUint(stats, "coalesced");
  }
  const size_t fanned_out = rounds.size() * (kClients - 1);
  EXPECT_EQ(computations, rounds.size());
  EXPECT_EQ(coalesced, fanned_out);
  EXPECT_EQ(server->server_stats().coalesced_responses, fanned_out);

  SessionManagerStats manager = server->manager_stats();
  EXPECT_EQ(manager.flights_led, rounds.size());
  EXPECT_EQ(manager.flights_coalesced + manager.flights_memoized,
            fanned_out);

  for (auto& client : clients) {
    EXPECT_EQ(client->Send("CLOSE"), "{\"ok\":true,\"cmd\":\"CLOSE\"}");
  }
}

TEST(ServerCoalescingTest, ConcurrentIdenticalRequestsComputeOnce) {
  for (Framing framing : {Framing::kLine, Framing::kHttp, Framing::kBatch}) {
    ExpectEachRoundComputesOnce(framing);
  }
}

TEST(ServerCoalescingTest, WarmEngineRepeatStaysAnHonestCacheHit) {
  // A session whose own engine already caches the answer must NOT replay a
  // coalesced from_cache=false line: the pool-reuse contract (warm repeat
  // => "from_cache":true, zero node accesses) outranks the memo.
  auto server = StartServer(/*workers=*/2, /*max_idle_engines=*/2);
  LineClient client = ConnectTo(*server);
  MustRoundtrip(client, "OPEN dataset=clustered n=400 dim=2 seed=9");
  std::string first = MustRoundtrip(client, "DIVERSIFY r=0.09");
  EXPECT_NE(first.find("\"from_cache\":false"), std::string::npos) << first;
  std::string repeat = MustRoundtrip(client, "DIVERSIFY r=0.09");
  EXPECT_NE(repeat.find("\"from_cache\":true"), std::string::npos) << repeat;
  EXPECT_NE(repeat.find("\"node_accesses\":0"), std::string::npos) << repeat;
}

TEST(ServerCoalescingTest, MemoHitsReleaseTheirAdmissionSlot) {
  // A memo hit runs a capsule adoption on a worker but is exempt from
  // admission; it must not keep a slot either. With a budget of two jobs,
  // two leaked slots would refuse every later computation as BUSY.
  ServerOptions options;
  options.port = 0;
  options.workers = 1;
  options.max_pending = 1;
  auto server_or = DiscServer::Start(std::move(options));
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  auto server = std::move(server_or).value();

  LineClient a = ConnectTo(*server);
  LineClient b = ConnectTo(*server);
  MustRoundtrip(a, "OPEN dataset=clustered n=400 dim=2 seed=9");
  MustRoundtrip(b, "OPEN dataset=clustered n=400 dim=2 seed=9");
  const std::string r1 = MustRoundtrip(a, "DIVERSIFY r=0.07");
  const std::string r2 = MustRoundtrip(a, "DIVERSIFY r=0.08");

  // B holds its own engine (A's is still leased), so both answers come
  // from the memo: A's exact bytes, no computation.
  EXPECT_EQ(MustRoundtrip(b, "DIVERSIFY r=0.07"), r1);
  EXPECT_EQ(MustRoundtrip(b, "DIVERSIFY r=0.08"), r2);
  EXPECT_EQ(ExtractUint(MustRoundtrip(b, "STATS"), "computations"), 0u);

  const std::string fresh = MustRoundtrip(b, "DIVERSIFY r=0.09");
  EXPECT_NE(fresh.find("\"ok\":true"), std::string::npos) << fresh;
  EXPECT_EQ(server->server_stats().busy_rejections, 0u);
  EXPECT_EQ(server->manager_stats().flights_memoized, 2u);
}

// ---------------------------------------------------------------------------
// Radius-aware coalescing (ISSUE 7): DIVERSIFY adapt=true may be served
// from a memoized solution at another radius through the engine's §5.2
// zoom adaptation — and the adapted answer must be byte-identical to the
// same adopt-then-zoom chain run cold on a replica engine.
// ---------------------------------------------------------------------------

TEST(ServerAdaptTest, AdaptedRequestMatchesColdComputationByteForByte) {
  auto server = StartServer();

  // Replica chain: Diversify at the seed radius, then Zoom to the target.
  // The server's adapted answer adopts the memoized capsule and runs the
  // identical zoom, so every byte up to wall_ms must match.
  auto engine = DiscEngine::Create(TestConfig());
  ASSERT_TRUE(engine.ok());
  DiversifyRequest seed_request;
  seed_request.radius = 0.06;
  ASSERT_TRUE((*engine)->Diversify(seed_request).ok());
  ZoomRequest adapt_zoom;
  adapt_zoom.radius = 0.05;
  auto expected = (*engine)->Zoom(adapt_zoom);
  ASSERT_TRUE(expected.ok());

  // Session A computes (and thereby memoizes) the seed solution at r=0.06.
  LineClient seeder = ConnectTo(*server);
  MustRoundtrip(seeder, "OPEN dataset=clustered n=400 dim=2 seed=9");
  std::string seeded = MustRoundtrip(seeder, "DIVERSIFY r=0.06");
  ASSERT_NE(seeded.find("\"ok\":true"), std::string::npos) << seeded;

  // Session B asks for a *different* radius with adapt=true: not an
  // identical flight key, yet served from A's memoized outcome.
  LineClient client = ConnectTo(*server);
  MustRoundtrip(client, "OPEN dataset=clustered n=400 dim=2 seed=9");
  std::string adapted = MustRoundtrip(client, "DIVERSIFY r=0.05 adapt=true");
  EXPECT_EQ(adapted.rfind(AdaptedPrefix(*expected, 0.06), 0), 0u) << adapted;
  EXPECT_NE(adapted.find("\"adapted\":true,\"seed_radius\":0.06"),
            std::string::npos)
      << adapted;
  EXPECT_EQ(server->manager_stats().flights_adapted, 1u);

  // The adapted session's engine state is the replica's state: a follow-up
  // ZOOM continues the chain byte-for-byte.
  ZoomRequest followup;
  followup.radius = 0.03;
  auto expected_followup = (*engine)->Zoom(followup);
  ASSERT_TRUE(expected_followup.ok());
  std::string wire_zoom = MustRoundtrip(client, "ZOOM to=0.03");
  EXPECT_EQ(wire_zoom.rfind(
                DeterministicPrefix(Verb::kZoom, *expected_followup), 0),
            0u)
      << wire_zoom;

  MustRoundtrip(seeder, "CLOSE");
  MustRoundtrip(client, "CLOSE");
}

TEST(ServerAdaptTest, AdaptWithoutCompatibleSeedComputesCold) {
  auto server = StartServer();

  auto engine = DiscEngine::Create(TestConfig());
  ASSERT_TRUE(engine.ok());
  DiversifyRequest request;
  request.radius = 0.05;
  auto expected = (*engine)->Diversify(request);
  ASSERT_TRUE(expected.ok());

  // Nothing is memoized yet: adapt is advisory, so the request computes
  // cold and the response carries no adapted fields (it is byte-identical
  // to a plain DIVERSIFY).
  LineClient client = ConnectTo(*server);
  MustRoundtrip(client, "OPEN dataset=clustered n=400 dim=2 seed=9");
  std::string wire = MustRoundtrip(client, "DIVERSIFY r=0.05 adapt=true");
  EXPECT_EQ(wire.rfind(DeterministicPrefix(Verb::kDiversify, *expected), 0),
            0u)
      << wire;
  EXPECT_EQ(wire.find("\"adapted\""), std::string::npos) << wire;
  EXPECT_EQ(server->manager_stats().flights_adapted, 0u);
  MustRoundtrip(client, "CLOSE");
}

// ---------------------------------------------------------------------------
// The one adaptation decision (SessionManager::JoinFlight): an adapt=true
// request is seeded from the closest radius over memoized and in-flight
// cold solves of its family — a memo seed makes it a seeded leader, an
// in-flight one a rider of that flight. Exactly representable radii
// (0.25/0.5/0.75...) keep the distance ties real.
// ---------------------------------------------------------------------------

/// Leads `key` without asking to adapt (so: cold).
FlightJoin Lead(SessionManager& manager, const std::string& key,
                double radius, const std::string& family = "fam") {
  return manager
      .JoinFlight({key, family, radius}, [](const FlightOutcome&) {},
                  [](const FlightOutcome&) {})
      .join;
}

/// Finishes `key` without memoizing (a flight that only blocked others).
void Drop(SessionManager& manager, const std::string& key) {
  manager.FinishFlight(key, FlightOutcome{}, /*memoize=*/false,
                       /*seedable=*/false);
}

/// Leads and finishes `key` as a memoized, seedable cold solve whose
/// response is `key`; returns its capsule.
std::shared_ptr<DiscEngine::SessionCapsule> Memoize(
    SessionManager& manager, const std::string& key, double radius,
    const std::string& family = "fam") {
  EXPECT_EQ(Lead(manager, key, radius, family), FlightJoin::kLeader);
  FlightOutcome outcome;
  outcome.response = key;
  outcome.capsule = std::make_shared<DiscEngine::SessionCapsule>();
  manager.FinishFlight(key, outcome, /*memoize=*/true, /*seedable=*/true);
  return outcome.capsule;
}

/// An adapt=true request; when it rides, `*seed_response` receives the
/// seed flight's response once that flight finishes.
FlightDecision Adapt(SessionManager& manager, const std::string& key,
                     double radius, std::string* seed_response = nullptr,
                     const std::string& family = "fam") {
  return manager.JoinFlight(
      {key, family, radius, /*adapt=*/true}, [](const FlightOutcome&) {},
      [seed_response](const FlightOutcome& seed) {
        if (seed_response != nullptr) *seed_response = seed.response;
      });
}

TEST(SessionManagerTest, MemoSeedSkipsEqualRadiiAndForeignFamilies) {
  SessionManager manager(/*max_idle_engines=*/0, /*max_cached_results=*/8);
  Memoize(manager, "k-old", 0.25);

  // With a single memoized outcome: equal radius never matches (that is
  // the exact single-flight/memo path), and neither does a foreign family.
  EXPECT_EQ(Adapt(manager, "k-eq", 0.25).join, FlightJoin::kLeader);
  EXPECT_EQ(Adapt(manager, "k-x", 0.5, nullptr, "other").join,
            FlightJoin::kLeader);
  Drop(manager, "k-eq");
  Drop(manager, "k-x");

  // The tie goes to the most recently finished outcome (its caches are the
  // warmer bet).
  auto newer = Memoize(manager, "k-new", 0.75);
  const FlightDecision decision = Adapt(manager, "k-tie", 0.5);
  ASSERT_EQ(decision.join, FlightJoin::kSeeded);
  EXPECT_EQ(decision.seed_radius, 0.75);
  EXPECT_EQ(decision.seed, newer);
  EXPECT_EQ(manager.stats().flights_adapted, 1u);
}

TEST(SessionManagerTest, MemoSeedUseKeepsTheEntryWarmInTheLru) {
  // Cap of two: memoizing a third outcome evicts the LRU entry. The seed
  // use must have refreshed its entry, so the eviction falls on the
  // newer-but-unused outcome instead.
  SessionManager manager(/*max_idle_engines=*/0, /*max_cached_results=*/2);
  Memoize(manager, "k-old", 0.04);
  Memoize(manager, "k-new", 0.08);

  // 0.03 selects the older entry (|0.01| beats |0.05|) and refreshes it.
  FlightDecision decision = Adapt(manager, "k-a", 0.03);
  ASSERT_EQ(decision.join, FlightJoin::kSeeded);
  EXPECT_EQ(decision.seed_radius, 0.04);

  Memoize(manager, "k-third", 0.5, "other");
  EXPECT_EQ(manager.stats().cached_results, 2u);
  // Without the refresh, 0.04 would be the entry that just got evicted.
  decision = Adapt(manager, "k-b", 0.07);
  ASSERT_EQ(decision.join, FlightJoin::kSeeded);
  EXPECT_EQ(decision.seed_radius, 0.04);
}

TEST(SessionManagerTest, RiderPicksTheClosestInFlightRadius) {
  SessionManager manager(/*max_idle_engines=*/0);
  ASSERT_EQ(Lead(manager, "fa", 0.25), FlightJoin::kLeader);

  // With a single in-flight candidate: no same-radius ride, no
  // cross-family ride.
  EXPECT_EQ(Adapt(manager, "k-eq", 0.25).join, FlightJoin::kLeader);
  EXPECT_EQ(Adapt(manager, "k-x", 0.5, nullptr, "other").join,
            FlightJoin::kLeader);
  Drop(manager, "k-eq");
  Drop(manager, "k-x");

  // 0.375 rides the closest in-flight radius (0.25, not 1.0) and receives
  // that leader's outcome when it finishes.
  ASSERT_EQ(Lead(manager, "fb", 1.0), FlightJoin::kLeader);
  std::string got;
  const FlightDecision decision = Adapt(manager, "k-r", 0.375, &got);
  ASSERT_EQ(decision.join, FlightJoin::kRider);
  EXPECT_EQ(decision.seed_radius, 0.25);
  EXPECT_EQ(manager.stats().flights_adapt_followed, 1u);
  FlightOutcome lead_a;
  lead_a.response = "lead-a";
  manager.FinishFlight("fa", lead_a, /*memoize=*/false, /*seedable=*/false);
  EXPECT_EQ(got, "lead-a");
}

TEST(SessionManagerTest, RiderTieBreaksTowardTheNewestLeader) {
  SessionManager manager(/*max_idle_engines=*/0);
  ASSERT_EQ(Lead(manager, "fa", 0.25), FlightJoin::kLeader);
  ASSERT_EQ(Lead(manager, "fb", 0.75), FlightJoin::kLeader);

  // 0.5 is (exactly) equidistant from both in-flight radii: the most
  // recently led flight wins, as on the memo.
  std::string got;
  const FlightDecision decision = Adapt(manager, "k-r", 0.5, &got);
  ASSERT_EQ(decision.join, FlightJoin::kRider);
  EXPECT_EQ(decision.seed_radius, 0.75);
  FlightOutcome lead_b;
  lead_b.response = "lead-b";
  manager.FinishFlight("fb", lead_b, /*memoize=*/false, /*seedable=*/false);
  EXPECT_EQ(got, "lead-b");
}

TEST(SessionManagerTest, SeededLeadersAndRidersAreNeverOfferedAsSeeds) {
  // Their answers are adapted, not cold solves: chaining onto one would
  // only fall back cold. So a farther cold seed wins over a closer one.
  SessionManager manager(/*max_idle_engines=*/0);
  Memoize(manager, "memo", 0.25);
  ASSERT_EQ(Adapt(manager, "seeded", 0.5).join, FlightJoin::kSeeded);
  FlightDecision decision = Adapt(manager, "k-a", 0.625);
  ASSERT_EQ(decision.join, FlightJoin::kSeeded);
  EXPECT_EQ(decision.seed_radius, 0.25);

  ASSERT_EQ(Lead(manager, "cold", 2.0), FlightJoin::kLeader);
  ASSERT_EQ(Adapt(manager, "rider", 1.75).join, FlightJoin::kRider);
  decision = Adapt(manager, "k-b", 1.625);
  ASSERT_EQ(decision.join, FlightJoin::kRider);
  EXPECT_EQ(decision.seed_radius, 2.0);

  // Still not once finished: a memoized adapted answer is no seed either.
  FlightOutcome adapted;
  adapted.capsule = std::make_shared<DiscEngine::SessionCapsule>();
  manager.FinishFlight("seeded", adapted, /*memoize=*/true,
                       /*seedable=*/false);
  decision = Adapt(manager, "k-c", 0.5625);
  ASSERT_EQ(decision.join, FlightJoin::kSeeded);
  EXPECT_EQ(decision.seed_radius, 0.25);
}

TEST(SessionManagerTest, ClosestSeedWinsAcrossMemoAndInFlight) {
  SessionManager manager(/*max_idle_engines=*/0);
  auto memo = Memoize(manager, "memo", 0.25);
  ASSERT_EQ(Lead(manager, "cold", 1.0), FlightJoin::kLeader);

  // Closer to the in-flight leader: ride it, although a memo seed exists.
  FlightDecision decision = Adapt(manager, "k-a", 0.875);
  ASSERT_EQ(decision.join, FlightJoin::kRider);
  EXPECT_EQ(decision.seed_radius, 1.0);

  // Closer to the memo: seed from it, although a leader is in flight.
  decision = Adapt(manager, "k-b", 0.375);
  ASSERT_EQ(decision.join, FlightJoin::kSeeded);
  EXPECT_EQ(decision.seed_radius, 0.25);
  EXPECT_EQ(decision.seed, memo);

  const SessionManagerStats stats = manager.stats();
  EXPECT_EQ(stats.flights_adapt_followed, 1u);
  EXPECT_EQ(stats.flights_adapted, 1u);
}

TEST(SessionManagerTest, UnadmittedComputationsRegisterNothing) {
  SessionManager manager(/*max_idle_engines=*/0);
  FlightRequest request{"k", "fam", 0.5};
  request.admitted = false;
  auto noop = [](const FlightOutcome&) {};
  EXPECT_EQ(manager.JoinFlight(request, noop, noop).join, FlightJoin::kBusy);
  // Nothing was registered: the next admitted request leads...
  EXPECT_EQ(Lead(manager, "k", 0.5), FlightJoin::kLeader);
  // ...and a follower needs no slot.
  EXPECT_EQ(manager.JoinFlight(request, noop, noop).join,
            FlightJoin::kFollower);
  EXPECT_EQ(manager.stats().flights_led, 1u);
}

TEST(ServerAdaptTest, QueuedFlightAdoptsInFlightLeaderAcrossRequests) {
  // A DIVERSIFY adapt=true queued at r' while a same-family solve at r is
  // still *in flight* must not lead its own cold computation: it registers
  // as an adapt-follower, adopts the leader's capsule on completion, and
  // zooms to r' — byte-identical to the adopt-then-zoom chain run cold,
  // with exactly one computation on the follower's engine (the cold chain
  // costs two).
  auto server = StartServer();

  EngineConfig config = TestConfig(20000, 9);
  auto engine = DiscEngine::Create(config);
  ASSERT_TRUE(engine.ok());
  DiversifyRequest seed_request;
  seed_request.radius = 0.004;
  ASSERT_TRUE((*engine)->Diversify(seed_request).ok());
  ZoomRequest adapt_zoom;
  adapt_zoom.radius = 0.003;
  auto expected = (*engine)->Zoom(adapt_zoom);
  ASSERT_TRUE(expected.ok());

  LineClient leader = ConnectTo(*server);
  LineClient follower = ConnectTo(*server);
  MustRoundtrip(leader, "OPEN dataset=clustered n=20000 dim=2 seed=9");
  MustRoundtrip(follower, "OPEN dataset=clustered n=20000 dim=2 seed=9");

  // The leader's cold solve takes >100ms at this n (sanitizers only widen
  // the window); the follower's request lands well inside it.
  std::string leader_wire;
  std::thread leader_thread(
      [&] { leader_wire = MustRoundtrip(leader, "DIVERSIFY r=0.004"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  std::string adapted =
      MustRoundtrip(follower, "DIVERSIFY r=0.003 adapt=true");
  leader_thread.join();

  EXPECT_NE(leader_wire.find("\"ok\":true"), std::string::npos)
      << leader_wire;
  EXPECT_EQ(adapted.rfind(AdaptedPrefix(*expected, 0.004), 0), 0u) << adapted;

  std::string stats = MustRoundtrip(follower, "STATS");
  EXPECT_EQ(ExtractUint(stats, "computations"), 1u) << stats;
  EXPECT_EQ(ExtractUint(stats, "coalesced"), 1u) << stats;

  SessionManagerStats manager = server->manager_stats();
  EXPECT_EQ(manager.flights_adapt_followed, 1u);
  EXPECT_EQ(manager.flights_adapted, 0u);  // never reached the memo path

  MustRoundtrip(leader, "CLOSE");
  MustRoundtrip(follower, "CLOSE");
}

/// Polls `done` for up to ~20 s: the tests below order their requests on
/// the manager's counters rather than on sleeps.
bool WaitFor(const std::function<bool()>& done) {
  for (int i = 0; i < 4000 && !done(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return done();
}

TEST(ServerAdaptTest, InFlightSeedCloserThanTheMemoWins) {
  // One seed rule over memo ∪ in-flight: a memoized seed at 0.008 and a
  // cold leader in flight at 0.004 both qualify for r=0.003, and the
  // closer in-flight one wins — the rider's bytes are the 0.004 chain.
  auto server = StartServer();

  auto engine = DiscEngine::Create(TestConfig(20000, 9));
  ASSERT_TRUE(engine.ok());
  DiversifyRequest seed_request;
  seed_request.radius = 0.004;
  ASSERT_TRUE((*engine)->Diversify(seed_request).ok());
  ZoomRequest adapt_zoom;
  adapt_zoom.radius = 0.003;
  auto expected = (*engine)->Zoom(adapt_zoom);
  ASSERT_TRUE(expected.ok());

  LineClient leader = ConnectTo(*server);
  LineClient rider = ConnectTo(*server);
  MustRoundtrip(leader, "OPEN dataset=clustered n=20000 dim=2 seed=9");
  MustRoundtrip(rider, "OPEN dataset=clustered n=20000 dim=2 seed=9");
  const std::string memo = MustRoundtrip(leader, "DIVERSIFY r=0.008");
  ASSERT_NE(memo.find("\"ok\":true"), std::string::npos) << memo;

  std::string leader_wire;
  std::thread leader_thread(
      [&] { leader_wire = MustRoundtrip(leader, "DIVERSIFY r=0.004"); });
  EXPECT_TRUE(WaitFor([&] { return server->manager_stats().flights_led == 2; }));
  const std::string adapted =
      MustRoundtrip(rider, "DIVERSIFY r=0.003 adapt=true");
  leader_thread.join();

  EXPECT_NE(leader_wire.find("\"ok\":true"), std::string::npos)
      << leader_wire;
  EXPECT_EQ(adapted.rfind(AdaptedPrefix(*expected, 0.004), 0), 0u) << adapted;
  SessionManagerStats manager = server->manager_stats();
  EXPECT_EQ(manager.flights_adapt_followed, 1u);
  EXPECT_EQ(manager.flights_adapted, 0u);
}

TEST(ServerAdaptTest, LeaderAnswersBeforeItsRiders) {
  // Riders zoom on their own jobs after the leader's flight lands, so the
  // leader's answer never waits for their (slow, r=0.004 -> 0.001..0.003)
  // zooms.
  auto server = StartServer();
  LineClient leader = ConnectTo(*server);
  std::vector<LineClient> riders;
  for (int i = 0; i < 3; ++i) riders.push_back(ConnectTo(*server));
  MustRoundtrip(leader, "OPEN dataset=clustered n=20000 dim=2 seed=9");
  for (LineClient& rider : riders) {
    MustRoundtrip(rider, "OPEN dataset=clustered n=20000 dim=2 seed=9");
  }

  std::atomic<int> answered{0};
  int leader_rank = -1;
  std::string leader_wire;
  std::thread leader_thread([&] {
    leader_wire = MustRoundtrip(leader, "DIVERSIFY r=0.004");
    leader_rank = answered++;
  });
  EXPECT_TRUE(WaitFor([&] { return server->manager_stats().flights_led == 1; }));
  std::vector<int> rider_rank(riders.size(), -1);
  std::vector<std::string> rider_wire(riders.size());
  std::vector<std::thread> rider_threads;
  for (size_t i = 0; i < riders.size(); ++i) {
    rider_threads.emplace_back([&, i] {
      rider_wire[i] = MustRoundtrip(
          riders[i], "DIVERSIFY r=0.00" + std::to_string(i + 1) +
                         " adapt=true");
      rider_rank[i] = answered++;
    });
  }
  leader_thread.join();
  for (std::thread& thread : rider_threads) thread.join();

  EXPECT_EQ(server->manager_stats().flights_adapt_followed, riders.size());
  EXPECT_NE(leader_wire.find("\"ok\":true"), std::string::npos)
      << leader_wire;
  EXPECT_EQ(leader_rank, 0);
  for (size_t i = 0; i < riders.size(); ++i) {
    EXPECT_NE(rider_wire[i].find("\"adapted\":true,\"seed_radius\":0.004"),
              std::string::npos)
        << rider_wire[i];
    EXPECT_GT(rider_rank[i], leader_rank);
  }
}

TEST(ServerAdaptTest, RidersHoldAnAdmissionSlot) {
  // A rider computes (its zoom runs as its own job), so it is counted in
  // the budget from arrival: leader + rider fill a budget of two, and a
  // third cold DIVERSIFY is BUSY.
  ServerOptions options;
  options.port = 0;
  options.workers = 1;
  options.max_pending = 1;
  auto server_or = DiscServer::Start(std::move(options));
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  auto server = std::move(server_or).value();

  LineClient leader = ConnectTo(*server);
  LineClient rider = ConnectTo(*server);
  LineClient third = ConnectTo(*server);
  MustRoundtrip(leader, "OPEN dataset=clustered n=20000 dim=2 seed=9");
  MustRoundtrip(rider, "OPEN dataset=clustered n=20000 dim=2 seed=9");
  MustRoundtrip(third, "OPEN dataset=clustered n=400 dim=2 seed=9");

  std::string leader_wire;
  std::thread leader_thread(
      [&] { leader_wire = MustRoundtrip(leader, "DIVERSIFY r=0.004"); });
  EXPECT_TRUE(WaitFor([&] { return server->manager_stats().flights_led == 1; }));
  std::string rider_wire;
  std::thread rider_thread([&] {
    rider_wire = MustRoundtrip(rider, "DIVERSIFY r=0.003 adapt=true");
  });
  EXPECT_TRUE(WaitFor(
      [&] { return server->manager_stats().flights_adapt_followed == 1; }));
  const std::string busy = MustRoundtrip(third, "DIVERSIFY r=0.05");
  leader_thread.join();
  rider_thread.join();

  EXPECT_NE(busy.find("\"code\":\"Busy\""), std::string::npos) << busy;
  EXPECT_EQ(server->server_stats().busy_rejections, 1u);
  EXPECT_NE(leader_wire.find("\"ok\":true"), std::string::npos)
      << leader_wire;
  EXPECT_NE(rider_wire.find("\"adapted\":true,\"seed_radius\":0.004"),
            std::string::npos)
      << rider_wire;

  // Both slots came back with their answers.
  const std::string fresh = MustRoundtrip(third, "DIVERSIFY r=0.05");
  EXPECT_NE(fresh.find("\"ok\":true"), std::string::npos) << fresh;
}

// ---------------------------------------------------------------------------
// The HTTP/1.1 transport (ISSUE 7): same commands, same JSON bodies, one
// POST per command over a keep-alive connection (= one session).
// ---------------------------------------------------------------------------

TEST(ServerHttpTest, HttpSessionMatchesDirectEngineByteForByte) {
  auto server = StartServer();

  auto engine = DiscEngine::Create(TestConfig());
  ASSERT_TRUE(engine.ok());
  DiversifyRequest diversify;
  diversify.radius = 0.1;
  auto expected = (*engine)->Diversify(diversify);
  ASSERT_TRUE(expected.ok());
  ZoomRequest zoom;
  zoom.radius = 0.05;
  auto expected_zoom = (*engine)->Zoom(zoom);
  ASSERT_TRUE(expected_zoom.ok());

  HttpClient client = HttpConnectTo(*server);
  auto open = client.Post("/open", "dataset=clustered n=400 dim=2 seed=9");
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  EXPECT_EQ(open->status, 200);
  EXPECT_NE(open->body.find("\"ok\":true"), std::string::npos) << open->body;
  EXPECT_NE(open->body.find("\"cmd\":\"OPEN\""), std::string::npos)
      << open->body;

  // The response body is exactly the protocol line plus its framing '\n',
  // so the replica-prefix comparison is the same as the line transport's.
  auto wire = client.Post("/diversify", "r=0.1");
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_EQ(wire->status, 200);
  EXPECT_EQ(
      wire->body.rfind(DeterministicPrefix(Verb::kDiversify, *expected), 0),
      0u)
      << wire->body;
  ASSERT_FALSE(wire->body.empty());
  EXPECT_EQ(wire->body.back(), '\n');

  auto wire_zoom = client.Post("/zoom", "to=0.05");
  ASSERT_TRUE(wire_zoom.ok());
  EXPECT_EQ(wire_zoom->body.rfind(
                DeterministicPrefix(Verb::kZoom, *expected_zoom), 0),
            0u)
      << wire_zoom->body;

  // /stats is read-only and additionally accepts GET.
  auto stats = client.Get("/stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->status, 200);
  EXPECT_NE(stats->body.find("\"has_solution\":true"), std::string::npos)
      << stats->body;

  auto close = client.Post("/close", "");
  ASSERT_TRUE(close.ok());
  EXPECT_EQ(close->body, "{\"ok\":true,\"cmd\":\"CLOSE\"}\n");
  EXPECT_EQ(server->server_stats().http_requests, 5u);

  // Protocol detection is per connection: a line-protocol client works on
  // the same server, unchanged.
  LineClient line_client = ConnectTo(*server);
  std::string line_open =
      MustRoundtrip(line_client, "OPEN dataset=clustered n=400 dim=2 seed=9");
  EXPECT_NE(line_open.find("\"ok\":true"), std::string::npos) << line_open;
  MustRoundtrip(line_client, "CLOSE");
}

TEST(ServerHttpTest, ErrorCodesMapToHttpStatuses) {
  auto server = StartServer();
  HttpClient client = HttpConnectTo(*server);

  // FailedPrecondition (no session yet) -> 409.
  auto early = client.Post("/diversify", "r=0.1");
  ASSERT_TRUE(early.ok());
  EXPECT_EQ(early->status, 409);
  EXPECT_NE(early->body.find("\"code\":\"FailedPrecondition\""),
            std::string::npos)
      << early->body;

  // Unknown endpoint -> 404, still a protocol error line in the body.
  auto nope = client.Post("/nope", "");
  ASSERT_TRUE(nope.ok());
  EXPECT_EQ(nope->status, 404);
  EXPECT_NE(nope->body.find("\"ok\":false"), std::string::npos) << nope->body;

  // GET on a mutating endpoint -> 400 InvalidArgument.
  auto get = client.Get("/diversify");
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(get->status, 400);
  EXPECT_NE(get->body.find("requires POST"), std::string::npos) << get->body;

  // Command-level argument errors -> 400.
  auto bad = client.Post("/open", "dataset=nope");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status, 400);
  EXPECT_NE(bad->body.find("\"code\":\"InvalidArgument\""), std::string::npos)
      << bad->body;

  // Errors are per request, not connection state: the same keep-alive
  // connection opens a session afterwards.
  auto open = client.Post("/open", "dataset=uniform n=100 dim=2 seed=1");
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(open->status, 200);
  auto close = client.Post("/close", "");
  ASSERT_TRUE(close.ok());
  EXPECT_EQ(close->status, 200);
}

TEST(ServerHttpTest, BusyRejectionIsA503WithRetryAfter) {
  ServerOptions options;
  options.port = 0;
  options.workers = 1;
  options.max_pending = 0;  // one computation in the system, zero queued
  auto server_or = DiscServer::Start(std::move(options));
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  auto server = std::move(server_or).value();

  constexpr int kClients = 4;
  std::vector<HttpClient> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(HttpConnectTo(*server));
    auto open =
        clients.back().Post("/open", "dataset=clustered n=1500 dim=2 seed=21");
    ASSERT_TRUE(open.ok()) << open.status().ToString();
    ASSERT_EQ(open->status, 200) << open->body;
  }

  // Bursts of concurrent distinct-radius requests (nothing coalesces).
  // With a budget of one job, an overlapping burst must refuse the excess
  // with 503 + Retry-After; retry rounds guard against an unlucky burst
  // that happened to serialize.
  std::atomic<int> ok_count{0};
  std::atomic<int> busy_count{0};
  std::atomic<int> bad_count{0};
  for (int round = 0; round < 8 && busy_count.load() == 0; ++round) {
    std::latch start(kClients);
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i, round] {
        char body[32];
        std::snprintf(body, sizeof(body), "r=%.4f",
                      0.03 + 0.002 * i + 0.0001 * round);
        start.arrive_and_wait();
        auto response = clients[i].Post("/diversify", body);
        if (!response.ok()) {
          bad_count.fetch_add(1);
          return;
        }
        if (response->status == 200) {
          ok_count.fetch_add(1);
        } else if (response->status == 503) {
          busy_count.fetch_add(1);
          EXPECT_NE(response->body.find("\"code\":\"Busy\""),
                    std::string::npos)
              << response->body;
          EXPECT_NE(response->head.find("Retry-After: 1"), std::string::npos)
              << response->head;
        } else {
          bad_count.fetch_add(1);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  EXPECT_EQ(bad_count.load(), 0);
  EXPECT_GE(ok_count.load(), 1) << "no burst admitted any computation";
  EXPECT_GE(busy_count.load(), 1) << "no burst produced a 503";
  EXPECT_GE(server->server_stats().busy_rejections, 1u);

  // 503 is per request: the connections still compute afterwards.
  for (int i = 0; i < kClients; ++i) {
    char body[32];
    std::snprintf(body, sizeof(body), "r=%.4f", 0.05 + 0.002 * i);
    auto response = clients[i].Post("/diversify", body);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 200) << response->body;
    auto close = clients[i].Post("/close", "");
    ASSERT_TRUE(close.ok());
  }
}

// ---------------------------------------------------------------------------
// The BATCH envelope (the batch-first API): k commands, one unit, k
// responses in order — byte-identical to running the commands one at a
// time, with per-command error isolation, one cold solve per adapt family,
// and slots that coalesce with other connections' flights.
// ---------------------------------------------------------------------------

/// Splits an HTTP /batch response body into its protocol lines.
std::vector<std::string> SplitResponseLines(const std::string& body) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < body.size()) {
    size_t end = body.find('\n', start);
    if (end == std::string::npos) end = body.size();
    lines.push_back(body.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

/// The transcript both byte-identity tests replay: a session that exercises
/// cold, adapted, zoom, stats, and close responses.
const std::vector<std::string>& BatchTranscript() {
  static const std::vector<std::string> commands = {
      "OPEN dataset=clustered n=400 dim=2 seed=9",
      "DIVERSIFY r=0.08",
      "DIVERSIFY r=0.05 adapt=true",
      "ZOOM to=0.03",
      "STATS",
      "CLOSE",
  };
  return commands;
}

/// Runs the transcript one command at a time on its own fresh server (so
/// pool and memo state match a fresh batch server) and returns the lines.
std::vector<std::string> SequentialReference(
    const std::vector<std::string>& commands) {
  auto server = StartServer();
  LineClient client = ConnectTo(*server);
  std::vector<std::string> responses;
  responses.reserve(commands.size());
  for (const std::string& command : commands) {
    responses.push_back(MustRoundtrip(client, command));
  }
  return responses;
}

TEST(ServerBatchTest, BatchMatchesSequentialExecutionByteForByte) {
  const std::vector<std::string>& commands = BatchTranscript();
  const std::vector<std::string> expected = SequentialReference(commands);

  auto server = StartServer();
  LineClient client = ConnectTo(*server);
  const std::vector<std::string> responses = RunLineBatch(client, commands);
  ASSERT_EQ(responses.size(), expected.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(StripWallMs(responses[i]), StripWallMs(expected[i]))
        << commands[i];
  }

  // The envelope is pure framing: the same connection keeps working in
  // plain lockstep afterwards.
  std::string open = MustRoundtrip(client, commands[0]);
  EXPECT_NE(open.find("\"ok\":true"), std::string::npos) << open;
}

TEST(ServerBatchTest, HttpBatchMatchesSequentialExecutionByteForByte) {
  const std::vector<std::string>& commands = BatchTranscript();
  const std::vector<std::string> expected = SequentialReference(commands);

  auto server = StartServer();
  HttpClient client = HttpConnectTo(*server);
  std::string body = "[";
  for (size_t i = 0; i < commands.size(); ++i) {
    if (i > 0) body += ",";
    body += "\"" + commands[i] + "\"";  // no quoting needed: plain ASCII
  }
  body += "]";
  auto response = client.Post("/batch", body);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200) << response->body;
  ASSERT_FALSE(response->body.empty());
  EXPECT_EQ(response->body.back(), '\n');

  const std::vector<std::string> lines = SplitResponseLines(response->body);
  ASSERT_EQ(lines.size(), expected.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(StripWallMs(lines[i]), StripWallMs(expected[i])) << commands[i];
  }
}

TEST(ServerBatchTest, PlannerRunsOneColdSolvePerAdaptFamily) {
  auto server = StartServer();

  // Replica of the planner's contract: ONE cold solve at the first radius
  // of the family, every other member adapted from that anchor's capsule.
  auto engine = DiscEngine::Create(TestConfig());
  ASSERT_TRUE(engine.ok());
  DiversifyRequest anchor;
  anchor.radius = 0.08;
  auto cold = (*engine)->Diversify(anchor);
  ASSERT_TRUE(cold.ok());
  auto capsule = (*engine)->ExportSession();
  ZoomRequest to_005;
  to_005.radius = 0.05;
  auto adapted_005 = (*engine)->AdaptFrom(capsule, to_005);
  ASSERT_TRUE(adapted_005.ok());
  ZoomRequest to_006;
  to_006.radius = 0.06;
  auto adapted_006 = (*engine)->AdaptFrom(capsule, to_006);
  ASSERT_TRUE(adapted_006.ok());

  LineClient client = ConnectTo(*server);
  const std::vector<std::string> responses = RunLineBatch(
      client, {
                  "OPEN dataset=clustered n=400 dim=2 seed=9",
                  "DIVERSIFY r=0.08 adapt=true",
                  "DIVERSIFY r=0.05 adapt=true",
                  "DIVERSIFY r=0.06 adapt=true",
                  "STATS",
                  "CLOSE",
              });
  ASSERT_EQ(responses.size(), 6u);

  // The family's first member computes cold — no adapted fields...
  EXPECT_EQ(responses[1].rfind(DeterministicPrefix(Verb::kDiversify, *cold),
                               0),
            0u)
      << responses[1];
  EXPECT_EQ(responses[1].find("\"adapted\""), std::string::npos)
      << responses[1];

  // ...and every other member zooms from the 0.08 anchor (the memo keeps
  // only cold solves seedable, so both adapt from 0.08, not from each
  // other).
  EXPECT_EQ(responses[2].rfind(AdaptedPrefix(*adapted_005, 0.08), 0), 0u)
      << responses[2];
  EXPECT_EQ(responses[3].rfind(AdaptedPrefix(*adapted_006, 0.08), 0), 0u)
      << responses[3];

  // One cold solve + two zoom adaptations on the session's engine.
  EXPECT_EQ(ExtractUint(responses[4], "computations"), 3u) << responses[4];
  EXPECT_EQ(ExtractUint(responses[4], "coalesced"), 2u) << responses[4];
  EXPECT_EQ(server->manager_stats().flights_adapted, 2u);
}

TEST(ServerBatchTest, BatchSlotJoinsAnotherConnectionsFlight) {
  // A batch slot is an ordinary submission: when another connection is
  // already computing the same request, the slot follows that flight —
  // the leader's exact bytes (wall_ms included), no computation of its own.
  auto server = StartServer();
  LineClient leader = ConnectTo(*server);
  LineClient batcher = ConnectTo(*server);
  MustRoundtrip(leader, "OPEN dataset=clustered n=20000 dim=2 seed=9");
  MustRoundtrip(batcher, "OPEN dataset=clustered n=20000 dim=2 seed=9");

  // The leader's cold solve takes >100ms at this n; the frame lands
  // inside it.
  std::string leader_wire;
  std::thread leader_thread(
      [&] { leader_wire = MustRoundtrip(leader, "DIVERSIFY r=0.004"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const std::vector<std::string> responses =
      RunLineBatch(batcher, {"DIVERSIFY r=0.004", "STATS"});
  leader_thread.join();

  ASSERT_EQ(responses.size(), 2u);
  EXPECT_NE(leader_wire.find("\"ok\":true"), std::string::npos)
      << leader_wire;
  EXPECT_EQ(responses[0], leader_wire);
  EXPECT_EQ(ExtractUint(responses[1], "computations"), 0u) << responses[1];
  EXPECT_EQ(ExtractUint(responses[1], "coalesced"), 1u) << responses[1];

  MustRoundtrip(leader, "CLOSE");
  MustRoundtrip(batcher, "CLOSE");
}

TEST(ServerBatchTest, BatchIsolatesPerCommandErrors) {
  auto server = StartServer();
  LineClient client = ConnectTo(*server);
  const std::vector<std::string> responses = RunLineBatch(
      client, {
                  "OPEN dataset=clustered n=300 dim=2 seed=5",
                  "DIVERSIFY",  // missing r= — fails alone
                  "DIVERSIFY r=0.1",
                  "CLOSE",
              });
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_NE(responses[0].find("\"ok\":true"), std::string::npos)
      << responses[0];
  EXPECT_NE(responses[1].find("\"ok\":false"), std::string::npos)
      << responses[1];
  EXPECT_NE(responses[1].find("\"code\":\"InvalidArgument\""),
            std::string::npos)
      << responses[1];
  EXPECT_NE(responses[2].find("\"ok\":true"), std::string::npos)
      << responses[2];
  EXPECT_EQ(responses[3], "{\"ok\":true,\"cmd\":\"CLOSE\"}");
}

TEST(ServerBatchTest, EnvelopeErrorsAnswerOneLineAndNestingIsRejected) {
  auto server = StartServer();
  LineClient client = ConnectTo(*server);

  // Envelope-level failures owe ONE line under cmd "BATCH" — no command
  // slots follow, and the connection stays usable.
  ASSERT_TRUE(client.SendLine("BATCH n=0").ok());
  auto zero = client.RecvLine();
  ASSERT_TRUE(zero.ok());
  EXPECT_NE(zero->find("\"cmd\":\"BATCH\""), std::string::npos) << *zero;
  EXPECT_NE(zero->find("\"code\":\"InvalidArgument\""), std::string::npos)
      << *zero;

  ASSERT_TRUE(client.SendLine("BATCH n=65").ok());
  auto oversize = client.RecvLine();
  ASSERT_TRUE(oversize.ok());
  EXPECT_NE(oversize->find("exceeds the limit"), std::string::npos)
      << *oversize;

  // A BATCH line *inside* a frame is a per-command error (the envelope is
  // framing, not a command), and a blank slot owes its response too — a
  // batch answers one line per slot, unlike the streaming blank-line skip.
  const std::vector<std::string> responses =
      RunLineBatch(client, {"BATCH n=2", "", "STATS"});
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_NE(responses[0].find("cannot be nested"), std::string::npos)
      << responses[0];
  EXPECT_NE(responses[1].find("\"ok\":false"), std::string::npos)
      << responses[1];
  EXPECT_NE(responses[2].find("\"cmd\":\"STATS\""), std::string::npos)
      << responses[2];

  // Still a working lockstep connection afterwards.
  std::string open =
      MustRoundtrip(client, "OPEN dataset=uniform n=100 dim=2 seed=1");
  EXPECT_NE(open.find("\"ok\":true"), std::string::npos) << open;
}

TEST(ServerBatchTest, HttpBatchEnvelopeFailuresAnswerOneErrorLine) {
  auto server = StartServer();
  HttpClient client = HttpConnectTo(*server);

  auto bad_json = client.Post("/batch", "not json");
  ASSERT_TRUE(bad_json.ok());
  EXPECT_EQ(bad_json->status, 400) << bad_json->body;
  EXPECT_NE(bad_json->body.find("\"cmd\":\"BATCH\""), std::string::npos)
      << bad_json->body;

  auto empty = client.Post("/batch", "[]");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->status, 400) << empty->body;

  auto get = client.Get("/batch");
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(get->status, 400) << get->body;
  EXPECT_NE(get->body.find("requires POST"), std::string::npos) << get->body;

  // Error isolation holds over HTTP too: a bad middle command answers in
  // place, the envelope still succeeds with one line per slot.
  auto mixed = client.Post(
      "/batch",
      "[\"OPEN dataset=clustered n=300 dim=2 seed=5\",\"BOGUS\","
      "\"DIVERSIFY r=0.1\",\"CLOSE\"]");
  ASSERT_TRUE(mixed.ok());
  EXPECT_EQ(mixed->status, 200) << mixed->body;
  const std::vector<std::string> lines = SplitResponseLines(mixed->body);
  ASSERT_EQ(lines.size(), 4u) << mixed->body;
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("\"ok\":false"), std::string::npos) << lines[1];
  EXPECT_NE(lines[2].find("\"ok\":true"), std::string::npos) << lines[2];
  EXPECT_EQ(lines[3], "{\"ok\":true,\"cmd\":\"CLOSE\"}");
}

TEST(ServerTest, ShutdownDisconnectsClientsAndJoins) {
  auto server = StartServer();
  LineClient client = ConnectTo(*server);
  MustRoundtrip(client, "OPEN dataset=uniform n=80 dim=2 seed=1");
  server->Shutdown();
  // The in-flight connection is dropped; the next read sees EOF/reset.
  auto response = client.Roundtrip("STATS");
  EXPECT_FALSE(response.ok());
  server->Shutdown();  // idempotent
}

// ---------------------------------------------------------------------------
// The real daemon binary, driven by disc_client
// ---------------------------------------------------------------------------

#if defined(DISC_SERVE_PATH) && defined(DISC_CLIENT_PATH)

struct Daemon {
  pid_t pid = -1;
  int port = 0;
};

// Spawns disc_serve --port=0 and parses the "listening on host:port" line.
Daemon SpawnDaemon() {
  Daemon daemon;
  int out_pipe[2];
  if (pipe(out_pipe) != 0) return daemon;
  pid_t pid = fork();
  if (pid < 0) return daemon;
  if (pid == 0) {
    dup2(out_pipe[1], STDOUT_FILENO);
    close(out_pipe[0]);
    close(out_pipe[1]);
    execl(DISC_SERVE_PATH, DISC_SERVE_PATH, "--port=0", "--workers=2",
          static_cast<char*>(nullptr));
    _exit(127);
  }
  close(out_pipe[1]);
  std::string banner;
  char c;
  while (read(out_pipe[0], &c, 1) == 1 && c != '\n') banner += c;
  close(out_pipe[0]);
  size_t colon = banner.rfind(':');
  if (colon != std::string::npos) {
    daemon.pid = pid;
    daemon.port = std::atoi(banner.c_str() + colon + 1);
  }
  return daemon;
}

void StopDaemon(const Daemon& daemon) {
  if (daemon.pid <= 0) return;
  kill(daemon.pid, SIGTERM);
  int status = 0;
  waitpid(daemon.pid, &status, 0);
}

TEST(DaemonSmokeTest, TranscriptThroughDiscClient) {
  Daemon daemon = SpawnDaemon();
  ASSERT_GT(daemon.pid, 0);
  ASSERT_GT(daemon.port, 0);

  std::string cmd =
      std::string("printf 'OPEN dataset=clustered n=300 dim=2 seed=5\\n"
                  "DIVERSIFY r=0.1\\nZOOM to=0.05\\nSTATS\\nCLOSE\\n' | ") +
      DISC_CLIENT_PATH + " --port=" + std::to_string(daemon.port) + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  char buffer[512];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    output += buffer;
  }
  int exit_code = pclose(pipe);
  StopDaemon(daemon);

  EXPECT_EQ(WEXITSTATUS(exit_code), 0) << output;
  EXPECT_NE(output.find("\"cmd\":\"OPEN\""), std::string::npos) << output;
  EXPECT_NE(output.find("\"cmd\":\"DIVERSIFY\""), std::string::npos)
      << output;
  EXPECT_NE(output.find("\"cmd\":\"ZOOM\""), std::string::npos) << output;
  EXPECT_NE(output.find("\"has_solution\":true"), std::string::npos)
      << output;
  EXPECT_NE(output.find("\"cmd\":\"CLOSE\""), std::string::npos) << output;
  // Five commands, five responses, all ok.
  size_t ok_count = 0;
  for (size_t pos = output.find("\"ok\":true"); pos != std::string::npos;
       pos = output.find("\"ok\":true", pos + 1)) {
    ++ok_count;
  }
  EXPECT_EQ(ok_count, 5u) << output;
}

TEST(DaemonSmokeTest, HttpTranscriptThroughDiscClient) {
  Daemon daemon = SpawnDaemon();
  ASSERT_GT(daemon.pid, 0);
  ASSERT_GT(daemon.port, 0);

  // The same transcript as the line-protocol smoke test, sent with --http:
  // stdout must be the identical protocol JSON lines.
  std::string cmd =
      std::string("printf 'OPEN dataset=clustered n=300 dim=2 seed=5\\n"
                  "DIVERSIFY r=0.1\\nZOOM to=0.05\\nSTATS\\nCLOSE\\n' | ") +
      DISC_CLIENT_PATH + " --http --port=" + std::to_string(daemon.port) +
      " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  char buffer[512];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    output += buffer;
  }
  int exit_code = pclose(pipe);
  StopDaemon(daemon);

  EXPECT_EQ(WEXITSTATUS(exit_code), 0) << output;
  EXPECT_NE(output.find("\"cmd\":\"OPEN\""), std::string::npos) << output;
  EXPECT_NE(output.find("\"cmd\":\"DIVERSIFY\""), std::string::npos)
      << output;
  EXPECT_NE(output.find("\"cmd\":\"ZOOM\""), std::string::npos) << output;
  EXPECT_NE(output.find("\"has_solution\":true"), std::string::npos)
      << output;
  EXPECT_NE(output.find("\"cmd\":\"CLOSE\""), std::string::npos) << output;
  size_t ok_count = 0;
  for (size_t pos = output.find("\"ok\":true"); pos != std::string::npos;
       pos = output.find("\"ok\":true", pos + 1)) {
    ++ok_count;
  }
  EXPECT_EQ(ok_count, 5u) << output;
}

TEST(DaemonSmokeTest, BatchTranscriptMatchesSequentialThroughDiscClient) {
  // The --batch contract: stdout is byte-identical to running the same
  // commands without --batch. Two fresh daemons, so both runs see identical
  // pool/memo state; only the machine-dependent wall_ms field may differ.
  const char* transcript =
      "OPEN dataset=clustered n=300 dim=2 seed=5\\n"
      "DIVERSIFY r=0.1\\nDIVERSIFY r=0.07 adapt=true\\n"
      "ZOOM to=0.05\\nSTATS\\nCLOSE\\n";
  auto run = [&](const Daemon& daemon, const char* extra_flags,
                 int* exit_code) {
    std::string cmd = std::string("printf '") + transcript + "' | " +
                      DISC_CLIENT_PATH + extra_flags +
                      " --port=" + std::to_string(daemon.port) +
                      " 2>/dev/null";
    FILE* pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    std::string output;
    char buffer[512];
    while (pipe != nullptr &&
           std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
      output += buffer;
    }
    *exit_code = pipe != nullptr ? pclose(pipe) : -1;
    return output;
  };

  Daemon sequential_daemon = SpawnDaemon();
  Daemon batch_daemon = SpawnDaemon();
  ASSERT_GT(sequential_daemon.port, 0);
  ASSERT_GT(batch_daemon.port, 0);
  int sequential_exit = 0;
  int batch_exit = 0;
  const std::string sequential = run(sequential_daemon, "", &sequential_exit);
  const std::string batched = run(batch_daemon, " --batch", &batch_exit);
  StopDaemon(sequential_daemon);
  StopDaemon(batch_daemon);

  EXPECT_EQ(WEXITSTATUS(sequential_exit), 0) << sequential;
  EXPECT_EQ(WEXITSTATUS(batch_exit), 0) << batched;
  const std::vector<std::string> expected = SplitResponseLines(sequential);
  const std::vector<std::string> lines = SplitResponseLines(batched);
  ASSERT_EQ(expected.size(), 6u) << sequential;
  ASSERT_EQ(lines.size(), expected.size()) << batched;
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(StripWallMs(lines[i]), StripWallMs(expected[i])) << i;
  }
}

TEST(DaemonSmokeTest, DaemonServesConcurrentClients) {
  Daemon daemon = SpawnDaemon();
  ASSERT_GT(daemon.pid, 0);
  ASSERT_GT(daemon.port, 0);

  std::vector<std::thread> threads;
  std::vector<int> ok(4, 0);  // not vector<bool>: threads write elements
  for (size_t i = 0; i < 4; ++i) {
    threads.emplace_back([&, i] {
      auto client = LineClient::Connect("127.0.0.1", daemon.port);
      if (!client.ok()) return;
      auto open = client->Roundtrip("OPEN dataset=uniform n=150 dim=2 seed=" +
                                    std::to_string(i));
      auto wire = client->Roundtrip("DIVERSIFY r=0.2");
      ok[i] = open.ok() && wire.ok() &&
              wire->find("\"ok\":true") != std::string::npos;
    });
  }
  for (std::thread& thread : threads) thread.join();
  StopDaemon(daemon);
  for (size_t i = 0; i < 4; ++i) EXPECT_TRUE(ok[i]) << "client " << i;
}

#endif  // DISC_SERVE_PATH && DISC_CLIENT_PATH

}  // namespace
}  // namespace disc
