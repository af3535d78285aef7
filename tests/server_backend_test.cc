// End-to-end tests for the OPEN backend= protocol field and the server's
// neighbor-backend plumbing: graph-mode sessions over the wire, pool-key
// separation between M-tree and graph-mode engines, the operator default
// (ServerOptions::default_backend), and strict rejection of unknown backend
// values.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "engine/engine.h"
#include "server/net.h"
#include "server/protocol.h"
#include "server/server.h"

namespace disc {
namespace {

std::unique_ptr<DiscServer> StartServer(ServerOptions options = {}) {
  options.host = "127.0.0.1";
  options.port = 0;  // ephemeral; parallel ctest runs must not collide
  auto server = DiscServer::Start(std::move(options));
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return std::move(server).value();
}

LineClient ConnectTo(const DiscServer& server) {
  auto client = LineClient::Connect("127.0.0.1", server.port());
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(client).value();
}

std::string MustRoundtrip(LineClient& client, const std::string& line) {
  auto response = client.Roundtrip(line);
  EXPECT_TRUE(response.ok()) << line << ": "
                             << response.status().ToString();
  return response.ok() ? *response : "";
}

TEST(ServerBackendTest, BackendFieldOpensAGraphModeSession) {
  auto server = StartServer();
  LineClient client = ConnectTo(*server);

  std::string open = MustRoundtrip(
      client, "OPEN dataset=clustered n=400 dim=2 seed=9 backend=grid");
  EXPECT_NE(open.find("\"ok\":true"), std::string::npos) << open;
  EXPECT_NE(open.find("\"backend\":\"grid\""), std::string::npos) << open;

  std::string diversify = MustRoundtrip(client, "DIVERSIFY r=0.08 algo=basic");
  EXPECT_NE(diversify.find("\"ok\":true"), std::string::npos) << diversify;

  // Graph-mode sessions hold no tree color state: no zooming.
  std::string zoom = MustRoundtrip(client, "ZOOM to=0.05");
  EXPECT_NE(zoom.find("\"ok\":false"), std::string::npos) << zoom;
  EXPECT_NE(zoom.find("\"code\":\"FailedPrecondition\""), std::string::npos)
      << zoom;

  std::string stats = MustRoundtrip(client, "STATS");
  EXPECT_NE(stats.find("\"backend\":\"grid\""), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"has_solution\":true"), std::string::npos) << stats;
  MustRoundtrip(client, "CLOSE");
}

TEST(ServerBackendTest, ExactSessionsKeepTheHistoricalWireFormat) {
  auto server = StartServer();
  LineClient client = ConnectTo(*server);
  std::string open =
      MustRoundtrip(client, "OPEN dataset=clustered n=300 dim=2 seed=5");
  EXPECT_NE(open.find("\"ok\":true"), std::string::npos) << open;
  // The backend field appears only off the default: every pre-backend
  // transcript stays byte-identical.
  EXPECT_EQ(open.find("backend"), std::string::npos) << open;
  std::string stats = MustRoundtrip(client, "STATS");
  EXPECT_EQ(stats.find("backend"), std::string::npos) << stats;
  MustRoundtrip(client, "CLOSE");
}

TEST(ServerBackendTest, GraphModeResponsesMatchADirectEngineByteForByte) {
  auto server = StartServer();
  LineClient client = ConnectTo(*server);
  MustRoundtrip(client,
                "OPEN dataset=clustered n=400 dim=4 seed=9 backend=grid");

  EngineConfig config;
  config.dataset = DatasetSpec::Clustered(400, 4, 9);
  config.neighbor.kind = NeighborBackendKind::kGrid;
  auto engine = DiscEngine::Create(std::move(config));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  DiversifyRequest request;
  request.radius = 0.1;
  auto expected = (*engine)->Diversify(request);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  std::string wire = MustRoundtrip(client, "DIVERSIFY r=0.1");
  std::string prefix = SerializeDiversifyResponse(
      Verb::kDiversify, *expected, /*include_wall_ms=*/false);
  prefix.pop_back();  // drop the closing brace before the wall_ms field
  EXPECT_EQ(wire.rfind(prefix, 0), 0u) << wire;
  MustRoundtrip(client, "CLOSE");
}

TEST(ServerBackendTest, BackendIsPartOfThePoolingIdentity) {
  auto server = StartServer();
  LineClient client = ConnectTo(*server);

  // Same dataset, three backends: each first OPEN builds a fresh engine.
  MustRoundtrip(client, "OPEN dataset=clustered n=300 dim=2 seed=5");
  MustRoundtrip(client, "CLOSE");
  std::string grid_open = MustRoundtrip(
      client, "OPEN dataset=clustered n=300 dim=2 seed=5 backend=grid");
  EXPECT_NE(grid_open.find("\"reused\":false"), std::string::npos)
      << grid_open;
  MustRoundtrip(client, "DIVERSIFY r=0.08");
  MustRoundtrip(client, "CLOSE");

  // Reopening the same (dataset, backend) leases the pooled engine back,
  // and its memoized solution returns as an honest cache hit.
  std::string reopened = MustRoundtrip(
      client, "OPEN dataset=clustered n=300 dim=2 seed=5 backend=grid");
  EXPECT_NE(reopened.find("\"reused\":true"), std::string::npos) << reopened;
  std::string warm = MustRoundtrip(client, "DIVERSIFY r=0.08");
  EXPECT_NE(warm.find("\"from_cache\":true"), std::string::npos) << warm;
  MustRoundtrip(client, "CLOSE");

  // The M-tree engine's memo was never shared with the graph-mode one.
  std::string exact = MustRoundtrip(
      client, "OPEN dataset=clustered n=300 dim=2 seed=5");
  EXPECT_NE(exact.find("\"reused\":true"), std::string::npos) << exact;
  std::string cold = MustRoundtrip(client, "DIVERSIFY r=0.08");
  EXPECT_NE(cold.find("\"from_cache\":false"), std::string::npos) << cold;
  MustRoundtrip(client, "CLOSE");
}

TEST(ServerBackendTest, OperatorDefaultAppliesOnlyWithoutTheField) {
  ServerOptions options;
  options.default_backend = NeighborBackendKind::kGrid;
  auto server = StartServer(std::move(options));
  LineClient client = ConnectTo(*server);

  std::string defaulted =
      MustRoundtrip(client, "OPEN dataset=clustered n=300 dim=2 seed=5");
  EXPECT_NE(defaulted.find("\"backend\":\"grid\""), std::string::npos)
      << defaulted;
  MustRoundtrip(client, "CLOSE");

  // An explicit backend=exact overrides the operator default.
  std::string exact = MustRoundtrip(
      client, "OPEN dataset=clustered n=300 dim=2 seed=5 backend=exact");
  EXPECT_NE(exact.find("\"ok\":true"), std::string::npos) << exact;
  EXPECT_EQ(exact.find("backend"), std::string::npos) << exact;
  MustRoundtrip(client, "CLOSE");
}

TEST(ServerBackendTest, UnknownBackendValueIsAnErrorLine) {
  auto server = StartServer();
  LineClient client = ConnectTo(*server);
  std::string bad = MustRoundtrip(
      client, "OPEN dataset=clustered n=300 dim=2 seed=5 backend=bogus");
  EXPECT_NE(bad.find("\"ok\":false"), std::string::npos) << bad;
  EXPECT_NE(bad.find("\"code\":\"InvalidArgument\""), std::string::npos)
      << bad;
  EXPECT_NE(bad.find("unknown neighbor backend"), std::string::npos) << bad;

  // The failed OPEN leaves the connection usable.
  std::string good =
      MustRoundtrip(client, "OPEN dataset=clustered n=200 dim=2 seed=5");
  EXPECT_NE(good.find("\"ok\":true"), std::string::npos) << good;
  MustRoundtrip(client, "CLOSE");
}

}  // namespace
}  // namespace disc
