// Million-point serving smoke (slow label, nightly CI): a 1M-point OPEN —
// refused by the exact engine under the default guardrail — goes end to
// end through the event-loop server on the grid backend, which the cap
// exempts for low-dimensional Minkowski inputs: OPEN creates the grid
// engine, DIVERSIFY builds the exact neighborhood graph and computes a
// graph-mode solution, a repeat is a cache hit, STATS reports the session,
// CLOSE returns the engine.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "server/net.h"
#include "server/server.h"

namespace disc {
namespace {

std::string MustRoundtrip(LineClient& client, const std::string& line) {
  auto response = client.Roundtrip(line);
  EXPECT_TRUE(response.ok()) << line << ": "
                             << response.status().ToString();
  return response.ok() ? *response : "";
}

TEST(ServerScaleTest, MillionPointSessionServesThroughGrid) {
  ServerOptions options;
  options.host = "127.0.0.1";
  options.port = 0;
  auto server = DiscServer::Start(std::move(options));
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto client = LineClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // The default exact-family cap (262144) would refuse this dataset on the
  // exact backend; the grid is the supported way past it in 2-D.
  std::string open = MustRoundtrip(
      *client, "OPEN dataset=uniform n=1000000 dim=2 seed=42 backend=grid");
  ASSERT_NE(open.find("\"ok\":true"), std::string::npos) << open;
  EXPECT_NE(open.find("\"n\":1000000"), std::string::npos) << open;
  EXPECT_NE(open.find("\"backend\":\"grid\""), std::string::npos) << open;

  std::string diversify =
      MustRoundtrip(*client, "DIVERSIFY r=0.003 algo=basic");
  ASSERT_NE(diversify.find("\"ok\":true"), std::string::npos) << diversify;
  // The graph is exact, so the Basic-DisC solution size is pinned.
  EXPECT_NE(diversify.find("\"size\":65330,"), std::string::npos)
      << diversify;

  // A repeat is an honest cache hit — the graph is not rebuilt.
  std::string warm = MustRoundtrip(*client, "DIVERSIFY r=0.003 algo=basic");
  EXPECT_NE(warm.find("\"from_cache\":true"), std::string::npos) << warm;

  std::string stats = MustRoundtrip(*client, "STATS");
  EXPECT_NE(stats.find("\"backend\":\"grid\""), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"has_solution\":true"), std::string::npos) << stats;

  EXPECT_EQ(MustRoundtrip(*client, "CLOSE"),
            "{\"ok\":true,\"cmd\":\"CLOSE\"}");

  SessionManagerStats manager = (*server)->manager_stats();
  EXPECT_EQ(manager.leases_released, manager.leases_acquired);
  (*server)->Shutdown();
}

}  // namespace
}  // namespace disc
