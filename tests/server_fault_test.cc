// Fault-injection tests for the event-loop transport: hostile or unlucky
// clients must never wedge the daemon or leak engine leases.
//
// Scenarios (ISSUE 6): a slow-loris client dribbling bytes, a client that
// disconnects mid-request, a client that never reads its responses, an
// overload burst answered with BUSY instead of an unbounded backlog, and a
// shutdown that still delivers the in-flight response. ISSUE 7 adds the
// HTTP-transport legs: a slow loris trickling header bytes and a client
// that vanishes mid-body (Content-Length promised, a fraction delivered).
// After every scenario the session manager's lease counters must balance —
// a crashed or dropped connection may not strand an engine outside the
// pool.

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "server/net.h"
#include "server/server.h"

namespace disc {
namespace {

std::unique_ptr<DiscServer> StartFaultServer(ServerOptions options) {
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

bool PollUntil(const std::function<bool()>& done,
               std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return done();
}

/// Every lease handed out has been returned to the manager: no connection
/// teardown path stranded an engine.
void ExpectNoLeakedLeases(const DiscServer& server) {
  EXPECT_TRUE(PollUntil(
      [&] {
        SessionManagerStats stats = server.manager_stats();
        return stats.leases_released == stats.leases_acquired;
      },
      std::chrono::seconds(10)))
      << "leases_acquired=" << server.manager_stats().leases_acquired
      << " leases_released=" << server.manager_stats().leases_released;
}

void SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t wrote = ::send(fd, bytes.data() + sent,
                                 bytes.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(wrote, 0) << "send failed: errno=" << errno;
    sent += static_cast<size_t>(wrote);
  }
}

// ---------------------------------------------------------------------------
// Slow and hostile readers/writers
// ---------------------------------------------------------------------------

TEST(ServerFaultTest, SlowLorisClientDoesNotStallOtherSessions) {
  auto server = StartFaultServer(ServerOptions{});

  // The loris dribbles one OPEN command a few bytes at a time, never
  // giving the loop a complete line.
  auto loris_fd = ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(loris_fd.ok()) << loris_fd.status().ToString();
  const std::string command = "OPEN dataset=clustered n=300 dim=2 seed=9\n";
  const size_t half = command.size() / 2;
  SendAll(*loris_fd, command.substr(0, 4));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  SendAll(*loris_fd, command.substr(4, half - 4));

  // While the loris holds its half-written line, a well-behaved client
  // gets full service on the same loop thread.
  {
    LineClient client = ConnectTo(*server);
    EXPECT_NE(MustRoundtrip(client,
                            "OPEN dataset=clustered n=300 dim=2 seed=9")
                  .find("\"ok\":true"),
              std::string::npos);
    EXPECT_NE(MustRoundtrip(client, "DIVERSIFY r=0.08")
                  .find("\"ok\":true"),
              std::string::npos);
    MustRoundtrip(client, "CLOSE");
  }

  // The loris eventually finishes its line and is served normally: slow
  // is not an error, just slow.
  SendAll(*loris_fd, command.substr(half));
  LineChannel loris(*loris_fd);
  auto open = loris.ReadLine();
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  EXPECT_NE(open->find("\"ok\":true"), std::string::npos) << *open;
  SendAll(*loris_fd, "CLOSE\n");
  auto close = loris.ReadLine();
  ASSERT_TRUE(close.ok()) << close.status().ToString();
  EXPECT_NE(close->find("\"ok\":true"), std::string::npos) << *close;
  int fd = *loris_fd;
  CloseSocket(&fd);

  ExpectNoLeakedLeases(*server);
}

TEST(ServerFaultTest, MidRequestDisconnectReleasesTheLease) {
  auto server = StartFaultServer(ServerOptions{});
  {
    LineClient client = ConnectTo(*server);
    ASSERT_NE(MustRoundtrip(client,
                            "OPEN dataset=clustered n=800 dim=2 seed=13")
                  .find("\"ok\":true"),
              std::string::npos);
    // Fire a computation and vanish before the response can be written.
    ASSERT_TRUE(client.SendLine("DIVERSIFY r=0.05").ok());
  }  // ~LineClient closes the socket mid-request

  // The worker still finishes the computation; the dead connection is then
  // destroyed and its engine returns to the pool.
  ExpectNoLeakedLeases(*server);

  // The daemon is unharmed: a fresh session works end to end.
  LineClient after = ConnectTo(*server);
  EXPECT_NE(MustRoundtrip(after,
                          "OPEN dataset=clustered n=800 dim=2 seed=13")
                .find("\"ok\":true"),
            std::string::npos);
  EXPECT_NE(MustRoundtrip(after, "DIVERSIFY r=0.05").find("\"ok\":true"),
            std::string::npos);
  MustRoundtrip(after, "CLOSE");
  ExpectNoLeakedLeases(*server);
}

TEST(ServerFaultTest, ClientThatNeverReadsIsTornDownAtTheWriteCap) {
  auto server = StartFaultServer(ServerOptions{});

  auto fd_or = ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(fd_or.ok()) << fd_or.status().ToString();
  int fd = *fd_or;
  // Shrink this side's receive buffer so the kernel absorbs as little of
  // the response flood as possible (the cap triggers sooner).
  int rcvbuf = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));

  LineChannel channel(fd);
  ASSERT_TRUE(
      channel.WriteLine("OPEN dataset=uniform n=3000 dim=2 seed=7").ok());
  auto open = channel.ReadLine();
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  ASSERT_NE(open->find("\"ok\":true"), std::string::npos) << *open;

  // A tiny radius makes nearly every object independent, so each response
  // carries ~n solution ids (~15 KB). Pipelining ~1500 of them without
  // ever reading pushes the unflushed output past kMaxOutBytes by a wide
  // margin, whatever the kernel buffers absorb.
  std::string flood;
  for (int i = 0; i < 1500; ++i) flood += "DIVERSIFY r=0.001\n";
  SendAll(fd, flood);

  // The server answers from the engine cache until the write cap trips,
  // then tears the connection down and reclaims the lease — it never
  // buffers without bound for a client that will not read.
  ExpectNoLeakedLeases(*server);
  EXPECT_TRUE(PollUntil(
      [&] { return server->server_stats().active_connections == 0; },
      std::chrono::seconds(10)));
  CloseSocket(&fd);

  // Service is unaffected afterwards.
  LineClient after = ConnectTo(*server);
  EXPECT_NE(MustRoundtrip(after,
                          "OPEN dataset=clustered n=300 dim=2 seed=9")
                .find("\"ok\":true"),
            std::string::npos);
  MustRoundtrip(after, "CLOSE");
  ExpectNoLeakedLeases(*server);
}

TEST(ServerFaultTest, GarbageBytesGetAnErrorLineNotACrash) {
  auto server = StartFaultServer(ServerOptions{});
  auto fd_or = ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(fd_or.ok()) << fd_or.status().ToString();
  int fd = *fd_or;

  // Binary junk with embedded NULs and invalid UTF-8, newline-terminated
  // so it parses as one "line" (explicit length: the literal contains
  // NULs, so a plain const char* constructor would truncate it).
  static const char kJunk[] = "\x01\x00\xff\xfe DIVERSIFY\x00 r=\xc3\x28\n";
  SendAll(fd, std::string(kJunk, sizeof(kJunk) - 1));
  LineChannel channel(fd);
  auto response = channel.ReadLine();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response->find("\"ok\":false"), std::string::npos) << *response;

  // The connection (and the daemon) survive to run a real session.
  ASSERT_TRUE(
      channel.WriteLine("OPEN dataset=clustered n=300 dim=2 seed=9").ok());
  auto open = channel.ReadLine();
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  EXPECT_NE(open->find("\"ok\":true"), std::string::npos) << *open;
  ASSERT_TRUE(channel.WriteLine("CLOSE").ok());
  auto close = channel.ReadLine();
  ASSERT_TRUE(close.ok());
  CloseSocket(&fd);
  ExpectNoLeakedLeases(*server);
}

// ---------------------------------------------------------------------------
// HTTP transport faults (the same loop, different framing)
// ---------------------------------------------------------------------------

/// Blocking reads until `needle` shows up in the accumulated bytes (or the
/// peer closes / errors); returns everything read.
std::string RecvUntil(int fd, const std::string& needle) {
  std::string got;
  char chunk[4096];
  while (got.find(needle) == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    got.append(chunk, static_cast<size_t>(n));
  }
  return got;
}

TEST(ServerFaultTest, HttpSlowLorisDoesNotStallOtherSessions) {
  auto server = StartFaultServer(ServerOptions{});

  // The loris trickles an HTTP POST — method, then header bytes — never
  // completing the request.
  auto loris_fd = ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(loris_fd.ok()) << loris_fd.status().ToString();
  const std::string body = "dataset=clustered n=300 dim=2 seed=9";
  const std::string request =
      "POST /open HTTP/1.1\r\nHost: disc\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body;
  const size_t half = request.size() / 2;
  SendAll(*loris_fd, request.substr(0, 6));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  SendAll(*loris_fd, request.substr(6, half - 6));

  // Meanwhile a well-behaved HTTP client gets full service on the same
  // loop thread.
  {
    auto client = HttpClient::Connect("127.0.0.1", server->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    auto open =
        client->Post("/open", "dataset=clustered n=300 dim=2 seed=9");
    ASSERT_TRUE(open.ok()) << open.status().ToString();
    EXPECT_EQ(open->status, 200) << open->body;
    auto wire = client->Post("/diversify", "r=0.08");
    ASSERT_TRUE(wire.ok());
    EXPECT_EQ(wire->status, 200) << wire->body;
    auto close = client->Post("/close", "");
    ASSERT_TRUE(close.ok());
  }

  // The loris eventually completes its request and is served normally.
  SendAll(*loris_fd, request.substr(half));
  std::string response = RecvUntil(*loris_fd, "\"ok\":true");
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("\"cmd\":\"OPEN\""), std::string::npos)
      << response;
  int fd = *loris_fd;
  CloseSocket(&fd);

  ExpectNoLeakedLeases(*server);
}

TEST(ServerFaultTest, HttpMidBodyDisconnectReleasesTheLease) {
  auto server = StartFaultServer(ServerOptions{});
  {
    auto fd_or = ConnectTcp("127.0.0.1", server->port());
    ASSERT_TRUE(fd_or.ok()) << fd_or.status().ToString();
    int fd = *fd_or;
    const std::string body = "dataset=clustered n=800 dim=2 seed=13";
    SendAll(fd,
            "POST /open HTTP/1.1\r\nHost: disc\r\nContent-Length: " +
                std::to_string(body.size()) + "\r\n\r\n" + body);
    std::string open = RecvUntil(fd, "\"ok\":true");
    ASSERT_NE(open.find("200 OK"), std::string::npos) << open;

    // Promise a 100-byte body, deliver 10 bytes, vanish.
    SendAll(fd,
            "POST /diversify HTTP/1.1\r\nHost: disc\r\n"
            "Content-Length: 100\r\n\r\nr=0.05 tru");
    CloseSocket(&fd);
  }

  // The half-delivered request is never dispatched; the dead connection is
  // destroyed and its engine returns to the pool.
  ExpectNoLeakedLeases(*server);

  // The daemon is unharmed: a fresh HTTP session works end to end.
  auto after = HttpClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  auto open = after->Post("/open", "dataset=clustered n=800 dim=2 seed=13");
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  EXPECT_EQ(open->status, 200) << open->body;
  auto wire = after->Post("/diversify", "r=0.05");
  ASSERT_TRUE(wire.ok());
  EXPECT_EQ(wire->status, 200) << wire->body;
  auto close = after->Post("/close", "");
  ASSERT_TRUE(close.ok());
  ExpectNoLeakedLeases(*server);
}

TEST(ServerFaultTest, HttpGarbageGetsA400AndTheConnectionCloses) {
  auto server = StartFaultServer(ServerOptions{});
  auto fd_or = ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(fd_or.ok()) << fd_or.status().ToString();
  int fd = *fd_or;

  // An HTTP-looking prefix (so the connection detects as HTTP) followed by
  // a malformed request line: the framing error is unrecoverable, so the
  // server answers 400 and closes.
  SendAll(fd, "GET garbage\r\n\r\n");
  std::string response = RecvUntil(fd, "\r\n\r\n");
  EXPECT_NE(response.find("400 Bad Request"), std::string::npos) << response;
  EXPECT_NE(response.find("Connection: close"), std::string::npos)
      << response;
  // EOF follows (the server tore the connection down).
  std::string rest = RecvUntil(fd, "\xff never-matches");
  CloseSocket(&fd);

  ExpectNoLeakedLeases(*server);
}

// ---------------------------------------------------------------------------
// Overload and shutdown
// ---------------------------------------------------------------------------

TEST(ServerFaultTest, OverloadIsAnsweredWithBusyNotABacklog) {
  ServerOptions options;
  options.workers = 1;
  options.max_pending = 0;  // one computation in the system, zero queued
  auto server = StartFaultServer(std::move(options));

  constexpr int kClients = 4;
  std::vector<LineClient> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(ConnectTo(*server));
    ASSERT_NE(MustRoundtrip(clients.back(),
                            "OPEN dataset=clustered n=1500 dim=2 seed=21")
                  .find("\"ok\":true"),
              std::string::npos);
  }

  // Bursts of concurrent DIVERSIFYs with distinct radii (so nothing
  // coalesces). With a budget of one job, each burst should admit one
  // computation and refuse the overlap with BUSY. Retry a few rounds to
  // be robust against a burst happening to serialize.
  std::atomic<int> ok_count{0};
  std::atomic<int> busy_count{0};
  for (int round = 0; round < 8 && busy_count.load() == 0; ++round) {
    std::latch start(kClients);
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i, round] {
        char command[64];
        std::snprintf(command, sizeof(command), "DIVERSIFY r=%.4f",
                      0.03 + 0.002 * i + 0.0001 * round);
        start.arrive_and_wait();
        std::string response = MustRoundtrip(clients[i], command);
        if (response.find("\"ok\":true") != std::string::npos) {
          ok_count.fetch_add(1);
        } else if (response.find("\"code\":\"Busy\"") != std::string::npos) {
          busy_count.fetch_add(1);
        } else {
          ADD_FAILURE() << "neither ok nor busy: " << response;
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  EXPECT_GE(ok_count.load(), 1) << "no burst admitted any computation";
  EXPECT_GE(busy_count.load(), 1) << "no burst produced a BUSY rejection";
  EXPECT_GE(server->server_stats().busy_rejections, 1u);

  // BUSY is a per-request verdict, not a connection state: once the burst
  // drains, the same connections compute again.
  for (int i = 0; i < kClients; ++i) {
    char command[64];
    std::snprintf(command, sizeof(command), "DIVERSIFY r=%.4f",
                  0.05 + 0.002 * i);
    EXPECT_NE(MustRoundtrip(clients[i], command).find("\"ok\":true"),
              std::string::npos);
    MustRoundtrip(clients[i], "CLOSE");
  }
  clients.clear();
  ExpectNoLeakedLeases(*server);
}

TEST(ServerFaultTest, ExactOpenAboveTheCapIsRefusedWithoutTakingTheDaemon) {
  ServerOptions options;
  options.max_exact_points = 300;
  auto server = StartFaultServer(std::move(options));
  LineClient client = ConnectTo(*server);

  // Where the grid applies, the oversized exact OPEN is refused with an
  // error line — never an index build the grid does in near-linear time.
  std::string refused = MustRoundtrip(
      client, "OPEN dataset=clustered n=400 dim=2 seed=9");
  EXPECT_NE(refused.find("\"ok\":false"), std::string::npos) << refused;
  EXPECT_NE(refused.find("\"code\":\"InvalidArgument\""), std::string::npos)
      << refused;
  // 2-D Euclidean: the refusal names the grid, which applies here.
  EXPECT_NE(refused.find("dataset has 400 points, above the exact-backend "
                         "cap of 300; use the grid neighbor backend"),
            std::string::npos)
      << refused;

  // The daemon is alive and the connection usable: the grid is exempt from
  // the cap where it applies, so the same dataset opens in graph mode.
  std::string opened = MustRoundtrip(
      client, "OPEN dataset=clustered n=400 dim=2 seed=9 backend=grid");
  EXPECT_NE(opened.find("\"ok\":true"), std::string::npos) << opened;
  EXPECT_NE(opened.find("\"backend\":\"grid\""), std::string::npos)
      << opened;
  EXPECT_NE(MustRoundtrip(client, "DIVERSIFY r=0.08").find("\"ok\":true"),
            std::string::npos);
  MustRoundtrip(client, "CLOSE");

  // Under-cap exact OPENs are untouched by the guardrail.
  EXPECT_NE(MustRoundtrip(client,
                          "OPEN dataset=clustered n=200 dim=2 seed=9")
                .find("\"ok\":true"),
            std::string::npos);
  MustRoundtrip(client, "CLOSE");
  ExpectNoLeakedLeases(*server);
}

TEST(ServerFaultTest, NonGridOpenAboveTheCapServesOnExact) {
  ServerOptions options;
  options.max_exact_points = 300;
  auto server = StartFaultServer(std::move(options));
  LineClient client = ConnectTo(*server);

  // Dim 4: the grid would fall back to the O(n^2) scan, so it is the
  // refused kind, and the refusal names the exact backend.
  std::string refused = MustRoundtrip(
      client, "OPEN dataset=clustered n=400 dim=4 seed=9 backend=grid");
  EXPECT_NE(refused.find("\"ok\":false"), std::string::npos) << refused;
  EXPECT_NE(refused.find("\"code\":\"InvalidArgument\""), std::string::npos)
      << refused;
  EXPECT_NE(refused.find("dataset has 400 points, above the exact-backend "
                         "cap of 300; the grid would fall back to the O(n^2) "
                         "scan (euclidean metric, dim 4), so use the exact "
                         "neighbor backend"),
            std::string::npos)
      << refused;

  // The same dataset opens on the exact backend: the one-tree session,
  // which zooms.
  std::string opened =
      MustRoundtrip(client, "OPEN dataset=clustered n=400 dim=4 seed=9");
  EXPECT_NE(opened.find("\"ok\":true"), std::string::npos) << opened;
  EXPECT_EQ(opened.find("backend"), std::string::npos) << opened;
  EXPECT_NE(MustRoundtrip(client, "DIVERSIFY r=0.1").find("\"ok\":true"),
            std::string::npos);
  std::string zoomed = MustRoundtrip(client, "ZOOM to=0.08");
  EXPECT_NE(zoomed.find("\"ok\":true"), std::string::npos) << zoomed;
  MustRoundtrip(client, "CLOSE");
  ExpectNoLeakedLeases(*server);
}

TEST(ServerFaultTest, ShutdownDrainsTheInFlightComputation) {
  auto server = StartFaultServer(ServerOptions{});
  LineClient client = ConnectTo(*server);
  ASSERT_NE(MustRoundtrip(client,
                          "OPEN dataset=clustered n=2000 dim=2 seed=33")
                .find("\"ok\":true"),
            std::string::npos);

  // Fire a computation, give the loop a moment to dispatch it, then shut
  // down while it is (very likely) still executing.
  ASSERT_TRUE(client.SendLine("DIVERSIFY r=0.03").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server->Shutdown();

  // Drain semantics: the in-flight job ran to completion and its response
  // was flushed before the connection closed.
  auto response = client.RecvLine();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response->find("\"ok\":true"), std::string::npos) << *response;
  EXPECT_NE(response->find("\"cmd\":\"DIVERSIFY\""), std::string::npos)
      << *response;
  // ...and nothing after it: the server is gone.
  EXPECT_FALSE(client.RecvLine().ok());

  SessionManagerStats stats = server->manager_stats();
  EXPECT_EQ(stats.leases_released, stats.leases_acquired);
}

}  // namespace
}  // namespace disc
