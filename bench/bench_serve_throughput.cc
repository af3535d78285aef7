// Serving throughput: the framing-matrix benchmark.
//
// CI runs this binary three times — DISC_SERVE_LOOP=event (line
// protocol), DISC_SERVE_LOOP=http (HTTP/1.1 framing: same commands as POST
// /diversify bodies over keep-alive connections), and DISC_SERVE_LOOP=batch
// (BATCH envelope: each client ships all its rounds as ONE frame, so
// `req_ms` is the per-command latency *amortized* over the unit) — and
// gates every leg on its own (bench/diff_bench_json.py):
//   * correctness: `mismatches` must be 0 — every response a client
//     received, coalesced or not, and whatever the framing, is
//     byte-identical (minus the trailing wall_ms) to a direct DiscEngine
//     call on a replica engine (for HTTP, the response *body* is exactly
//     the protocol line);
//   * coalescing: `computations` (the clients' STATS computations, summed)
//     must be at most kRounds — the daemon computes each round once and
//     fans it out, whichever framing carried the requests;
//   * bounds: an absolute requests/sec floor and p99 ceiling keep the
//     wall-clock numbers honest.
//
// The workload: kClients connections each OPEN the same clustered dataset
// (separate engine leases — sessions never share a live engine), then run
// kRounds rounds where every client issues the SAME fresh-radius DIVERSIFY
// concurrently. Fresh radii keep every round's computation cold (no
// engine-cache hits); identical requests within a round are exactly what
// the single-flight table coalesces. Per-request wall times feed
// p50/p99; the leg is ambient (the env var), so every leg produces the
// same table keys and google-benchmark names.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <algorithm>
#include <atomic>
#include <latch>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "engine/engine.h"
#include "server/net.h"
#include "server/protocol.h"
#include "server/server.h"
#include "util/stopwatch.h"

namespace disc {
namespace bench {
namespace {

constexpr size_t kClients = 32;
constexpr size_t kRounds = 6;
constexpr size_t kN = 2000;
constexpr uint64_t kSeed = 5;

// The matrix leg this process runs: "event" (default) speaks the line
// protocol, "http" the HTTP/1.1 framing (the server auto-detects per
// connection), and "batch" ships each client's rounds as one BATCH frame.
struct BenchLeg {
  bool http = false;
  bool batch = false;
};

BenchLeg BenchLoop() {
  static const BenchLeg leg = [] {
    const char* env = std::getenv("DISC_SERVE_LOOP");
    if (env != nullptr && std::strcmp(env, "http") == 0) {
      return BenchLeg{true, false};
    }
    if (env != nullptr && std::strcmp(env, "batch") == 0) {
      return BenchLeg{false, true};
    }
    return BenchLeg{};
  }();
  return leg;
}

// One connection on either framing; Roundtrip("VERB args") always yields
// the protocol's one-line JSON response, so the replica-prefix check is
// transport-agnostic. HTTP mode lowercases the verb into the path and
// ships the args as the POST body, then strips the body's framing '\n'.
class BenchClient {
 public:
  static Result<BenchClient> Connect(const std::string& host, int port,
                                     bool http) {
    BenchClient client;
    client.http_mode_ = http;
    if (http) {
      DISC_ASSIGN_OR_RETURN(HttpClient inner, HttpClient::Connect(host, port));
      client.http_.emplace(std::move(inner));
    } else {
      DISC_ASSIGN_OR_RETURN(LineClient inner, LineClient::Connect(host, port));
      client.line_.emplace(std::move(inner));
    }
    return client;
  }

  Result<std::string> Roundtrip(const std::string& command) {
    if (!http_mode_) return line_->Roundtrip(command);
    const size_t space = command.find(' ');
    std::string verb = command.substr(0, space);
    for (char& c : verb) {
      if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    }
    const std::string args =
        space == std::string::npos ? "" : command.substr(space + 1);
    DISC_ASSIGN_OR_RETURN(HttpResponse response,
                          http_->Post("/" + verb, args));
    std::string body = std::move(response.body);
    if (!body.empty() && body.back() == '\n') body.pop_back();
    return body;
  }

  /// Ships `commands` as one BATCH frame (line framing only) and reads the
  /// one-response-per-command lines back.
  Result<std::vector<std::string>> Batch(
      const std::vector<std::string>& commands) {
    DISC_RETURN_NOT_OK(
        line_->SendLine("BATCH n=" + std::to_string(commands.size())));
    for (const std::string& command : commands) {
      DISC_RETURN_NOT_OK(line_->SendLine(command));
    }
    std::vector<std::string> responses;
    responses.reserve(commands.size());
    for (size_t i = 0; i < commands.size(); ++i) {
      DISC_ASSIGN_OR_RETURN(std::string line, line_->RecvLine());
      responses.push_back(std::move(line));
    }
    return responses;
  }

 private:
  bool http_mode_ = false;
  std::optional<LineClient> line_;
  std::optional<HttpClient> http_;
};

// The leg is deliberately NOT a table column: the cross-leg diff keys rows
// by their labels, and both legs must produce the same keys (wall times
// live in *_ms / rps columns, which the deterministic gate ignores).
TableCollector* ServeTable() {
  static TableCollector table(
      "Serve throughput (transport from DISC_SERVE_LOOP)",
      "serve_throughput.csv",
      {"workload", "clients", "rounds", "requests", "mismatches",
       "computations", "rps", "req_ms", "p50_ms", "p99_ms"});
  return &table;
}

/// The per-round command and its expected response prefix (everything up
/// to the machine-dependent wall_ms), computed on a direct replica engine.
struct RoundSpec {
  std::string command;
  std::string expected_prefix;
};

std::vector<RoundSpec> BuildRounds() {
  EngineConfig config;
  config.dataset = DatasetSpec::Clustered(kN, 2, kSeed);
  auto engine = DiscEngine::Create(config);
  if (!engine.ok()) {
    std::fprintf(stderr, "replica engine failed: %s\n",
                 engine.status().ToString().c_str());
    std::exit(1);
  }
  std::vector<RoundSpec> rounds;
  rounds.reserve(kRounds);
  for (size_t k = 0; k < kRounds; ++k) {
    char radius_text[32];
    std::snprintf(radius_text, sizeof(radius_text), "%.4f",
                  0.030 + 0.0005 * static_cast<double>(k));
    RoundSpec spec;
    spec.command = std::string("DIVERSIFY r=") + radius_text;
    DiversifyRequest request;
    // Parse the formatted text so the replica computes with the exact
    // double the server will decode from the wire.
    request.radius = std::strtod(radius_text, nullptr);
    auto result = (*engine)->Diversify(request);
    if (!result.ok()) {
      std::fprintf(stderr, "replica diversify failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    std::string line = SerializeDiversifyResponse(
        Verb::kDiversify, *result, /*include_wall_ms=*/false);
    spec.expected_prefix = line.substr(0, line.size() - 1);  // drop '}'
    rounds.push_back(std::move(spec));
  }
  return rounds;
}

void BM_ServeThroughput(benchmark::State& state) {
  const BenchLeg leg = BenchLoop();
  ServerOptions options;
  options.port = 0;
  options.workers = 4;  // a small fixed compute pool is the whole point
  options.max_idle_engines = kClients;
  auto server_or = DiscServer::Start(options);
  if (!server_or.ok()) {
    state.SkipWithError(server_or.status().ToString().c_str());
    return;
  }
  std::unique_ptr<DiscServer> server = std::move(server_or).value();

  const std::vector<RoundSpec> rounds = BuildRounds();

  // Connect + OPEN every client up front (setup, not measured). The OPENs
  // run concurrently; each builds or leases its own engine.
  std::vector<std::unique_ptr<BenchClient>> clients(kClients);
  std::atomic<size_t> open_failures{0};
  {
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (size_t i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i] {
        auto client =
            BenchClient::Connect("127.0.0.1", server->port(), leg.http);
        if (!client.ok()) {
          open_failures.fetch_add(1);
          return;
        }
        clients[i] =
            std::make_unique<BenchClient>(std::move(client).value());
        char open[96];
        std::snprintf(open, sizeof(open),
                      "OPEN dataset=clustered n=%zu dim=2 seed=%llu", kN,
                      static_cast<unsigned long long>(kSeed));
        auto response = clients[i]->Roundtrip(open);
        if (!response.ok() ||
            response->find("\"ok\":true") == std::string::npos) {
          open_failures.fetch_add(1);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  if (open_failures.load() > 0) {
    state.SkipWithError("client OPEN phase failed");
    return;
  }

  std::vector<double> request_ms;
  request_ms.reserve(kClients * kRounds);
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> requests{0};
  double total_ms = 0.0;

  for (auto _ : state) {
    std::vector<std::vector<double>> per_client_ms(kClients);
    Stopwatch total;
    if (leg.batch) {
      // One BATCH frame per client carrying every round's command: the
      // per-command latency is the frame's wall time amortized over its
      // commands. Responses must still match the replica round by round.
      std::vector<std::string> commands;
      commands.reserve(rounds.size());
      for (const RoundSpec& round : rounds) {
        commands.push_back(round.command);
      }
      std::latch start(static_cast<ptrdiff_t>(kClients));
      std::vector<std::thread> threads;
      threads.reserve(kClients);
      for (size_t i = 0; i < kClients; ++i) {
        threads.emplace_back([&, i] {
          start.arrive_and_wait();
          Stopwatch watch;
          auto responses = clients[i]->Batch(commands);
          const double ms = watch.ElapsedMillis();
          requests.fetch_add(rounds.size());
          if (!responses.ok() || responses->size() != rounds.size()) {
            mismatches.fetch_add(rounds.size());
            return;
          }
          const double amortized_ms =
              ms / static_cast<double>(rounds.size());
          for (size_t k = 0; k < rounds.size(); ++k) {
            if ((*responses)[k].rfind(rounds[k].expected_prefix, 0) != 0) {
              mismatches.fetch_add(1);
            } else {
              per_client_ms[i].push_back(amortized_ms);
            }
          }
        });
      }
      for (std::thread& thread : threads) thread.join();
    } else {
      for (const RoundSpec& round : rounds) {
        std::latch start(static_cast<ptrdiff_t>(kClients));
        std::vector<std::thread> threads;
        threads.reserve(kClients);
        for (size_t i = 0; i < kClients; ++i) {
          threads.emplace_back([&, i] {
            start.arrive_and_wait();
            Stopwatch watch;
            auto response = clients[i]->Roundtrip(round.command);
            const double ms = watch.ElapsedMillis();
            requests.fetch_add(1);
            if (!response.ok() ||
                response->rfind(round.expected_prefix, 0) != 0) {
              mismatches.fetch_add(1);
              return;
            }
            per_client_ms[i].push_back(ms);
          });
        }
        for (std::thread& thread : threads) thread.join();
      }
    }
    total_ms = total.ElapsedMillis();
    request_ms.clear();
    for (const auto& samples : per_client_ms) {
      request_ms.insert(request_ms.end(), samples.begin(), samples.end());
    }
  }

  // Engine work the daemon actually did: every session's STATS
  // computations, summed before the CLOSEs release the engines.
  size_t computations = 0;
  for (size_t i = 0; i < kClients; ++i) {
    auto stats = clients[i]->Roundtrip("STATS");
    const std::string key = "\"computations\":";
    const size_t at = stats.ok() ? stats->find(key) : std::string::npos;
    if (at == std::string::npos) {
      mismatches.fetch_add(1);
    } else {
      computations +=
          std::strtoull(stats->c_str() + at + key.size(), nullptr, 10);
    }
    auto response = clients[i]->Roundtrip("CLOSE");
    if (!response.ok()) mismatches.fetch_add(1);
  }
  clients.clear();
  server->Shutdown();

  std::sort(request_ms.begin(), request_ms.end());
  auto percentile = [&](double p) {
    if (request_ms.empty()) return 0.0;
    const size_t at = std::min(
        request_ms.size() - 1,
        static_cast<size_t>(p * static_cast<double>(request_ms.size())));
    return request_ms[at];
  };
  const double p50 = percentile(0.50);
  const double p99 = percentile(0.99);
  const double total_requests = static_cast<double>(kClients * kRounds);
  const double rps =
      total_ms > 0 ? total_requests / (total_ms / 1000.0) : 0.0;
  double sum_ms = 0.0;
  for (double ms : request_ms) sum_ms += ms;
  const double req_ms =
      request_ms.empty() ? 0.0
                         : sum_ms / static_cast<double>(request_ms.size());

  state.counters["requests"] = static_cast<double>(requests.load());
  state.counters["mismatches"] = static_cast<double>(mismatches.load());
  state.counters["computations"] = static_cast<double>(computations);
  state.counters["rps"] = rps;
  state.counters["req_ms"] = req_ms;
  state.counters["p50_ms"] = p50;
  state.counters["p99_ms"] = p99;
  ServeTable()->AddRow(
      {"clustered-identical", std::to_string(kClients),
       std::to_string(kRounds), std::to_string(requests.load()),
       std::to_string(mismatches.load()), std::to_string(computations),
       FormatDouble(rps, 4),
       FormatDouble(req_ms, 4), FormatDouble(p50, 4),
       FormatDouble(p99, 4)});
}

[[maybe_unused]] const bool registered = [] {
  benchmark::RegisterBenchmark(
      "Serve/Throughput/clients=32",
      [](benchmark::State& state) { BM_ServeThroughput(state); })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  return true;
}();

}  // namespace
}  // namespace bench
}  // namespace disc

DISC_BENCH_MAIN()
