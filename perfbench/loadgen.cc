// perfbench_loadgen — the repository benchmark's load generator.
//
//   perfbench_loadgen --workload=<name> --seed=<n> --seconds=<s>
//                     --trace=<0|1> [--out=<dir>] [--git-sha=<sha>]
//
// Starts disc_serve as a child process (default flags plus --port=0) seven
// times; each start is timed from launch through the warm-up leases, and
// setup_s is the median. The last start (trace 0) serves a closed loop of
// kClients connections for --seconds: each connection sends its next
// command only after the previous answer arrived. With --trace 1 the
// second-to-last start serves an untraced phase and the last a traced phase
// (client spans) of --seconds / 2 each, then replay.cc replays the traced
// phase's requests in-process against each layer. Every response of every
// phase is checked against a direct DiscEngine replica after the timed
// window. End-to-end figures are medians over slices of the timed window
// (see Slices).
//
// Output: report lines on stdout, then one JSON object as the last line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Exit code 0 only when every response checked out.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <mutex>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cctype>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check.h"
#include "replay.h"
#include "server/net.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// The daemon child process.

struct Daemon {
  pid_t pid = -1;
  int out_fd = -1;
  int err_fd = -1;
  int port = 0;
};

std::vector<std::string> DaemonArgv() {
  return {PERFBENCH_DISC_SERVE, "--port=0"};
}

std::string Joined(const std::vector<std::string>& argv) {
  std::string text;
  for (const std::string& arg : argv) text += (text.empty() ? "" : " ") + arg;
  return text;
}

Daemon StartDaemon() {
  int out[2];
  int err[2];
  if (pipe2(out, O_CLOEXEC) != 0 || pipe2(err, O_CLOEXEC) != 0) {
    Die("pipe failed");
  }
  const std::vector<std::string> args = DaemonArgv();
  const pid_t pid = fork();
  if (pid < 0) Die("fork failed");
  if (pid == 0) {
    // The daemon dies with the benchmark, whatever happens to it.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    dup2(out[1], STDOUT_FILENO);
    dup2(err[1], STDERR_FILENO);
    std::vector<char*> argv;
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(out[1]);
  close(err[1]);
  Daemon daemon;
  daemon.pid = pid;
  daemon.out_fd = out[0];
  daemon.err_fd = err[0];
  // Wait (at most 60 s) for "disc_serve listening on <host>:<port>".
  std::string text;
  const int64_t deadline = NowNs() + 60'000'000'000LL;
  while (text.find('\n') == std::string::npos) {
    pollfd pfd{daemon.out_fd, POLLIN, 0};
    const int64_t left_ms = (deadline - NowNs()) / 1'000'000;
    if (left_ms <= 0 || poll(&pfd, 1, static_cast<int>(left_ms)) <= 0) {
      Die("disc_serve did not start listening");
    }
    char buf[256];
    const ssize_t n = read(daemon.out_fd, buf, sizeof(buf));
    if (n <= 0) Die("disc_serve exited before listening");
    text.append(buf, static_cast<size_t>(n));
  }
  const size_t colon = text.rfind(':');
  if (text.rfind("disc_serve listening on ", 0) != 0 ||
      colon == std::string::npos) {
    Die("unexpected disc_serve banner: " + text);
  }
  daemon.port = std::atoi(text.c_str() + colon + 1);
  return daemon;
}

/// The daemon's VmHWM in MiB.
double PeakRssMb(const Daemon& daemon) {
  std::ifstream status("/proc/" + std::to_string(daemon.pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// SIGTERM, then the exit log line from stderr, then reap.
std::string StopDaemon(Daemon* daemon) {
  kill(daemon->pid, SIGTERM);
  std::string log;
  char buf[4096];
  ssize_t n;
  while ((n = read(daemon->err_fd, buf, sizeof(buf))) > 0 ||
         (n < 0 && errno == EINTR)) {
    if (n > 0) log.append(buf, static_cast<size_t>(n));
  }
  int status = 0;
  while (waitpid(daemon->pid, &status, 0) < 0 && errno == EINTR) {
  }
  close(daemon->out_fd);
  close(daemon->err_fd);
  daemon->pid = -1;
  return log;
}

struct ExitLog {
  size_t leases = 0, pool_hits = 0, built = 0, evicted = 0, connections = 0,
         coalesced = 0, busy = 0;
  bool parsed = false;
};

ExitLog ParseExitLog(const std::string& log) {
  ExitLog out;
  const size_t pos = log.find("disc_serve exiting:");
  if (pos == std::string::npos) return out;
  out.parsed =
      std::sscanf(log.c_str() + pos,
                  "disc_serve exiting: %zu leases (%zu pool hits), %zu engines "
                  "built, %zu evicted; %zu connections, %zu coalesced "
                  "responses, %zu busy rejections",
                  &out.leases, &out.pool_hits, &out.built, &out.evicted,
                  &out.connections, &out.coalesced, &out.busy) == 7;
  return out;
}

// ---------------------------------------------------------------------------
// One client connection, on its framing.

class Client {
 public:
  Client(Framing framing, int port) : framing_(framing) {
    if (framing == Framing::kHttp) {
      auto client = disc::HttpClient::Connect("127.0.0.1", port);
      if (!client.ok()) Die(client.status().ToString());
      http_.emplace(std::move(client).value());
    } else {
      auto client = disc::LineClient::Connect("127.0.0.1", port);
      if (!client.ok()) Die(client.status().ToString());
      line_.emplace(std::move(client).value());
    }
  }

  /// Sends one exchange and returns one response per command.
  std::vector<std::string> Send(const Exchange& exchange) {
    std::vector<std::string> responses;
    if (exchange.framing == Framing::kBatch) {
      Check(line_->SendLine("BATCH n=" +
                            std::to_string(exchange.lines.size())));
      for (const std::string& line : exchange.lines) {
        Check(line_->SendLine(line));
      }
      for (size_t i = 0; i < exchange.lines.size(); ++i) {
        responses.push_back(Value(line_->RecvLine()));
      }
    } else if (framing_ == Framing::kHttp) {
      const std::string& command = exchange.lines.front();
      std::string verb = VerbOf(command);
      for (char& c : verb) c = static_cast<char>(std::tolower(c));
      const size_t space = command.find(' ');
      const std::string args =
          space == std::string::npos ? "" : command.substr(space + 1);
      std::string body = Value(http_->Post("/" + verb, args)).body;
      if (!body.empty() && body.back() == '\n') body.pop_back();
      responses.push_back(std::move(body));
    } else {
      responses.push_back(Value(line_->Roundtrip(exchange.lines.front())));
    }
    return responses;
  }

 private:
  static void Check(const disc::Status& status) {
    if (!status.ok()) Die("connection failed: " + status.ToString());
  }
  template <typename T>
  static T Value(disc::Result<T> result) {
    if (!result.ok()) Die("connection failed: " + result.status().ToString());
    return std::move(result).value();
  }

  Framing framing_;
  std::optional<disc::LineClient> line_;
  std::optional<disc::HttpClient> http_;
};

// ---------------------------------------------------------------------------
// Set-up and the measured phase.

/// Launch through the warm-up leases, in seconds. The daemon keeps running.
double SetUp(const Workload& workload, Daemon* daemon) {
  const int64_t start = NowNs();
  *daemon = StartDaemon();
  const std::vector<WarmupRounds> leases = WarmupLeases(workload);
  std::barrier round_done(static_cast<std::ptrdiff_t>(leases.size()));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < leases.size(); ++c) {
    threads.emplace_back([&, c] {
      Client client(Framing::kLine, daemon->port);
      auto send = [&](const std::string& line) {
        const auto responses = client.Send(Exchange{Framing::kLine, {line}});
        if (responses.front().rfind("{\"ok\":true", 0) != 0) {
          Die("warm-up failed: " + responses.front());
        }
      };
      for (const std::vector<std::string>& round : leases[c]) {
        for (const std::string& line : round) send(line);
        round_done.arrive_and_wait();
        send("CLOSE");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return static_cast<double>(NowNs() - start) / 1e9;
}

constexpr int64_t kStallNs = 30'000'000'000LL;

struct Phase {
  std::vector<SessionRun> sessions;  // grouped by client, in session order
  int64_t start_ns = 0;
  int64_t deadline_ns = 0;
  double elapsed_s = 0.0;
  double peak_rss_mb = 0.0;
  ExitLog exit_log;
  std::unique_ptr<Tracer> tracer;  // traced phases only
};

/// Runs the closed loop on `daemon` for `seconds`, then stops the daemon.
/// Each client keeps going past the deadline until it has finished the
/// sessions the deterministic counters cover.
Phase RunPhase(const Workload& workload, uint64_t seed, double seconds,
               bool traced, Daemon* daemon) {
  std::vector<std::vector<SessionRun>> per_client(kClients);
  std::vector<Tracer> tracers;
  for (size_t c = 0; c < kClients; ++c) {
    tracers.emplace_back((static_cast<uint64_t>(c) + 1) << 40);
  }
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  // The exchange each client waits on, for the stall watchdog.
  struct Pending {
    std::mutex mutex;
    const Exchange* exchange = nullptr;
    int64_t since = 0;
  };
  std::vector<Pending> pending(kClients);
  std::atomic<size_t> running{kClients};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client(ClientFraming(workload, c), daemon->port);
      for (size_t k = 0;; ++k) {
        const Session session = MakeSession(workload, seed, c, k);
        SessionRun run;
        run.client = c;
        run.k = k;
        for (const Exchange& exchange : session.exchanges) {
          if (NowNs() >= deadline && k >= workload.counted_sessions) break;
          Record record;
          record.framing = exchange.framing;
          record.lines = exchange.lines;
          record.start_ns = NowNs();
          {
            std::lock_guard<std::mutex> lock(pending[c].mutex);
            pending[c].exchange = &exchange;
            pending[c].since = record.start_ns;
          }
          record.responses = client.Send(exchange);
          record.end_ns = NowNs();
          {
            std::lock_guard<std::mutex> lock(pending[c].mutex);
            pending[c].exchange = nullptr;
          }
          if (traced) {
            const std::string verb = exchange.framing == Framing::kBatch
                                         ? "BATCH"
                                         : VerbOf(exchange.lines.front());
            record.span = tracers[c].Root(
                "client", verb + " " + FramingName(exchange.framing),
                record.start_ns, record.end_ns);
          }
          run.records.push_back(std::move(record));
        }
        run.complete = run.records.size() == session.exchanges.size();
        const bool stop = !run.complete;
        per_client[c].push_back(std::move(run));
        if (stop || (NowNs() >= deadline && k + 1 >= workload.counted_sessions)) {
          break;
        }
      }
      --running;
    });
  }
  // An unanswered exchange fails the run instead of hanging it.
  while (running > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    for (size_t c = 0; c < kClients; ++c) {
      std::lock_guard<std::mutex> lock(pending[c].mutex);
      if (pending[c].exchange != nullptr &&
          NowNs() - pending[c].since > kStallNs) {
        std::string lines;
        for (const std::string& line : pending[c].exchange->lines) {
          lines += " [" + line + "]";
        }
        std::printf("# stall: client %zu (%s) got no answer in %lld s to%s\n",
                    c, FramingName(pending[c].exchange->framing),
                    static_cast<long long>(kStallNs / 1000000000), lines.c_str());
        std::fflush(stdout);
        Die("daemon stopped answering");
      }
    }
  }
  for (std::thread& thread : threads) thread.join();
  Phase phase;
  phase.start_ns = start;
  phase.deadline_ns = deadline;
  int64_t last = start;
  for (auto& runs : per_client) {
    for (SessionRun& run : runs) {
      if (!run.records.empty()) last = std::max(last, run.records.back().end_ns);
      phase.sessions.push_back(std::move(run));
    }
  }
  phase.elapsed_s = static_cast<double>(last - start) / 1e9;
  phase.peak_rss_mb = PeakRssMb(*daemon);
  phase.exit_log = ParseExitLog(StopDaemon(daemon));
  if (traced) {
    phase.tracer = std::make_unique<Tracer>();
    for (const Tracer& tracer : tracers) phase.tracer->Merge(tracer);
  }
  return phase;
}

// ---------------------------------------------------------------------------
// Metrics.

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

// The timed window is cut into kWindows equal slices and an end-to-end
// metric is its median over the slices: a few seconds in which other
// tenants of the host slow it down move one slice, not the result.
constexpr size_t kWindows = 6;
// A slice gives a q-quantile of its own only when at least this many of
// its samples lie beyond it.
constexpr double kMinSamplesBeyond = 10.0;

/// Samples by the slice of the timed window their exchange ended in;
/// samples that ended after the deadline are dropped.
class Slices {
 public:
  explicit Slices(const Phase& phase)
      : start_(phase.start_ns),
        width_((phase.deadline_ns - phase.start_ns) / kWindows),
        slices_(kWindows) {}

  void Add(int64_t end_ns, double value) {
    const int64_t slot = (end_ns - start_) / width_;
    if (slot >= 0 && slot < static_cast<int64_t>(kWindows)) {
      slices_[static_cast<size_t>(slot)].push_back(value);
    }
  }

  /// Median over the slices of each slice's q-quantile; the pooled
  /// quantile when fewer than half the slices hold enough samples.
  Metric Percentile(double q) const {
    std::vector<double> per_slice, pooled;
    for (const std::vector<double>& slice : slices_) {
      if (static_cast<double>(slice.size()) * (1.0 - q) >= kMinSamplesBeyond) {
        per_slice.push_back(Quantile(slice, q));
      }
      pooled.insert(pooled.end(), slice.begin(), slice.end());
    }
    const double value = per_slice.size() * 2 >= kWindows
                             ? Median(per_slice)
                             : Quantile(pooled, q);
    return {value, "ms", pooled.size()};
  }

  /// Median over the slices of (sum of values) per second.
  Metric Rate() const {
    std::vector<double> per_slice;
    size_t total = 0;
    for (const std::vector<double>& slice : slices_) {
      double sum = 0.0;
      for (double value : slice) sum += value;
      per_slice.push_back(sum / (static_cast<double>(width_) / 1e9));
      total += static_cast<size_t>(sum);
    }
    return {Median(per_slice), "1/s", total};
  }

 private:
  int64_t start_;
  int64_t width_;
  std::vector<std::vector<double>> slices_;
};

size_t OkCommands(const Phase& phase) {
  size_t ok = 0;
  for (const SessionRun& run : phase.sessions) {
    for (const Record& record : run.records) {
      for (const std::string& response : record.responses) {
        ok += response.rfind("{\"ok\":true", 0) == 0;
      }
    }
  }
  return ok;
}

Metrics EndToEnd(const Phase& phase) {
  std::map<std::string, Slices> by_verb;
  for (const char* verb : {"DIVERSIFY", "ZOOM", "OPEN"}) {
    by_verb.emplace(verb, Slices(phase));
  }
  Slices batches(phase), sessions(phase), ok_commands(phase);
  for (const SessionRun& run : phase.sessions) {
    for (const Record& record : run.records) {
      if (record.framing == Framing::kBatch) {
        batches.Add(record.end_ns, record.ms());
      } else {
        auto it = by_verb.find(VerbOf(record.lines.front()));
        if (it != by_verb.end()) it->second.Add(record.end_ns, record.ms());
      }
      size_t ok = 0;
      for (const std::string& response : record.responses) {
        ok += response.rfind("{\"ok\":true", 0) == 0;
      }
      ok_commands.Add(record.end_ns, static_cast<double>(ok));
    }
    if (run.complete) {
      sessions.Add(run.records.back().end_ns,
                   static_cast<double>(run.records.back().end_ns -
                                       run.records.front().start_ns) /
                       1e6);
    }
  }
  Metrics metrics;
  metrics["throughput_rps"] = ok_commands.Rate();
  metrics["diversify_p50_ms"] = by_verb.at("DIVERSIFY").Percentile(0.5);
  metrics["diversify_p90_ms"] = by_verb.at("DIVERSIFY").Percentile(0.9);
  metrics["zoom_p50_ms"] = by_verb.at("ZOOM").Percentile(0.5);
  metrics["zoom_p90_ms"] = by_verb.at("ZOOM").Percentile(0.9);
  metrics["open_p50_ms"] = by_verb.at("OPEN").Percentile(0.5);
  metrics["open_p90_ms"] = by_verb.at("OPEN").Percentile(0.9);
  metrics["batch_p50_ms"] = batches.Percentile(0.5);
  metrics["session_p50_ms"] = sessions.Percentile(0.5);
  metrics["peak_rss_mb"] = {phase.peak_rss_mb, "MB", 1};
  return metrics;
}

/// The serving-layer ratios of a phase, from response fields and the
/// daemon's exit log line.
Metrics ServerRatios(const Phase& phase, const CheckResult& check) {
  size_t compute = 0, duplicates = 0, cached = 0, adapted = 0;
  std::set<std::string> seen;
  for (const SessionRun& run : phase.sessions) {
    for (const Record& record : run.records) {
      for (size_t j = 0; j < record.lines.size(); ++j) {
        const std::string verb = VerbOf(record.lines[j]);
        if (verb != "DIVERSIFY" && verb != "ZOOM") continue;
        const std::string& response = record.responses[j];
        ++compute;
        // A memo hit or coalesced follower replays the leader's line byte
        // for byte, wall_ms included.
        if (!seen.insert(response).second) ++duplicates;
        if (response.find("\"from_cache\":true") != std::string::npos) {
          ++cached;
        }
        if (response.find("\"adapted\":true") != std::string::npos) {
          ++adapted;
        }
      }
    }
  }
  const ExitLog& log = phase.exit_log;
  const double denom = std::max<size_t>(compute, 1);
  const double computed =
      static_cast<double>(compute) -
      static_cast<double>(std::min(compute, duplicates + cached));
  const double memo = static_cast<double>(
      duplicates > log.coalesced ? duplicates - log.coalesced : 0);
  Metrics metrics;
  metrics["server.computations_per_request"] = {computed / denom, "ratio",
                                                compute};
  metrics["server.memo_hit_frac"] = {memo / denom, "ratio", compute};
  metrics["server.adapted_frac"] = {adapted / denom, "ratio", compute};
  metrics["server.coalesced_frac"] = {
      static_cast<double>(log.coalesced) / denom, "ratio", compute};
  metrics["server.busy_frac"] = {
      static_cast<double>(log.busy) /
          static_cast<double>(std::max<size_t>(check.attempted, 1)),
      "ratio", check.attempted};
  metrics["server.pool_hit_frac"] = {
      static_cast<double>(log.pool_hits) /
          static_cast<double>(std::max<size_t>(log.leases, 1)),
      "ratio", log.leases};
  metrics["server.engines_evicted"] = {static_cast<double>(log.evicted),
                                       "count", 1};
  return metrics;
}

// ---------------------------------------------------------------------------
// Deterministic counters: the first run of (build, workload, seed) records
// them; every later run must reproduce them exactly.

/// FNV-1a of the daemon and load-generator binaries: counters recorded by
/// one build are never compared against another's.
uint64_t BuildId() {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char* path : {PERFBENCH_DISC_SERVE, "/proc/self/exe"}) {
    std::ifstream in(path, std::ios::binary);
    char buf[1 << 16];
    while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
      for (std::streamsize i = 0; i < in.gcount(); ++i) {
        hash = (hash ^ static_cast<unsigned char>(buf[i])) * 0x100000001b3ULL;
      }
    }
  }
  return hash;
}

bool CountersStable(const std::string& dir, const Workload& workload,
                    uint64_t seed, const Counters& counters) {
  mkdir(dir.c_str(), 0755);
  char build[32];
  std::snprintf(build, sizeof(build), "%016" PRIx64, BuildId());
  const std::string path = dir + "/" + workload.name + "-seed" +
                           std::to_string(seed) + "-build" + build + ".txt";
  const std::string text = counters.ToString();
  std::ifstream in(path);
  std::string previous;
  if (std::getline(in, previous)) {
    if (previous == text) return true;
    std::printf("# DRIFT %s seed %" PRIu64 ": recorded %s, now %s\n",
                workload.name, seed, previous.c_str(), text.c_str());
    return false;
  }
  std::ofstream(path) << text << "\n";
  return true;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      return line.substr(line.find(':') + 2);
    }
  }
  return "unknown";
}

bool Optimized() {
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

std::string JsonNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void PrintMetrics(const char* label, const Metrics& metrics) {
  for (const auto& [name, metric] : metrics) {
    std::printf("# %s %-36s %14.6f %-6s n=%zu\n", label, name.c_str(),
                metric.value, metric.unit.c_str(), metric.samples);
  }
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".bench_build";
  std::string git_sha = "unknown";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      Die("bad argument " + arg);
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      args.workload = value;
    } else if (key == "seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "trace") {
      args.trace = value == "1";
    } else if (key == "out") {
      args.out = value;
    } else if (key == "git-sha") {
      args.git_sha = value;
    } else {
      Die("unknown flag --" + key);
    }
  }
  if (args.seconds <= 0) Die("--seconds must be positive");
  return args;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  signal(SIGPIPE, SIG_IGN);
  const Args args = ParseArgs(argc, argv);
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) Die("unknown workload '" + args.workload + "'");
  const size_t check_threads =
      std::max<size_t>(1, std::min<size_t>(4, std::thread::hardware_concurrency()));

  std::printf(
      "# stamp workload=%s seed=%" PRIu64 " seconds=%g trace=%d nproc=%u "
      "cpu=\"%s\" compiler=\"%s\" git_sha=%s optimized=%s daemon=\"%s\"\n",
      workload->name, args.seed, args.seconds, args.trace ? 1 : 0,
      std::thread::hardware_concurrency(), CpuModel().c_str(), kCompiler,
      args.git_sha.c_str(), Optimized() ? "yes" : "NO (not a benchmark build)",
      Joined(DaemonArgv()).c_str());
  std::fflush(stdout);

  // kSetUps set-ups; the last one (the last two when tracing) serve phases.
  constexpr int kSetUps = 7;
  Daemon daemons[kSetUps];
  std::vector<double> setups;
  for (int i = 0; i < kSetUps; ++i) {
    setups.push_back(SetUp(*workload, &daemons[i]));
    const bool serves = i == kSetUps - 1 || (args.trace && i == kSetUps - 2);
    if (!serves) StopDaemon(&daemons[i]);
  }

  std::vector<Phase> phases;
  if (args.trace) {
    phases.push_back(RunPhase(*workload, args.seed, args.seconds / 2, false,
                              &daemons[kSetUps - 2]));
    phases.push_back(RunPhase(*workload, args.seed, args.seconds / 2, true,
                              &daemons[kSetUps - 1]));
  } else {
    phases.push_back(RunPhase(*workload, args.seed, args.seconds, false,
                              &daemons[kSetUps - 1]));
  }

  // Self-check and deterministic counters, outside the timed window.
  bool correct = true;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<CheckResult> checks;
  for (const Phase& phase : phases) {
    CheckResult check = CheckSessions(*workload, phase.sessions, check_threads);
    attempted += check.attempted;
    failed += check.errors + check.mismatches;
    std::printf("# check commands=%zu ok=%zu errors=%zu busy=%zu "
                "mismatches=%zu failed_frac=%.6f\n",
                check.attempted, check.ok, check.errors, check.busy,
                check.mismatches,
                static_cast<double>(check.errors + check.mismatches) /
                    static_cast<double>(std::max<size_t>(check.attempted, 1)));
    if (!check.first_failure.empty()) {
      std::printf("# first failure: %s\n", check.first_failure.c_str());
    }
    const Counters counters = CountSessions(*workload, phase.sessions);
    std::printf("# counters %s %s\n",
                workload->deterministic ? "deterministic" : "reported-only",
                counters.ToString().c_str());
    if (workload->deterministic &&
        !CountersStable(args.out + "/perfbench-counters", *workload,
                        args.seed, counters)) {
      correct = false;
    }
    if (!phase.exit_log.parsed) {
      std::printf("# daemon exit log line missing\n");
      correct = false;
    }
    checks.push_back(check);
  }
  correct = correct && failed == 0 && attempted > 0;

  Metrics reported;
  if (!args.trace) {
    reported = EndToEnd(phases[0]);
    reported["setup_s"] = {Median(setups), "s", setups.size()};
    // Reported, not bounded: on cold-sessions an OPEN is a pool hit whose
    // tail is a wait behind computations on the shared cores, and its
    // spread between runs exceeds any bound BENCHMARK.json may carry.
    const Metrics open_p90 = {{"open_p90_ms", reported.at("open_p90_ms")}};
    reported.erase("open_p90_ms");
    PrintMetrics("e2e", reported);
    PrintMetrics("report", open_p90);
  } else {
    const Phase& untraced = phases[0];
    const Phase& traced = phases[1];
    const double rps_untraced =
        static_cast<double>(OkCommands(untraced)) / untraced.elapsed_s;
    const double rps_traced =
        static_cast<double>(OkCommands(traced)) / traced.elapsed_s;
    reported = ServerRatios(traced, checks[1]);
    reported["trace.throughput_ratio"] = {rps_traced / rps_untraced, "ratio",
                                          2};
    Tracer tracer(uint64_t{1} << 50);
    tracer.Merge(*traced.tracer);
    const Metrics layers =
        ReplayLayers(*workload, args.seed, traced.sessions, &tracer);
    reported.insert(layers.begin(), layers.end());
    const std::string trace_dir = args.out + "/perfbench-traces";
    mkdir(trace_dir.c_str(), 0755);
    const std::string span_file = trace_dir + "/" + workload->name + "-seed" +
                                  std::to_string(args.seed) + ".jsonl";
    tracer.WriteJsonl(span_file);
    std::printf("# trace spans=%zu file=%s rps_untraced=%.3f rps_traced=%.3f "
                "overhead=%.2f%%\n",
                tracer.spans().size(), span_file.c_str(), rps_untraced,
                rps_traced, 100.0 * (1.0 - rps_traced / rps_untraced));
    for (const auto& [layer, ms] : tracer.SelfMsByLayer()) {
      std::printf("# self_ms %-10s %12.3f\n", layer.c_str(), ms);
    }
    PrintMetrics("layer", reported);
  }

  std::string json = "{\"correct\":" + std::string(correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(attempted) +
                     ",\"failed\":" + std::to_string(failed) +
                     ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : reported) {
    json += (first ? "\"" : ",\"") + name + "\":{\"value\":" +
            JsonNumber(metric.value) + ",\"unit\":\"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
