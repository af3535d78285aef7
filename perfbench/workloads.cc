#include "workloads.h"

#include <charconv>
#include <cmath>
#include <numeric>
#include <utility>

namespace perfbench {
namespace {

constexpr Workload kWorkloads[] = {
    {WorkloadKind::kColdSessions, "cold-sessions", true, 2},
    {WorkloadKind::kHotAdapt, "hot-adapt", false, 0},
    {WorkloadKind::kOpenChurn, "open-churn", true, 6},
};

// splitmix64: a stateless mix so every (seed, client, session) stream is
// independent of how far any other client got.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Rng {
 public:
  Rng(uint64_t seed, uint64_t a, uint64_t b)
      : state_(Mix(Mix(Mix(seed) ^ a) ^ (b * 0x632be59bd9b4e019ULL))) {}
  uint64_t Next() { return state_ = Mix(state_); }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

// A Weyl sequence: frac(offset + idx * golden ratio) is distinct for every
// distinct idx, so radii drawn from it never repeat within a run.
double Fresh(uint64_t seed, uint64_t idx) {
  const double offset =
      static_cast<double>(Mix(seed ^ 0x5eedULL) >> 11) * 0x1.0p-53;
  const double x = offset + static_cast<double>(idx) * 0.6180339887498949;
  return x - std::floor(x);
}

uint64_t FreshIndex(size_t client, size_t k, size_t step) {
  return (static_cast<uint64_t>(client) * 1000000 + k) * 4 + step;
}

std::string Num(double value) {
  char buf[64];
  auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

// The paper's four dataset families (§6): clustered and uniform synthetic
// sets, the cities stand-in, and the categorical cameras under Hamming.
struct Family {
  const char* open_args;
  size_t n;
  double r0;  // DIVERSIFY radii lie within 10% of it
};

constexpr Family kColdFamilies[] = {
    {"dataset=clustered n=5000 dim=2 seed=7", 5000, 0.05},
    {"dataset=uniform n=2000 dim=8 seed=7 metric=euclidean", 2000, 0.6},
    {"dataset=uniform n=2000 dim=8 seed=7 metric=manhattan", 2000, 1.5},
    {"dataset=cities", 5922, 0.01},
    {"dataset=cameras", 579, 3.0},
};

constexpr const char* kHotDataset = "dataset=clustered n=20000 dim=2 seed=7";
constexpr size_t kHotRadii = 32;
constexpr const char* kHotAlgos[] = {"greedy", "lazy-white"};
constexpr size_t kHotKeys = kHotRadii * std::size(kHotAlgos);
constexpr size_t kHotSessionCommands = 16;
constexpr double kHotAnchor = 0.055;

constexpr size_t kChurnKeys = 24;
constexpr size_t kChurnN = 6000;

std::string Open(const std::string& args) { return "OPEN " + args; }

Exchange Single(Framing framing, std::string line) {
  Exchange exchange;
  exchange.framing = framing == Framing::kBatch ? Framing::kLine : framing;
  exchange.lines.push_back(std::move(line));
  return exchange;
}

// Batch clients send OPEN and CLOSE alone and frame the compute commands
// between them; the other framings send every command alone.
Session Frame(Framing framing, const std::string& open,
              std::vector<std::string> body) {
  Session session;
  session.exchanges.push_back(Single(framing, open));
  if (framing == Framing::kBatch) {
    Exchange frame;
    frame.framing = Framing::kBatch;
    frame.lines = std::move(body);
    session.exchanges.push_back(std::move(frame));
  } else {
    for (std::string& line : body) {
      session.exchanges.push_back(Single(framing, std::move(line)));
    }
  }
  session.exchanges.push_back(Single(framing, "CLOSE"));
  return session;
}

// Each client alternates between two families, so at most eight engines
// ever exist (the idle pool's size): OPENs are pool hits, never evictions.
constexpr size_t kClientFamilies[kClients][2] = {{0, 1}, {2, 3}, {0, 4}, {1, 2}};

// The algorithm mix is a fixed cycle (40% greedy, 40% lazy-white, 20%
// greedy-c) and one compute command in four asks for quality, so the seed
// moves radii and zoom centers but not the amount of work per run.
constexpr const char* kColdAlgos[] = {"greedy", "lazy-white", "greedy",
                                      "greedy-c", "lazy-white"};

Session ColdSession(uint64_t seed, size_t client, size_t k, Framing framing) {
  Rng rng(seed, client, k);
  const Family& family = kColdFamilies[kClientFamilies[client][k % 2]];
  const std::string algo =
      kColdAlgos[(k / 2 + client) % std::size(kColdAlgos)];
  auto fresh = [&](size_t step, double lo, double hi) {
    return family.r0 * (lo + (hi - lo) * Fresh(seed, FreshIndex(client, k,
                                                                step)));
  };
  auto quality = [&](size_t step) {
    return (k + step) % 4 == 0 ? " quality=true" : "";
  };
  std::vector<std::string> body;
  body.push_back("DIVERSIFY r=" + Num(fresh(0, 0.9, 1.1)) + " algo=" + algo +
                 quality(0));
  if (algo != "greedy-c") {
    body.push_back("ZOOM to=" + Num(fresh(1, 0.62, 0.7)) + quality(1));
    body.push_back("ZOOM to=" + Num(fresh(2, 1.45, 1.6)) + quality(2));
    body.push_back("ZOOM to=" + Num(fresh(3, 0.62, 0.7)) +
                   " center=" + std::to_string(rng.Below(family.n)) +
                   quality(3));
  }
  return Frame(framing, Open(family.open_args), std::move(body));
}

// A fixed shuffle of 0..n-1. Popularity and key orders do not depend on
// the seed, so every seed draws from the same distribution of work.
std::vector<size_t> FixedOrder(size_t n, uint64_t salt) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  Rng shuffle(salt, 0, 0);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[shuffle.Below(i)]);
  }
  return order;
}

// Hot keys in a fixed popularity order; rank i is drawn with weight
// 1 / (i + 1) (Zipf, s = 1).
struct HotKey {
  const char* algo;
  double radius;
};

HotKey HotKeyAt(size_t rank) {
  static const std::vector<size_t> order = FixedOrder(kHotKeys, 0x407);
  const size_t key = order[rank];
  return {kHotAlgos[key / kHotRadii],
          0.04 + 0.03 * static_cast<double>(key % kHotRadii) / (kHotRadii - 1)};
}

size_t ZipfRank(Rng& rng) {
  static const std::vector<double> cumulative = [] {
    std::vector<double> c(kHotKeys);
    double total = 0.0;
    for (size_t i = 0; i < kHotKeys; ++i) {
      total += 1.0 / static_cast<double>(i + 1);
      c[i] = total;
    }
    for (double& x : c) x /= total;
    return c;
  }();
  const double u = rng.Uniform();
  for (size_t i = 0; i < kHotKeys; ++i) {
    if (u < cumulative[i]) return i;
  }
  return kHotKeys - 1;
}

// The BATCH connection sends the grid keys exactly, so its frames meet
// memo hits, engine-cache hits, in-frame anchors and coalescing. Line and
// HTTP commands go to a fresh radius within 0.1% of a grid key, answered by
// §5.2 adaptation from a memoized neighbour (or by joining an in-flight one)
// but never by a memo hit on their own key: a memo hit on a single-command
// connection leaks one admission slot in the event loop (its adoption job
// is counted in but never out), and after max_inflight + max_pending of
// them every computation is refused BUSY.
Session HotSession(uint64_t seed, size_t client, size_t k, Framing framing) {
  Rng rng(seed, client, k);
  std::vector<std::string> body;
  for (size_t i = 0; i < kHotSessionCommands; ++i) {
    const HotKey key = HotKeyAt(ZipfRank(rng));
    double radius = key.radius;
    if (framing != Framing::kBatch) {
      const uint64_t idx = (static_cast<uint64_t>(client) * 1000000 + k) * 64 + i;
      radius *= 1.0 + 1e-3 * (0.01 + 0.99 * Fresh(seed, idx));
    }
    body.push_back("DIVERSIFY r=" + Num(radius) + " algo=" + key.algo +
                   " adapt=true");
    if (framing != Framing::kBatch && rng.Uniform() < 0.25) {
      body.push_back("ZOOM to=" + Num(radius * 0.75));
    }
  }
  if (framing != Framing::kBatch) {
    return Frame(framing, Open(kHotDataset), std::move(body));
  }
  // Two BATCH n=8 frames per session.
  Session session;
  session.exchanges.push_back(Single(framing, Open(kHotDataset)));
  for (size_t start = 0; start < body.size(); start += 8) {
    Exchange frame;
    frame.framing = Framing::kBatch;
    frame.lines.assign(body.begin() + start, body.begin() + start + 8);
    session.exchanges.push_back(std::move(frame));
  }
  session.exchanges.push_back(Single(framing, "CLOSE"));
  return session;
}

// Pool key i: dataset seed (6 values) x build (insert|bulk) x backend
// (exact|grid).
std::string ChurnOpen(size_t key) {
  return "OPEN dataset=clustered n=" + std::to_string(kChurnN) +
         " dim=2 seed=" + std::to_string(1 + key / 4) +
         ((key / 2) % 2 ? " build=bulk" : " build=insert") +
         (key % 2 ? " backend=grid" : " backend=exact");
}

// Client c cycles over its own six keys. A key comes back after ~24 lease
// releases, so the 8-engine idle pool has always evicted it: every OPEN
// builds (dataset generation, index or backend) and every CLOSE evicts.
size_t ChurnKey(size_t client, size_t k) {
  static const std::vector<size_t> order = FixedOrder(kChurnKeys, 0xc4);
  return order[(k % (kChurnKeys / kClients)) * kClients + client];
}

Session ChurnSession(uint64_t seed, size_t client, size_t k,
                     Framing framing) {
  const size_t key = ChurnKey(client, k);
  const bool grid = key % 2 == 1;
  // Graph mode runs basic / greedy / greedy-c only.
  static const char* const kExactAlgos[] = {"greedy", "lazy-white",
                                            "greedy-c"};
  static const char* const kGridAlgos[] = {"basic", "greedy", "greedy-c"};
  const std::string algo = (grid ? kGridAlgos : kExactAlgos)[(client + k) % 3];
  auto fresh = [&](size_t step, double lo, double hi) {
    return 0.05 * (lo + (hi - lo) * Fresh(seed, FreshIndex(client, k, step)));
  };
  std::vector<std::string> body;
  body.push_back("DIVERSIFY r=" + Num(fresh(0, 0.9, 1.1)) + " algo=" + algo);
  if (!grid && algo != "greedy-c") {
    body.push_back("ZOOM to=" + Num(fresh(1, 0.62, 0.7)));
    body.push_back("ZOOM to=" + Num(fresh(2, 1.45, 1.6)));
  }
  return Frame(framing, ChurnOpen(key), std::move(body));
}

}  // namespace

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

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

// Two line connections, one HTTP/1.1 connection, one connection framing
// its compute commands as BATCH frames, on every workload.
Framing ClientFraming(const Workload&, size_t client) {
  switch (client % 4) {
    case 2:
      return Framing::kHttp;
    case 3:
      return Framing::kBatch;
    default:
      return Framing::kLine;
  }
}

Session MakeSession(const Workload& workload, uint64_t seed, size_t client,
                    size_t k) {
  const Framing framing = ClientFraming(workload, client);
  switch (workload.kind) {
    case WorkloadKind::kColdSessions:
      return ColdSession(seed, client, k, framing);
    case WorkloadKind::kHotAdapt:
      return HotSession(seed, client, k, framing);
    case WorkloadKind::kOpenChurn:
      return ChurnSession(seed, client, k, framing);
  }
  return {};
}

std::vector<WarmupRounds> WarmupLeases(const Workload& workload) {
  std::vector<WarmupRounds> leases(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    switch (workload.kind) {
      case WorkloadKind::kColdSessions:
        for (size_t family : kClientFamilies[c]) {
          leases[c].push_back({Open(kColdFamilies[family].open_args)});
        }
        break;
      case WorkloadKind::kHotAdapt:
        leases[c].push_back({Open(kHotDataset)});
        if (c == 0) {
          // One cold solve per adapt family at the grid's middle radius:
          // the memoized seed every later adaptation starts from. Without
          // it the first cold solve of the run, a race between clients,
          // would pick the seed and with it the cost of every adaptation.
          for (const char* algo : kHotAlgos) {
            leases[c].back().push_back("DIVERSIFY r=" + Num(kHotAnchor) +
                                       " algo=" + algo);
          }
        }
        break;
      case WorkloadKind::kOpenChurn:
        // Fill the 8-engine idle pool with the first keys the clients use.
        for (size_t k = 0; k < 2; ++k) {
          leases[c].push_back({ChurnOpen(ChurnKey(c, k))});
        }
        break;
    }
  }
  return leases;
}

std::string ProbeOpen(const Workload& workload) {
  switch (workload.kind) {
    case WorkloadKind::kColdSessions:
      return kColdFamilies[0].open_args;
    case WorkloadKind::kHotAdapt:
      return kHotDataset;
    case WorkloadKind::kOpenChurn:
      break;
  }
  return ChurnOpen(0).substr(5);
}

std::vector<double> ProbeRadii(const Workload& workload, uint64_t seed) {
  std::vector<double> radii;
  for (size_t i = 0; i < 3; ++i) {
    switch (workload.kind) {
      case WorkloadKind::kColdSessions:
        // Client 0 opens family 0 in its even sessions.
        radii.push_back(kColdFamilies[0].r0 *
                        (0.9 + 0.2 * Fresh(seed, FreshIndex(0, 2 * i, 0))));
        break;
      case WorkloadKind::kHotAdapt:
        radii.push_back(HotKeyAt(i).radius);
        break;
      case WorkloadKind::kOpenChurn:
        radii.push_back(0.05 * (0.9 + 0.2 * Fresh(seed, FreshIndex(0, i, 0))));
        break;
    }
  }
  return radii;
}

}  // namespace perfbench
