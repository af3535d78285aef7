#include "check.h"

#include <charconv>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "engine/engine.h"
#include "server/protocol.h"

namespace perfbench {
namespace {

using disc::DiscEngine;

constexpr const char* kClosed = "{\"ok\":true,\"cmd\":\"CLOSE\"}";

// One replica session stream. Engines are keyed by the OPEN arguments and
// reused across sessions through NewSession, like the daemon's pool.
class Replica {
 public:
  explicit Replica(bool exact_bytes) : exact_bytes_(exact_bytes) {}

  /// Empty when `response` is the right answer to `line`, else why not.
  std::string Check(const std::string& line, const std::string& response) {
    auto request = disc::ParseRequest(line);
    if (!request.ok()) return "benchmark sent an unparsable line: " + line;
    switch (request->verb) {
      case disc::Verb::kOpen:
        return CheckOpen(line, *request, response);
      case disc::Verb::kDiversify:
      case disc::Verb::kZoom:
        if (engine_ == nullptr) return "compute command before OPEN";
        return exact_bytes_ ? CheckExact(*request, response)
                            : CheckSolution(*request, response);
      case disc::Verb::kClose:
        engine_ = nullptr;
        return response == kClosed ? "" : "bad CLOSE answer";
      default:
        return "unexpected verb in " + line;
    }
  }

 private:
  // A session-state transition: Diversify(algorithm, radius) or Zoom(radius).
  struct Op {
    bool zoom = false;
    disc::DiversifyRequest diversify;
    disc::ZoomRequest zoom_request;
    std::string key;
  };

  std::string CheckOpen(const std::string& line, const disc::Request& request,
                        const std::string& response) {
    auto params = disc::DecodeOpen(request);
    if (!params.ok()) return params.status().ToString();
    const std::string args = line.substr(line.find(' ') + 1);
    auto it = engines_.find(args);
    if (it == engines_.end()) {
      disc::EngineConfig config = params->config;
      config.threads = 1;  // results are thread-count independent
      auto engine = DiscEngine::Create(std::move(config));
      if (!engine.ok()) return engine.status().ToString();
      it = engines_.emplace(args, std::move(engine).value()).first;
    } else {
      it->second->NewSession();
    }
    engine_ = it->second.get();
    chain_.clear();
    // Everything before "reused" (which depends on the pool's timing).
    const std::string expected = disc::SerializeOpen(
        engine_->Snapshot(), params->dataset_text, /*reused=*/false);
    const size_t cut = expected.find(",\"reused\":");
    return response.compare(0, cut + 1, expected, 0, cut + 1) == 0
               ? ""
               : "OPEN mismatch: " + response;
  }

  std::string CheckExact(const disc::Request& request,
                         const std::string& response) {
    auto result = [&]() -> disc::Result<disc::DiversifyResponse> {
      if (request.verb == disc::Verb::kDiversify) {
        auto decoded = disc::DecodeDiversify(request);
        if (!decoded.ok()) return decoded.status();
        return engine_->Diversify(*decoded);
      }
      auto decoded = disc::DecodeZoom(request);
      if (!decoded.ok()) return decoded.status();
      return engine_->Zoom(*decoded);
    }();
    if (!result.ok()) return "replica failed: " + result.status().ToString();
    const std::string expected =
        disc::SerializeDiversifyResponse(request.verb, *result, false);
    return StripWallMs(response) == expected
               ? ""
               : "mismatch: served " + StripWallMs(response).substr(0, 160) +
                     " expected " + expected.substr(0, 160);
  }

  static Op DiversifyOp(disc::DiversifyRequest request) {
    Op op;
    op.diversify = request;
    op.key = std::string("D") + disc::AlgorithmToString(request.algorithm) +
             (request.pruned ? "p" : "u") +
             disc::FormatJsonDouble(request.radius);
    return op;
  }

  static Op ZoomOp(disc::ZoomRequest request) {
    Op op;
    op.zoom = true;
    op.zoom_request = request;
    op.key = "Z" + disc::FormatJsonDouble(request.radius);
    return op;
  }

  std::string CheckSolution(const disc::Request& request,
                            const std::string& response) {
    if (request.verb == disc::Verb::kDiversify) {
      auto decoded = disc::DecodeDiversify(request);
      if (!decoded.ok()) return decoded.status().ToString();
      chain_.clear();
      double seed_radius = 0.0;
      if (response.find("\"adapted\":true") != std::string::npos &&
          FieldDouble(response, "seed_radius", &seed_radius)) {
        disc::DiversifyRequest seed = *decoded;
        seed.radius = seed_radius;
        chain_.push_back(DiversifyOp(seed));
        disc::ZoomRequest zoom;
        zoom.radius = decoded->radius;
        chain_.push_back(ZoomOp(zoom));
      } else {
        chain_.push_back(DiversifyOp(*decoded));
      }
    } else {
      auto decoded = disc::DecodeZoom(request);
      if (!decoded.ok()) return decoded.status().ToString();
      chain_.push_back(ZoomOp(*decoded));
    }
    std::string key;
    for (const Op& op : chain_) key += op.key + "|";
    auto memo = memo_.find(key);
    if (memo == memo_.end()) {
      std::string solution;
      for (const Op& op : chain_) {
        auto result = op.zoom ? engine_->Zoom(op.zoom_request)
                              : engine_->Diversify(op.diversify);
        if (!result.ok()) {
          return "replica failed: " + result.status().ToString();
        }
        solution = disc::SerializeSolution(result->solution) +
                   " r=" + disc::FormatJsonDouble(result->radius);
      }
      memo = memo_.emplace(key, solution).first;
    }
    double radius = 0.0;
    FieldDouble(response, "radius", &radius);
    const std::string served =
        SolutionText(response) + " r=" + disc::FormatJsonDouble(radius);
    return served == memo->second ? ""
                                  : "solution mismatch for chain " + key;
  }

  const bool exact_bytes_;
  std::map<std::string, std::unique_ptr<DiscEngine>> engines_;
  DiscEngine* engine_ = nullptr;
  std::vector<Op> chain_;
  std::map<std::string, std::string> memo_;
};

void Tally(const std::string& response, const std::string& why,
           CheckResult* out) {
  ++out->attempted;
  if (response.rfind("{\"ok\":true", 0) != 0) {
    ++out->errors;
    if (response.find("\"code\":\"Busy\"") != std::string::npos) ++out->busy;
    if (out->first_failure.empty()) out->first_failure = response;
  } else if (!why.empty()) {
    ++out->mismatches;
    if (out->first_failure.empty()) out->first_failure = why;
  } else {
    ++out->ok;
  }
}

}  // namespace

std::string StripWallMs(const std::string& line) {
  const size_t pos = line.rfind(",\"wall_ms\":");
  return pos == std::string::npos ? line : line.substr(0, pos) + "}";
}

namespace {

// The text after "key": up to the next ',' or '}' (flat objects only).
bool FieldText(const std::string& line, const std::string& key,
               std::string_view* text) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  const size_t begin = pos + needle.size();
  const size_t end = line.find_first_of(",}", begin);
  *text = std::string_view(line).substr(begin, end - begin);
  return true;
}

}  // namespace

bool FieldU64(const std::string& line, const std::string& key,
              uint64_t* value) {
  std::string_view text;
  if (!FieldText(line, key, &text)) return false;
  return std::from_chars(text.data(), text.data() + text.size(), *value).ec ==
         std::errc();
}

bool FieldDouble(const std::string& line, const std::string& key,
                 double* value) {
  std::string_view text;
  if (!FieldText(line, key, &text)) return false;
  return std::from_chars(text.data(), text.data() + text.size(), *value).ec ==
         std::errc();
}

std::string SolutionText(const std::string& line) {
  const size_t pos = line.find("\"solution\":[");
  if (pos == std::string::npos) return "";
  const size_t begin = pos + 11;
  return line.substr(begin, line.find(']', begin) + 1 - begin);
}

std::string VerbOf(const std::string& command) {
  return command.substr(0, command.find(' '));
}

CheckResult CheckSessions(const Workload& workload,
                          const std::vector<SessionRun>& sessions,
                          size_t threads) {
  std::vector<CheckResult> parts(threads);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Replica replica(workload.deterministic);
      for (size_t i = t; i < sessions.size(); i += threads) {
        for (const Record& record : sessions[i].records) {
          for (size_t j = 0; j < record.lines.size(); ++j) {
            const std::string& response = record.responses[j];
            std::string why;
            if (response.rfind("{\"ok\":true", 0) == 0) {
              why = replica.Check(record.lines[j], response);
            }
            Tally(response, why, &parts[t]);
          }
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  CheckResult total;
  for (const CheckResult& part : parts) {
    total.attempted += part.attempted;
    total.ok += part.ok;
    total.errors += part.errors;
    total.busy += part.busy;
    total.mismatches += part.mismatches;
    if (total.first_failure.empty()) total.first_failure = part.first_failure;
  }
  return total;
}

std::string Counters::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "responses=%zu node_accesses=%llu distance_computations=%llu "
                "range_queries=%llu checksum=%016llx",
                responses, static_cast<unsigned long long>(node_accesses),
                static_cast<unsigned long long>(distance_computations),
                static_cast<unsigned long long>(range_queries),
                static_cast<unsigned long long>(checksum));
  return buf;
}

Counters CountSessions(const Workload& workload,
                       const std::vector<SessionRun>& sessions) {
  // Sessions arrive grouped by client in session order.
  Counters counters;
  for (const SessionRun& session : sessions) {
    if (workload.deterministic && session.k >= workload.counted_sessions) {
      continue;
    }
    for (const Record& record : session.records) {
      for (size_t j = 0; j < record.lines.size(); ++j) {
        const std::string verb = VerbOf(record.lines[j]);
        if (verb != "DIVERSIFY" && verb != "ZOOM") continue;
        const std::string& response = record.responses[j];
        uint64_t value = 0;
        if (FieldU64(response, "node_accesses", &value)) {
          counters.node_accesses += value;
        }
        if (FieldU64(response, "distance_computations", &value)) {
          counters.distance_computations += value;
        }
        if (FieldU64(response, "range_queries", &value)) {
          counters.range_queries += value;
        }
        for (char c : StripWallMs(response)) {
          counters.checksum ^= static_cast<unsigned char>(c);
          counters.checksum *= 0x100000001b3ULL;
        }
        ++counters.responses;
      }
    }
  }
  return counters;
}

}  // namespace perfbench
