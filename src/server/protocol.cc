#include "server/protocol.h"

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "core/disc_algorithms.h"
#include "core/zoom.h"
#include "metric/metric.h"
#include "mtree/mtree.h"

namespace disc {

namespace {

struct VerbInfo {
  Verb verb;
  const char* name;
  /// Keys this verb accepts, nullptr-terminated.
  const char* keys[8];
  /// Key that must be present, or nullptr.
  const char* required;
};

constexpr VerbInfo kVerbs[] = {
    {Verb::kOpen,
     "OPEN",
     {"dataset", "metric", "build", "n", "dim", "seed", "backend", nullptr},
     "dataset"},
    {Verb::kDiversify,
     "DIVERSIFY",
     {"r", "algo", "pruned", "quality", "adapt", nullptr},
     "r"},
    {Verb::kZoom,
     "ZOOM",
     {"to", "greedy", "variant", "center", "distances", "quality", nullptr},
     "to"},
    {Verb::kStats, "STATS", {nullptr}, nullptr},
    {Verb::kClose, "CLOSE", {nullptr}, nullptr},
    {Verb::kBatchEnvelope, "BATCH", {"n", nullptr}, "n"},
};

const VerbInfo* FindVerb(const std::string& upper) {
  for (const VerbInfo& info : kVerbs) {
    if (upper == info.name) return &info;
  }
  return nullptr;
}

bool VerbAccepts(const VerbInfo& info, const std::string& key) {
  for (const char* const* k = info.keys; *k != nullptr; ++k) {
    if (key == *k) return true;
  }
  return false;
}

std::vector<std::string> SplitTokens(const std::string& line) {
  std::vector<std::string> tokens;
  size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) {
      ++pos;
    }
    size_t start = pos;
    while (pos < line.size() && line[pos] != ' ' && line[pos] != '\t') ++pos;
    if (pos > start) tokens.push_back(line.substr(start, pos - start));
  }
  return tokens;
}

Result<double> ParseDoubleArg(const std::string& key,
                              const std::string& text) {
  double value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(),
                                   value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return Status::InvalidArgument(key + "=" + text + " is not a number");
  }
  return value;
}

Result<uint64_t> ParseUintArg(const std::string& key,
                              const std::string& text) {
  uint64_t value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(),
                                   value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return Status::InvalidArgument(key + "=" + text +
                                   " is not a non-negative integer");
  }
  return value;
}

Result<bool> ParseBoolArg(const std::string& key, const std::string& text) {
  if (text == "true" || text == "1") return true;
  if (text == "false" || text == "0") return false;
  return Status::InvalidArgument(key + "=" + text +
                                 " is not a boolean (want true|false|1|0)");
}

const std::string* FindArg(const Request& request, const char* key) {
  auto it = request.args.find(key);
  return it == request.args.end() ? nullptr : &it->second;
}

}  // namespace

const char* VerbToString(Verb verb) {
  for (const VerbInfo& info : kVerbs) {
    if (info.verb == verb) return info.name;
  }
  return "?";
}

Result<Request> ParseRequest(const std::string& line) {
  std::vector<std::string> tokens = SplitTokens(line);
  if (tokens.empty()) {
    return Status::InvalidArgument("empty command line");
  }
  std::string verb_text = tokens[0];
  for (char& c : verb_text) {
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
  }
  const VerbInfo* info = FindVerb(verb_text);
  if (info == nullptr) {
    return Status::InvalidArgument(
        "unknown command '" + tokens[0] +
        "' (want OPEN|DIVERSIFY|ZOOM|STATS|CLOSE|BATCH)");
  }

  Request request;
  request.verb = info->verb;
  for (size_t i = 1; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("malformed argument '" + token +
                                     "' (want key=value)");
    }
    std::string key = token.substr(0, eq);
    if (!VerbAccepts(*info, key)) {
      return Status::InvalidArgument("unknown key '" + key + "' for " +
                                     info->name);
    }
    if (request.args.count(key) != 0) {
      return Status::InvalidArgument("duplicate key '" + key + "'");
    }
    request.args[key] = token.substr(eq + 1);
  }
  if (info->required != nullptr &&
      request.args.count(info->required) == 0) {
    return Status::InvalidArgument(std::string(info->name) + " requires " +
                                   info->required + "=...");
  }
  return request;
}

Result<OpenParams> DecodeOpen(const Request& request) {
  uint64_t n = kDefaultOpenN;
  uint64_t dim = kDefaultOpenDim;
  uint64_t seed = kDefaultOpenSeed;
  if (const std::string* text = FindArg(request, "n")) {
    DISC_ASSIGN_OR_RETURN(n, ParseUintArg("n", *text));
  }
  if (const std::string* text = FindArg(request, "dim")) {
    DISC_ASSIGN_OR_RETURN(dim, ParseUintArg("dim", *text));
  }
  if (const std::string* text = FindArg(request, "seed")) {
    DISC_ASSIGN_OR_RETURN(seed, ParseUintArg("seed", *text));
  }
  if (n == 0 || dim == 0) {
    return Status::InvalidArgument("n and dim must be positive");
  }
  // One OPEN must not be able to take the daemon down: an enormous n*dim
  // would throw bad_alloc inside a worker thread while materializing the
  // dataset. The cap is far above every supported workload (the library
  // targets tens of thousands of points; see ROADMAP.md).
  constexpr uint64_t kMaxCells = uint64_t{1} << 26;  // 64M doubles = 512 MB
  if (n > kMaxCells / dim) {
    return Status::InvalidArgument(
        "n*dim = " + std::to_string(n) + "*" + std::to_string(dim) +
        " exceeds the serving limit of " + std::to_string(kMaxCells) +
        " coordinates");
  }

  OpenParams params;
  params.dataset_text = *FindArg(request, "dataset");
  DISC_ASSIGN_OR_RETURN(
      params.config.dataset,
      ParseDatasetSpec(params.dataset_text, n, dim, seed));

  params.config.metric = DefaultMetricFor(params.config.dataset.source);
  if (const std::string* text = FindArg(request, "metric")) {
    DISC_ASSIGN_OR_RETURN(params.config.metric, ParseMetricKind(*text));
  }

  if (const std::string* text = FindArg(request, "build")) {
    if (*text == "bulk") {
      params.config.tree.build.strategy = BuildStrategy::kBulkLoad;
    } else if (*text != "insert") {
      return Status::InvalidArgument("unknown build strategy '" + *text +
                                     "' (want insert or bulk)");
    }
  }

  if (const std::string* text = FindArg(request, "backend")) {
    DISC_ASSIGN_OR_RETURN(params.config.neighbor.kind,
                          ParseNeighborBackendKind(*text));
    params.backend_specified = true;
  }
  return params;
}

Result<DiversifyRequest> DecodeDiversify(const Request& request) {
  DiversifyRequest decoded;
  DISC_ASSIGN_OR_RETURN(decoded.radius,
                        ParseDoubleArg("r", *FindArg(request, "r")));
  if (const std::string* text = FindArg(request, "algo")) {
    DISC_ASSIGN_OR_RETURN(decoded.algorithm, ParseAlgorithm(*text));
  }
  if (const std::string* text = FindArg(request, "pruned")) {
    DISC_ASSIGN_OR_RETURN(decoded.pruned, ParseBoolArg("pruned", *text));
  }
  if (const std::string* text = FindArg(request, "quality")) {
    DISC_ASSIGN_OR_RETURN(decoded.compute_quality,
                          ParseBoolArg("quality", *text));
  }
  return decoded;
}

Result<bool> DecodeDiversifyAdapt(const Request& request) {
  if (const std::string* text = FindArg(request, "adapt")) {
    return ParseBoolArg("adapt", *text);
  }
  return false;
}

Result<ZoomRequest> DecodeZoom(const Request& request) {
  ZoomRequest decoded;
  DISC_ASSIGN_OR_RETURN(decoded.radius,
                        ParseDoubleArg("to", *FindArg(request, "to")));
  if (const std::string* text = FindArg(request, "greedy")) {
    DISC_ASSIGN_OR_RETURN(decoded.greedy, ParseBoolArg("greedy", *text));
  }
  if (const std::string* text = FindArg(request, "variant")) {
    // The names ZoomOutVariantToString produces (core/zoom.h).
    if (*text == "arbitrary") {
      decoded.zoom_out_variant = ZoomOutVariant::kArbitrary;
    } else if (*text == "greedy-a") {
      decoded.zoom_out_variant = ZoomOutVariant::kGreedyMostRed;
    } else if (*text == "greedy-b") {
      decoded.zoom_out_variant = ZoomOutVariant::kGreedyFewestRed;
    } else if (*text == "greedy-c") {
      decoded.zoom_out_variant = ZoomOutVariant::kGreedyMostWhite;
    } else {
      return Status::InvalidArgument(
          "unknown zoom-out variant '" + *text +
          "' (want arbitrary|greedy-a|greedy-b|greedy-c)");
    }
  }
  if (const std::string* text = FindArg(request, "center")) {
    DISC_ASSIGN_OR_RETURN(uint64_t center, ParseUintArg("center", *text));
    if (center > UINT32_MAX) {
      return Status::InvalidArgument("center=" + *text + " is out of range");
    }
    decoded.center = static_cast<ObjectId>(center);
  }
  if (const std::string* text = FindArg(request, "distances")) {
    if (*text == "auto") {
      decoded.distances = DistancePolicy::kAuto;
    } else if (*text == "exact") {
      decoded.distances = DistancePolicy::kRequireExact;
    } else {
      return Status::InvalidArgument("unknown distances policy '" + *text +
                                     "' (want auto|exact)");
    }
  }
  if (const std::string* text = FindArg(request, "quality")) {
    DISC_ASSIGN_OR_RETURN(decoded.compute_quality,
                          ParseBoolArg("quality", *text));
  }
  return decoded;
}

Result<size_t> DecodeBatchSize(const Request& request) {
  DISC_ASSIGN_OR_RETURN(uint64_t n, ParseUintArg("n", *FindArg(request, "n")));
  if (n == 0) {
    return Status::InvalidArgument("BATCH n must be positive");
  }
  if (n > kMaxBatchCommands) {
    return Status::InvalidArgument(
        "BATCH n=" + std::to_string(n) + " exceeds the limit of " +
        std::to_string(kMaxBatchCommands) +
        " commands per batch (pipeline multiple batches instead)");
  }
  return static_cast<size_t>(n);
}

Result<std::vector<std::string>> ParseJsonStringArray(
    const std::string& text) {
  size_t pos = 0;
  const auto skip_ws = [&] {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  };
  skip_ws();
  if (pos >= text.size() || text[pos] != '[') {
    return Status::InvalidArgument(
        "batch body must be a JSON array of command strings");
  }
  ++pos;
  std::vector<std::string> elements;
  skip_ws();
  if (pos < text.size() && text[pos] == ']') {
    ++pos;
  } else {
    while (true) {
      skip_ws();
      if (pos >= text.size() || text[pos] != '"') {
        return Status::InvalidArgument(
            "batch array elements must be JSON strings");
      }
      ++pos;
      std::string element;
      while (true) {
        if (pos >= text.size()) {
          return Status::InvalidArgument("unterminated JSON string");
        }
        const char c = text[pos++];
        if (c == '"') break;
        if (c != '\\') {
          if (static_cast<unsigned char>(c) < 0x20) {
            return Status::InvalidArgument(
                "unescaped control character in JSON string");
          }
          element += c;
          continue;
        }
        if (pos >= text.size()) {
          return Status::InvalidArgument("unterminated JSON escape");
        }
        const char esc = text[pos++];
        switch (esc) {
          case '"': element += '"'; break;
          case '\\': element += '\\'; break;
          case '/': element += '/'; break;
          case 'b': element += '\b'; break;
          case 'f': element += '\f'; break;
          case 'n': element += '\n'; break;
          case 'r': element += '\r'; break;
          case 't': element += '\t'; break;
          case 'u': {
            if (pos + 4 > text.size()) {
              return Status::InvalidArgument("truncated \\u escape");
            }
            unsigned code = 0;
            const auto [end, ec] = std::from_chars(
                text.data() + pos, text.data() + pos + 4, code, /*base=*/16);
            if (ec != std::errc() || end != text.data() + pos + 4) {
              return Status::InvalidArgument("malformed \\u escape");
            }
            // Command lines are ASCII; decoding multi-byte code points would
            // only smuggle bytes ParseRequest rejects anyway.
            if (code > 0x7F) {
              return Status::InvalidArgument(
                  "non-ASCII \\u escapes are not supported");
            }
            pos += 4;
            element += static_cast<char>(code);
            break;
          }
          default:
            return Status::InvalidArgument("unknown JSON escape");
        }
      }
      elements.push_back(std::move(element));
      skip_ws();
      if (pos >= text.size()) {
        return Status::InvalidArgument("unterminated JSON array");
      }
      if (text[pos] == ',') {
        ++pos;
        continue;
      }
      if (text[pos] == ']') {
        ++pos;
        break;
      }
      return Status::InvalidArgument("malformed JSON array");
    }
  }
  skip_ws();
  if (pos != text.size()) {
    return Status::InvalidArgument("trailing bytes after JSON array");
  }
  return elements;
}

// ---------------------------------------------------------------------------
// JSON serialization
// ---------------------------------------------------------------------------

std::string JsonEscape(const std::string& text) {
  std::string escaped;
  escaped.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        escaped += "\\\"";
        break;
      case '\\':
        escaped += "\\\\";
        break;
      case '\n':
        escaped += "\\n";
        break;
      case '\r':
        escaped += "\\r";
        break;
      case '\t':
        escaped += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          escaped += buf;
        } else {
          escaped += c;
        }
    }
  }
  return escaped;
}

std::string FormatJsonDouble(double value) {
  char buf[32];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) return "null";
  std::string text(buf, ptr);
  // JSON has no inf/nan literals.
  if (text.find("inf") != std::string::npos ||
      text.find("nan") != std::string::npos) {
    return "null";
  }
  return text;
}

JsonWriter& JsonWriter::RawField(const std::string& key,
                                 const std::string& json) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += JsonEscape(key);
  body_ += "\":";
  body_ += json;
  return *this;
}

JsonWriter& JsonWriter::Field(const std::string& key,
                              const std::string& value) {
  // Built piecewise: `"\"" + JsonEscape(...) + "\""` trips a GCC 12
  // -Wrestrict false positive (bug 105651) when inlined.
  std::string quoted;
  quoted.reserve(value.size() + 2);
  quoted += '"';
  quoted += JsonEscape(value);
  quoted += '"';
  return RawField(key, quoted);
}

JsonWriter& JsonWriter::Field(const std::string& key, const char* value) {
  return Field(key, std::string(value));
}

JsonWriter& JsonWriter::Field(const std::string& key, bool value) {
  return RawField(key, value ? "true" : "false");
}

JsonWriter& JsonWriter::Field(const std::string& key, uint64_t value) {
  return RawField(key, std::to_string(value));
}

JsonWriter& JsonWriter::Field(const std::string& key, double value) {
  return RawField(key, FormatJsonDouble(value));
}

std::string JsonWriter::Finish() const { return "{" + body_ + "}"; }

std::string SerializeSolution(const std::vector<ObjectId>& solution) {
  std::string json = "[";
  for (size_t i = 0; i < solution.size(); ++i) {
    if (i > 0) json += ',';
    json += std::to_string(solution[i]);
  }
  json += ']';
  return json;
}

namespace {

void AppendQuality(JsonWriter* writer, const QualityMetrics& quality) {
  writer->Field("f_min", quality.f_min);
  writer->Field("coverage", quality.coverage);
  writer->Field("verified", quality.verification.ok()
                                ? "OK"
                                : quality.verification.ToString());
}

}  // namespace

namespace {

std::string SerializeDiversifyLike(Verb verb,
                                   const DiversifyResponse& response,
                                   bool include_wall_ms,
                                   const double* seed_radius) {
  JsonWriter writer;
  writer.Field("ok", true);
  writer.Field("cmd", VerbToString(verb));
  writer.Field("size", static_cast<uint64_t>(response.solution.size()));
  writer.Field("radius", response.radius);
  writer.Field("from_cache", response.from_cache);
  if (seed_radius != nullptr) {
    writer.Field("adapted", true);
    writer.Field("seed_radius", *seed_radius);
  }
  writer.Field("node_accesses", response.stats.node_accesses);
  writer.Field("range_queries", response.stats.range_queries);
  writer.Field("distance_computations", response.stats.distance_computations);
  if (response.quality.has_value()) AppendQuality(&writer, *response.quality);
  writer.RawField("solution", SerializeSolution(response.solution));
  // Last, so everything before it compares byte-identically across the wire
  // and a direct engine call (the one machine-dependent field).
  if (include_wall_ms) writer.Field("wall_ms", response.wall_ms);
  return writer.Finish();
}

}  // namespace

std::string SerializeDiversifyResponse(Verb verb,
                                       const DiversifyResponse& response,
                                       bool include_wall_ms) {
  return SerializeDiversifyLike(verb, response, include_wall_ms, nullptr);
}

std::string SerializeAdaptedResponse(const DiversifyResponse& response,
                                     double seed_radius,
                                     bool include_wall_ms) {
  return SerializeDiversifyLike(Verb::kDiversify, response, include_wall_ms,
                                &seed_radius);
}

std::string SerializeOpen(const EngineSnapshot& snapshot,
                          const std::string& dataset_text, bool reused) {
  JsonWriter writer;
  writer.Field("ok", true);
  writer.Field("cmd", VerbToString(Verb::kOpen));
  writer.Field("dataset", dataset_text);
  writer.Field("n", static_cast<uint64_t>(snapshot.dataset_size));
  writer.Field("dim", static_cast<uint64_t>(snapshot.dim));
  writer.Field("metric", MetricKindToString(snapshot.metric));
  writer.Field("build", BuildStrategyToString(snapshot.build_strategy));
  // Emitted only off the default so every pre-backend transcript stays
  // byte-identical.
  if (snapshot.backend != NeighborBackendKind::kExact) {
    writer.Field("backend", NeighborBackendKindToString(snapshot.backend));
  }
  writer.Field("reused", reused);
  writer.Field("sessions_served",
               static_cast<uint64_t>(snapshot.sessions_served));
  return writer.Finish();
}

std::string SerializeSnapshot(const EngineSnapshot& snapshot) {
  JsonWriter writer;
  writer.Field("ok", true);
  writer.Field("cmd", VerbToString(Verb::kStats));
  writer.Field("dataset_size", static_cast<uint64_t>(snapshot.dataset_size));
  writer.Field("dim", static_cast<uint64_t>(snapshot.dim));
  writer.Field("metric", MetricKindToString(snapshot.metric));
  writer.Field("build", BuildStrategyToString(snapshot.build_strategy));
  if (snapshot.backend != NeighborBackendKind::kExact) {
    writer.Field("backend", NeighborBackendKindToString(snapshot.backend));
  }
  writer.Field("tree_nodes", static_cast<uint64_t>(snapshot.tree_nodes));
  writer.Field("tree_height", static_cast<uint64_t>(snapshot.tree_height));
  writer.Field("has_solution", snapshot.has_solution);
  writer.Field("zoomable", snapshot.zoomable);
  if (!snapshot.zoom_blocker.empty()) {
    writer.Field("zoom_blocker", snapshot.zoom_blocker);
  }
  if (snapshot.has_solution) {
    writer.Field("algorithm", AlgorithmToString(snapshot.algorithm));
    writer.Field("radius", snapshot.radius);
    writer.Field("solution_size",
                 static_cast<uint64_t>(snapshot.solution_size));
    writer.Field("distances_exact", snapshot.distances_exact);
  }
  writer.Field("cached_solutions",
               static_cast<uint64_t>(snapshot.cached_solutions));
  writer.Field("cached_count_radii",
               static_cast<uint64_t>(snapshot.cached_count_radii));
  writer.Field("cache_hits", static_cast<uint64_t>(snapshot.cache_hits));
  writer.Field("computations", static_cast<uint64_t>(snapshot.computations));
  writer.Field("coalesced", static_cast<uint64_t>(snapshot.adopted_sessions));
  writer.Field("sessions_served",
               static_cast<uint64_t>(snapshot.sessions_served));
  writer.Field("node_accesses", snapshot.lifetime_stats.node_accesses);
  writer.Field("range_queries", snapshot.lifetime_stats.range_queries);
  writer.Field("distance_computations",
               snapshot.lifetime_stats.distance_computations);
  return writer.Finish();
}

std::string SerializeClose() {
  JsonWriter writer;
  writer.Field("ok", true);
  writer.Field("cmd", VerbToString(Verb::kClose));
  return writer.Finish();
}

std::string SerializeError(const std::string& cmd, const Status& status) {
  JsonWriter writer;
  writer.Field("ok", false);
  writer.Field("cmd", cmd);
  writer.Field("code", StatusCodeToString(status.code()));
  writer.Field("error", status.message());
  return writer.Finish();
}

}  // namespace disc
