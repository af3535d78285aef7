// Unit tests for the disc_serve wire protocol (server/protocol.h): command
// parsing, typed request decoding, and JSON response serialization.

#include "server/protocol.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/disc_algorithms.h"
#include "core/zoom.h"
#include "metric/metric.h"
#include "mtree/mtree.h"
#include "util/status.h"

namespace disc {
namespace {

Request MustParse(const std::string& line) {
  auto request = ParseRequest(line);
  EXPECT_TRUE(request.ok()) << line << ": " << request.status().ToString();
  return std::move(request).value();
}

// ---------------------------------------------------------------------------
// ParseRequest
// ---------------------------------------------------------------------------

TEST(ParseRequestTest, ParsesEveryVerb) {
  EXPECT_EQ(MustParse("OPEN dataset=cities").verb, Verb::kOpen);
  EXPECT_EQ(MustParse("DIVERSIFY r=0.05").verb, Verb::kDiversify);
  EXPECT_EQ(MustParse("ZOOM to=0.01").verb, Verb::kZoom);
  EXPECT_EQ(MustParse("STATS").verb, Verb::kStats);
  EXPECT_EQ(MustParse("CLOSE").verb, Verb::kClose);
  EXPECT_EQ(MustParse("BATCH n=4").verb, Verb::kBatchEnvelope);
}

TEST(ParseRequestTest, VerbIsCaseInsensitive) {
  EXPECT_EQ(MustParse("stats").verb, Verb::kStats);
  EXPECT_EQ(MustParse("Open dataset=cities").verb, Verb::kOpen);
}

TEST(ParseRequestTest, CollectsKeyValueArguments) {
  Request request =
      MustParse("OPEN dataset=clustered n=500 dim=3 seed=7 build=bulk");
  EXPECT_EQ(request.args.at("dataset"), "clustered");
  EXPECT_EQ(request.args.at("n"), "500");
  EXPECT_EQ(request.args.at("dim"), "3");
  EXPECT_EQ(request.args.at("seed"), "7");
  EXPECT_EQ(request.args.at("build"), "bulk");
}

TEST(ParseRequestTest, ToleratesExtraWhitespace) {
  Request request = MustParse("  OPEN   dataset=cities \t n=10  ");
  EXPECT_EQ(request.verb, Verb::kOpen);
  EXPECT_EQ(request.args.size(), 2u);
}

TEST(ParseRequestTest, RejectsEmptyLine) {
  auto request = ParseRequest("   ");
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParseRequestTest, RejectsUnknownVerb) {
  auto request = ParseRequest("FROBNICATE x=1");
  ASSERT_FALSE(request.ok());
  EXPECT_NE(request.status().message().find("unknown command"),
            std::string::npos);
}

TEST(ParseRequestTest, RejectsMalformedToken) {
  auto request = ParseRequest("OPEN dataset");
  ASSERT_FALSE(request.ok());
  EXPECT_NE(request.status().message().find("key=value"), std::string::npos);
}

TEST(ParseRequestTest, RejectsUnknownKeyForVerb) {
  auto request = ParseRequest("DIVERSIFY r=0.1 dataset=cities");
  ASSERT_FALSE(request.ok());
  EXPECT_NE(request.status().message().find("unknown key 'dataset'"),
            std::string::npos);
}

TEST(ParseRequestTest, RejectsDuplicateKey) {
  auto request = ParseRequest("DIVERSIFY r=0.1 r=0.2");
  ASSERT_FALSE(request.ok());
  EXPECT_NE(request.status().message().find("duplicate key"),
            std::string::npos);
}

TEST(ParseRequestTest, RejectsMissingRequiredKey) {
  EXPECT_FALSE(ParseRequest("OPEN n=100").ok());
  EXPECT_FALSE(ParseRequest("DIVERSIFY algo=greedy").ok());
  EXPECT_FALSE(ParseRequest("ZOOM greedy=true").ok());
}

// ---------------------------------------------------------------------------
// DecodeOpen
// ---------------------------------------------------------------------------

TEST(DecodeOpenTest, AppliesCliDefaults) {
  auto params = DecodeOpen(MustParse("OPEN dataset=clustered"));
  ASSERT_TRUE(params.ok()) << params.status().ToString();
  EXPECT_EQ(params->dataset_text, "clustered");
  EXPECT_EQ(params->config.dataset.source, DatasetSpec::Source::kClustered);
  EXPECT_EQ(params->config.dataset.n, 10000u);
  EXPECT_EQ(params->config.dataset.dim, 2u);
  EXPECT_EQ(params->config.dataset.seed, 42u);
  EXPECT_EQ(params->config.metric, MetricKind::kEuclidean);
  EXPECT_EQ(params->config.tree.build.strategy,
            BuildStrategy::kInsertAtATime);
}

TEST(DecodeOpenTest, MetricDefaultsPerDataset) {
  auto params = DecodeOpen(MustParse("OPEN dataset=cameras"));
  ASSERT_TRUE(params.ok());
  EXPECT_EQ(params->config.metric, MetricKind::kHamming);
}

TEST(DecodeOpenTest, ExplicitKnobsOverrideDefaults) {
  auto params = DecodeOpen(MustParse(
      "OPEN dataset=uniform n=64 dim=5 seed=3 metric=manhattan build=bulk"));
  ASSERT_TRUE(params.ok()) << params.status().ToString();
  EXPECT_EQ(params->config.dataset.n, 64u);
  EXPECT_EQ(params->config.dataset.dim, 5u);
  EXPECT_EQ(params->config.dataset.seed, 3u);
  EXPECT_EQ(params->config.metric, MetricKind::kManhattan);
  EXPECT_EQ(params->config.tree.build.strategy, BuildStrategy::kBulkLoad);
}

TEST(DecodeOpenTest, ParsesCsvSpec) {
  auto params = DecodeOpen(MustParse("OPEN dataset=csv:/tmp/points.csv"));
  ASSERT_TRUE(params.ok());
  EXPECT_EQ(params->config.dataset.source, DatasetSpec::Source::kCsv);
  EXPECT_EQ(params->config.dataset.csv_path, "/tmp/points.csv");
}

TEST(DecodeOpenTest, RejectsBadValues) {
  EXPECT_FALSE(DecodeOpen(MustParse("OPEN dataset=nope")).ok());
  EXPECT_FALSE(DecodeOpen(MustParse("OPEN dataset=uniform n=abc")).ok());
  EXPECT_FALSE(DecodeOpen(MustParse("OPEN dataset=uniform n=0")).ok());
  EXPECT_FALSE(DecodeOpen(MustParse("OPEN dataset=uniform dim=0")).ok());
  EXPECT_FALSE(
      DecodeOpen(MustParse("OPEN dataset=uniform metric=taxicab")).ok());
  EXPECT_FALSE(
      DecodeOpen(MustParse("OPEN dataset=uniform build=magic")).ok());
}

TEST(DecodeOpenTest, RejectsOversizedWorkloads) {
  // One OPEN must not be able to bad_alloc the daemon (n*dim is capped).
  auto params =
      DecodeOpen(MustParse("OPEN dataset=uniform n=99999999999 dim=2"));
  ASSERT_FALSE(params.ok());
  EXPECT_EQ(params.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(params.status().message().find("serving limit"),
            std::string::npos)
      << params.status().ToString();
  // Overflow-proof: huge dim with small n is caught by the same division.
  EXPECT_FALSE(
      DecodeOpen(MustParse("OPEN dataset=uniform n=2 dim=99999999999"))
          .ok());
}

// ---------------------------------------------------------------------------
// DecodeDiversify / DecodeZoom
// ---------------------------------------------------------------------------

TEST(DecodeDiversifyTest, AppliesDefaults) {
  auto decoded = DecodeDiversify(MustParse("DIVERSIFY r=0.05"));
  ASSERT_TRUE(decoded.ok());
  EXPECT_DOUBLE_EQ(decoded->radius, 0.05);
  EXPECT_EQ(decoded->algorithm, Algorithm::kGreedy);
  EXPECT_TRUE(decoded->pruned);
  EXPECT_FALSE(decoded->compute_quality);
}

TEST(DecodeDiversifyTest, DecodesEveryAlgorithmName) {
  for (Algorithm algorithm :
       {Algorithm::kBasic, Algorithm::kGreedy, Algorithm::kGreedyWhite,
        Algorithm::kLazyGrey, Algorithm::kLazyWhite, Algorithm::kGreedyC,
        Algorithm::kFastC}) {
    auto decoded = DecodeDiversify(MustParse(
        std::string("DIVERSIFY r=0.1 algo=") + AlgorithmToString(algorithm)));
    ASSERT_TRUE(decoded.ok()) << AlgorithmToString(algorithm);
    EXPECT_EQ(decoded->algorithm, algorithm);
  }
}

TEST(DecodeDiversifyTest, RejectsBadValues) {
  EXPECT_FALSE(DecodeDiversify(MustParse("DIVERSIFY r=oops")).ok());
  EXPECT_FALSE(DecodeDiversify(MustParse("DIVERSIFY r=0.1 algo=qp")).ok());
  EXPECT_FALSE(
      DecodeDiversify(MustParse("DIVERSIFY r=0.1 pruned=perhaps")).ok());
}

TEST(DecodeZoomTest, AppliesDefaults) {
  auto decoded = DecodeZoom(MustParse("ZOOM to=0.025"));
  ASSERT_TRUE(decoded.ok());
  EXPECT_DOUBLE_EQ(decoded->radius, 0.025);
  EXPECT_TRUE(decoded->greedy);
  EXPECT_EQ(decoded->zoom_out_variant, ZoomOutVariant::kGreedyMostRed);
  EXPECT_FALSE(decoded->center.has_value());
  EXPECT_EQ(decoded->distances, DistancePolicy::kAuto);
}

TEST(DecodeZoomTest, DecodesVariantsCenterAndPolicy) {
  auto decoded = DecodeZoom(MustParse(
      "ZOOM to=0.2 greedy=false variant=arbitrary center=17 "
      "distances=exact quality=true"));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_FALSE(decoded->greedy);
  EXPECT_EQ(decoded->zoom_out_variant, ZoomOutVariant::kArbitrary);
  ASSERT_TRUE(decoded->center.has_value());
  EXPECT_EQ(*decoded->center, 17u);
  EXPECT_EQ(decoded->distances, DistancePolicy::kRequireExact);
  EXPECT_TRUE(decoded->compute_quality);

  EXPECT_EQ(DecodeZoom(MustParse("ZOOM to=0.2 variant=greedy-b"))
                ->zoom_out_variant,
            ZoomOutVariant::kGreedyFewestRed);
  EXPECT_EQ(DecodeZoom(MustParse("ZOOM to=0.2 variant=greedy-c"))
                ->zoom_out_variant,
            ZoomOutVariant::kGreedyMostWhite);
}

TEST(DecodeZoomTest, RejectsBadValues) {
  EXPECT_FALSE(DecodeZoom(MustParse("ZOOM to=tiny")).ok());
  EXPECT_FALSE(DecodeZoom(MustParse("ZOOM to=0.1 variant=greedy-z")).ok());
  EXPECT_FALSE(DecodeZoom(MustParse("ZOOM to=0.1 center=-3")).ok());
  EXPECT_FALSE(DecodeZoom(MustParse("ZOOM to=0.1 distances=maybe")).ok());
}

// ---------------------------------------------------------------------------
// The BATCH envelope: DecodeBatchSize and the POST /batch body parser
// ---------------------------------------------------------------------------

TEST(DecodeBatchSizeTest, DecodesWithinBounds) {
  auto one = DecodeBatchSize(MustParse("BATCH n=1"));
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_EQ(*one, 1u);
  auto max = DecodeBatchSize(
      MustParse("BATCH n=" + std::to_string(kMaxBatchCommands)));
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(*max, kMaxBatchCommands);
}

TEST(DecodeBatchSizeTest, RejectsZeroOversizeAndMalformedCounts) {
  auto zero = DecodeBatchSize(MustParse("BATCH n=0"));
  ASSERT_FALSE(zero.ok());
  EXPECT_EQ(zero.status().code(), StatusCode::kInvalidArgument);

  auto oversize = DecodeBatchSize(
      MustParse("BATCH n=" + std::to_string(kMaxBatchCommands + 1)));
  ASSERT_FALSE(oversize.ok());
  EXPECT_NE(oversize.status().message().find("exceeds the limit"),
            std::string::npos)
      << oversize.status().ToString();

  EXPECT_FALSE(DecodeBatchSize(MustParse("BATCH n=four")).ok());
  // n is required, and the envelope takes no other keys.
  EXPECT_FALSE(ParseRequest("BATCH").ok());
  EXPECT_FALSE(ParseRequest("BATCH n=2 r=0.1").ok());
}

TEST(ParseJsonStringArrayTest, ParsesCommandsWithEscapesAndWhitespace) {
  auto commands = ParseJsonStringArray(
      " [ \"OPEN dataset=cities\" ,\n\t\"DIVERSIFY r=0.05\" ] ");
  ASSERT_TRUE(commands.ok()) << commands.status().ToString();
  ASSERT_EQ(commands->size(), 2u);
  EXPECT_EQ((*commands)[0], "OPEN dataset=cities");
  EXPECT_EQ((*commands)[1], "DIVERSIFY r=0.05");

  auto escaped = ParseJsonStringArray(R"(["a\"b\\cA\t"])");
  ASSERT_TRUE(escaped.ok()) << escaped.status().ToString();
  ASSERT_EQ(escaped->size(), 1u);
  EXPECT_EQ((*escaped)[0], "a\"b\\cA\t");

  auto empty = ParseJsonStringArray("[]");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(ParseJsonStringArrayTest, RejectsNonArrayShapes) {
  for (const char* bad :
       {"", "not json", "{\"a\":1}", "[1,2]", "[\"a\",]", "[\"a\"",
        "[\"a\"] trailing", "[\"unterminated]", R"(["bad \x escape"])"}) {
    auto parsed = ParseJsonStringArray(bad);
    EXPECT_FALSE(parsed.ok()) << bad;
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
    }
  }
}

// ---------------------------------------------------------------------------
// JSON serialization
// ---------------------------------------------------------------------------

TEST(JsonTest, EscapesSpecialCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonEscape(std::string("a\x01z")), "a\\u0001z");
}

TEST(JsonTest, FormatsDoublesShortestRoundTrip) {
  EXPECT_EQ(FormatJsonDouble(0.05), "0.05");
  EXPECT_EQ(FormatJsonDouble(2.0), "2");
  EXPECT_EQ(FormatJsonDouble(-1.5), "-1.5");
  EXPECT_EQ(FormatJsonDouble(INFINITY), "null");
  EXPECT_EQ(FormatJsonDouble(NAN), "null");
}

TEST(JsonTest, WriterPreservesFieldOrder) {
  JsonWriter writer;
  writer.Field("ok", true);
  writer.Field("count", static_cast<uint64_t>(3));
  writer.Field("name", "a\"b");
  EXPECT_EQ(writer.Finish(), "{\"ok\":true,\"count\":3,\"name\":\"a\\\"b\"}");
}

TEST(JsonTest, SerializesSolutionsInSelectionOrder) {
  EXPECT_EQ(SerializeSolution({}), "[]");
  EXPECT_EQ(SerializeSolution({5, 1, 9}), "[5,1,9]");
}

TEST(SerializeTest, DiversifyResponseShape) {
  DiversifyResponse response;
  response.solution = {4, 2};
  response.radius = 0.25;
  response.stats.node_accesses = 10;
  response.stats.range_queries = 3;
  response.stats.distance_computations = 99;
  response.wall_ms = 1.25;

  EXPECT_EQ(SerializeDiversifyResponse(Verb::kDiversify, response,
                                       /*include_wall_ms=*/false),
            "{\"ok\":true,\"cmd\":\"DIVERSIFY\",\"size\":2,"
            "\"radius\":0.25,\"from_cache\":false,\"node_accesses\":10,"
            "\"range_queries\":3,\"distance_computations\":99,"
            "\"solution\":[4,2]}");
}

TEST(SerializeTest, WallMsIsTheOnlyTrailingDifference) {
  DiversifyResponse response;
  response.solution = {1};
  response.radius = 0.1;
  std::string without =
      SerializeDiversifyResponse(Verb::kZoom, response, false);
  std::string with = SerializeDiversifyResponse(Verb::kZoom, response, true);
  // Everything deterministic is a shared prefix; wall_ms rides at the end.
  std::string prefix = without.substr(0, without.size() - 1);
  EXPECT_EQ(with.rfind(prefix, 0), 0u) << with;
  EXPECT_NE(with.find("\"wall_ms\":"), std::string::npos);
}

TEST(SerializeTest, QualityFieldsAppearWhenComputed) {
  DiversifyResponse response;
  response.solution = {1, 2};
  response.radius = 0.1;
  QualityMetrics quality;
  quality.f_min = 0.5;
  quality.coverage = 1.0;
  quality.verification = Status::OK();
  response.quality = quality;
  std::string line =
      SerializeDiversifyResponse(Verb::kDiversify, response, false);
  EXPECT_NE(line.find("\"f_min\":0.5"), std::string::npos) << line;
  EXPECT_NE(line.find("\"coverage\":1"), std::string::npos) << line;
  EXPECT_NE(line.find("\"verified\":\"OK\""), std::string::npos) << line;
}

TEST(SerializeTest, ErrorShape) {
  std::string line = SerializeError(
      "ZOOM", Status::FailedPrecondition("no solution \"yet\""));
  EXPECT_EQ(line,
            "{\"ok\":false,\"cmd\":\"ZOOM\",\"code\":\"FailedPrecondition\","
            "\"error\":\"no solution \\\"yet\\\"\"}");
}

TEST(SerializeTest, SnapshotIncludesSessionAndLifetimeFields) {
  EngineSnapshot snapshot;
  snapshot.dataset_size = 100;
  snapshot.dim = 2;
  snapshot.has_solution = true;
  snapshot.zoomable = true;
  snapshot.algorithm = Algorithm::kGreedy;
  snapshot.radius = 0.05;
  snapshot.solution_size = 7;
  snapshot.sessions_served = 3;
  snapshot.lifetime_stats.node_accesses = 123;
  std::string line = SerializeSnapshot(snapshot);
  EXPECT_NE(line.find("\"cmd\":\"STATS\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"algorithm\":\"greedy\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"sessions_served\":3"), std::string::npos) << line;
  EXPECT_NE(line.find("\"node_accesses\":123"), std::string::npos) << line;
}

}  // namespace
}  // namespace disc
