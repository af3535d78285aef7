// Deterministic fuzz tests for the wire-protocol parser (ISSUE 6): random
// and adversarially mutated command lines — truncations, byte flips,
// oversized tokens, embedded NULs, invalid UTF-8 — must always come back
// as a Status error or a well-formed Request, never a crash or a hang.
// The suite runs under ASan/UBSan in CI, so "no crash" includes "no
// out-of-bounds read" on any of these inputs.
//
// The generator is a fixed-seed LCG (no std::random_device), so every run
// fuzzes the exact same corpus: a failure reproduces by re-running the
// test, and the iteration index in the failure message pins the input.

#include "server/protocol.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace disc {
namespace {

/// Minimal deterministic generator (numerical-recipes LCG).
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 33;
  }

  /// Uniform in [0, bound).
  uint64_t Below(uint64_t bound) { return Next() % bound; }

  char AnyByte() { return static_cast<char>(Below(256)); }

 private:
  uint64_t state_;
};

/// A printable summary of a fuzz input for failure messages (hex-escapes
/// everything non-ASCII so the log itself stays one line).
std::string Summarize(const std::string& input) {
  std::string out;
  for (size_t i = 0; i < input.size() && i < 160; ++i) {
    const unsigned char byte = static_cast<unsigned char>(input[i]);
    if (byte >= 32 && byte < 127) {
      out += static_cast<char>(byte);
    } else {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\x%02x", byte);
      out += buffer;
    }
  }
  if (input.size() > 160) out += "...";
  return out;
}

/// Drives one input through the full decode path: parse, then — when the
/// parse succeeds — decode into the verb's typed request. Every outcome
/// except a crash is acceptable; a successful parse must also be stable
/// under re-parsing (same ok-ness, same verb).
void ExerciseLine(const std::string& line, size_t iteration) {
  Result<Request> request = ParseRequest(line);
  if (!request.ok()) {
    EXPECT_FALSE(request.status().message().empty())
        << "errors must carry a message; input " << iteration << ": "
        << Summarize(line);
    return;
  }
  Result<Request> again = ParseRequest(line);
  ASSERT_TRUE(again.ok()) << "parse not deterministic; input " << iteration
                          << ": " << Summarize(line);
  EXPECT_EQ(static_cast<int>(again->verb), static_cast<int>(request->verb));
  switch (request->verb) {
    case Verb::kOpen:
      (void)DecodeOpen(*request);
      break;
    case Verb::kDiversify:
      (void)DecodeDiversify(*request);
      break;
    case Verb::kZoom:
      (void)DecodeZoom(*request);
      break;
    case Verb::kBatchEnvelope:
      (void)DecodeBatchSize(*request);
      break;
    case Verb::kStats:
    case Verb::kClose:
      break;
  }
  // Whatever survived parsing must serialize safely as an error echo (the
  // server does exactly this with client-controlled text).
  for (const auto& [key, value] : request->args) {
    (void)JsonEscape(key);
    (void)JsonEscape(value);
  }
}

TEST(ProtocolFuzzTest, RandomBytesNeverCrashTheParser) {
  Lcg rng(0x5eed0001);
  for (size_t i = 0; i < 20000; ++i) {
    std::string line(rng.Below(120), '\0');
    for (char& byte : line) byte = rng.AnyByte();
    ExerciseLine(line, i);
  }
}

TEST(ProtocolFuzzTest, MutatedValidCommandsNeverCrashTheParser) {
  const std::vector<std::string> corpus = {
      "OPEN dataset=clustered n=400 dim=2 seed=9 metric=euclidean "
      "build=insert",
      "OPEN dataset=csv:/tmp/points.csv metric=manhattan",
      "DIVERSIFY r=0.05 algo=greedy-c pruned=true quality=false",
      "DIVERSIFY r=1e-9 algo=basic",
      "ZOOM to=0.025 greedy=true variant=greedy-b center=17 "
      "distances=exact quality=true",
      "ZOOM to=0.1 variant=arbitrary distances=auto",
      "STATS",
      "CLOSE",
  };
  Lcg rng(0x5eed0002);
  for (size_t i = 0; i < 20000; ++i) {
    std::string line = corpus[rng.Below(corpus.size())];
    const size_t mutations = 1 + rng.Below(4);
    for (size_t m = 0; m < mutations; ++m) {
      switch (rng.Below(6)) {
        case 0:  // truncate anywhere, possibly mid-token
          if (!line.empty()) line.resize(rng.Below(line.size() + 1));
          break;
        case 1:  // flip one byte to anything, NUL included
          if (!line.empty()) line[rng.Below(line.size())] = rng.AnyByte();
          break;
        case 2: {  // insert a short burst of invalid UTF-8
          static const char kBurst[] = "\xc3\x28\xa0\xff\xfe\x00\xf0\x28";
          const size_t at = rng.Below(line.size() + 1);
          line.insert(at, kBurst, sizeof(kBurst) - 1);
          break;
        }
        case 3:  // duplicate a random slice (repeated keys, glued tokens)
          if (!line.empty()) {
            const size_t from = rng.Below(line.size());
            const size_t count = rng.Below(line.size() - from) + 1;
            line.insert(rng.Below(line.size() + 1),
                        line.substr(from, count));
          }
          break;
        case 4:  // splice two corpus entries together
          line += ' ';
          line += corpus[rng.Below(corpus.size())];
          break;
        case 5:  // swap the separator structure around
          for (char& byte : line) {
            if (byte == '=' && rng.Below(4) == 0) byte = ' ';
            if (byte == ' ' && rng.Below(4) == 0) byte = '=';
          }
          break;
      }
    }
    ExerciseLine(line, i);
  }
}

TEST(ProtocolFuzzTest, OversizedTokensAreHandledWithoutCrashing) {
  // Far beyond anything the transport admits per line (it caps at 1 MiB
  // without a newline); the parser itself must not care.
  const std::string huge_value(2 << 20, 'x');
  ExerciseLine("OPEN dataset=" + huge_value, 0);
  ExerciseLine("DIVERSIFY r=" + huge_value, 1);
  ExerciseLine("DIVERSIFY r=0.05 " + huge_value + "=1", 2);
  const std::string huge_key(1 << 20, 'k');
  ExerciseLine("ZOOM to=0.1 " + huge_key + "=" + huge_value, 3);
  ExerciseLine(std::string(1 << 20, ' ') + "STATS", 4);
  ExerciseLine("STATS" + std::string(1 << 20, ' '), 5);
}

TEST(ProtocolFuzzTest, EmbeddedNulsAndControlBytesAreJustBytes) {
  // NULs in every structural position: verb, key, value, separators.
  const std::vector<std::string> lines = {
      std::string("\0OPEN dataset=clustered", 23),
      std::string("OPEN\0 dataset=clustered", 23),
      std::string("OPEN dataset=clu\0stered", 23),
      std::string("OPEN dataset\0=clustered", 23),
      std::string("OPEN \0=\0", 8),
      std::string("\0\0\0\0", 4),
      std::string("DIVERSIFY r=0.05\0", 17),
      std::string("STATS\0", 6),
  };
  for (size_t i = 0; i < lines.size(); ++i) ExerciseLine(lines[i], i);
}

TEST(ProtocolFuzzTest, JsonEscapeIsSafeOnArbitraryBytes) {
  Lcg rng(0x5eed0003);
  for (size_t i = 0; i < 5000; ++i) {
    std::string text(rng.Below(64), '\0');
    for (char& byte : text) byte = rng.AnyByte();
    const std::string escaped = JsonEscape(text);
    // The escaped form must be embeddable in a JSON string: no raw
    // quote, backslash, or control byte may survive unescaped.
    for (size_t at = 0; at < escaped.size(); ++at) {
      const unsigned char byte = static_cast<unsigned char>(escaped[at]);
      if (byte < 0x20) {
        ADD_FAILURE() << "raw control byte " << static_cast<int>(byte)
                      << " at " << at << " in: " << Summarize(escaped);
        break;
      }
      if (escaped[at] == '"' &&
          (at == 0 || escaped[at - 1] != '\\')) {
        ADD_FAILURE() << "unescaped quote at " << at << " in: "
                      << Summarize(escaped);
        break;
      }
    }
  }
}

}  // namespace
}  // namespace disc
