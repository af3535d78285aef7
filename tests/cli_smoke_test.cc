// End-to-end smoke test for the disc_cli example binary.
//
// Drives the CLI the way a user would — generate a tiny dataset, diversify,
// zoom, write a CSV — and asserts that a verified r-DisC subset is reported.
// The binary path is injected by CMake as DISC_CLI_PATH; the test is only
// registered when the examples are built.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#ifndef DISC_CLI_PATH
#error "DISC_CLI_PATH must be defined to the disc_cli binary location"
#endif

namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult RunCli(const std::string& args) {
  CommandResult result;
  std::string cmd = std::string(DISC_CLI_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[512];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    result.output += buffer;
  }
  int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

// Extracts the integer following `key` in the CLI's table output,
// e.g. "solution size  15".
long ExtractCount(const std::string& output, const std::string& key) {
  size_t pos = output.find(key);
  if (pos == std::string::npos) return -1;
  pos += key.size();
  while (pos < output.size() && output[pos] == ' ') ++pos;
  return std::strtol(output.c_str() + pos, nullptr, 10);
}

TEST(DiscCliSmokeTest, TinyDatasetYieldsVerifiedSubset) {
  CommandResult r =
      RunCli("--dataset=clustered --n=200 --dim=2 --seed=7 --radius=0.1");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("verified"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("OK"), std::string::npos) << r.output;

  long size = ExtractCount(r.output, "solution size");
  EXPECT_GT(size, 0) << r.output;
  EXPECT_LE(size, 200) << r.output;
}

TEST(DiscCliSmokeTest, EveryAlgorithmVariantVerifies) {
  for (const char* algo : {"basic", "greedy", "lazy-grey", "lazy-white",
                           "greedy-c", "fast-c"}) {
    CommandResult r = RunCli(std::string("--dataset=uniform --n=150 --dim=2 "
                                      "--seed=11 --radius=0.15 --algorithm=") +
                          algo);
    EXPECT_EQ(r.exit_code, 0) << "algorithm " << algo << ":\n" << r.output;
    EXPECT_NE(r.output.find("OK"), std::string::npos)
        << "algorithm " << algo << ":\n" << r.output;
  }
}

TEST(DiscCliSmokeTest, BulkLoadedIndexYieldsSameVerifiedSubset) {
  const std::string workload = "--dataset=clustered --n=200 --dim=2 --seed=7 "
                               "--radius=0.1 --algorithm=greedy";
  CommandResult insert = RunCli(workload + " --build=insert");
  CommandResult bulk = RunCli(workload + " --build=bulk");
  ASSERT_EQ(insert.exit_code, 0) << insert.output;
  ASSERT_EQ(bulk.exit_code, 0) << bulk.output;
  EXPECT_NE(bulk.output.find("bulk"), std::string::npos) << bulk.output;
  // Greedy-DisC is deterministic in the neighborhood structure, so the two
  // index shapes must report identical solution sizes (both verified).
  EXPECT_EQ(ExtractCount(insert.output, "solution size"),
            ExtractCount(bulk.output, "solution size"))
      << bulk.output;
}

TEST(DiscCliSmokeTest, RejectsUnknownBuildStrategy) {
  CommandResult r = RunCli("--dataset=uniform --n=50 --build=magic");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("unknown build strategy"), std::string::npos)
      << r.output;
}

TEST(DiscCliSmokeTest, ZoomInReportsVerifiedSolution) {
  CommandResult r = RunCli(
      "--dataset=clustered --n=200 --dim=2 --seed=7 --radius=0.1 "
      "--zoom-to=0.05");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("After zooming"), std::string::npos) << r.output;

  // The zoom table repeats the "verified" row; both must say OK.
  size_t first = r.output.find("verified");
  ASSERT_NE(first, std::string::npos) << r.output;
  size_t second = r.output.find("verified", first + 1);
  ASSERT_NE(second, std::string::npos) << r.output;
  EXPECT_NE(r.output.find("OK", second), std::string::npos) << r.output;
}

TEST(DiscCliSmokeTest, WritesSelectionCsv) {
  std::string csv_path =
      ::testing::TempDir() + "/disc_cli_smoke_points.csv";
  std::remove(csv_path.c_str());
  CommandResult r = RunCli(
      "--dataset=uniform --n=100 --dim=2 --seed=3 --radius=0.2 --out=" +
      csv_path);
  ASSERT_EQ(r.exit_code, 0) << r.output;

  // The CSV is headerless (LoadPointsCsv round-trips every row as data):
  // one row per object, coordinates first, then the 0/1 selection marker.
  std::ifstream csv(csv_path);
  ASSERT_TRUE(csv.good()) << "CSV not written to " << csv_path;
  size_t rows = 0;
  size_t selected = 0;
  for (std::string line; std::getline(csv, line);) {
    if (line.empty()) continue;
    ++rows;
    ASSERT_EQ(std::count(line.begin(), line.end(), ','), 2) << line;
    std::string marker = line.substr(line.rfind(',') + 1);
    ASSERT_TRUE(marker == "0" || marker == "1") << line;
    if (marker == "1") ++selected;
  }
  EXPECT_EQ(rows, 100u);
  EXPECT_GT(selected, 0u);
  EXPECT_LT(selected, 100u);
  std::remove(csv_path.c_str());
}

TEST(DiscCliSmokeTest, RejectsUnknownAlgorithm) {
  CommandResult r =
      RunCli("--dataset=uniform --n=50 --algorithm=does-not-exist");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("unknown algorithm"), std::string::npos) << r.output;
}

TEST(DiscCliSmokeTest, GridBackendMatchesTheExactSolutionSize) {
  // Dim 4: the grid backend builds the graph with its O(n^2) scan.
  const std::string workload = "--dataset=clustered --n=400 --dim=4 --seed=7 "
                               "--radius=0.1 --algorithm=greedy";
  CommandResult exact = RunCli(workload);
  CommandResult grid = RunCli(workload + " --neighbor-backend=grid");
  ASSERT_EQ(exact.exit_code, 0) << exact.output;
  ASSERT_EQ(grid.exit_code, 0) << grid.output;
  // The scan reproduces the neighborhood structure exactly, so the two
  // engine modes report the same (verified) solution size.
  EXPECT_EQ(ExtractCount(exact.output, "solution size"),
            ExtractCount(grid.output, "solution size"))
      << grid.output;
}

TEST(DiscCliSmokeTest, RejectsUnknownNeighborBackendWithUsage) {
  // The same contract as an unknown flag: usage error, exit 2, never a
  // silent fall-back to the default backend.
  CommandResult r =
      RunCli("--dataset=uniform --n=50 --neighbor-backend=bogus");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown neighbor backend 'bogus'"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
}

TEST(DiscCliSmokeTest, ZoomWithGraphModeBackendFailsCleanly) {
  CommandResult r = RunCli(
      "--dataset=clustered --n=300 --dim=2 --seed=7 --radius=0.1 "
      "--neighbor-backend=grid --zoom-to=0.05");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("FailedPrecondition"), std::string::npos)
      << r.output;
}

TEST(DiscCliSmokeTest, RejectsUnknownFlagWithUsage) {
  CommandResult r = RunCli("--dataset=uniform --n=50 --no-such-flag=1");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown flag '--no-such-flag'"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
}

TEST(DiscCliSmokeTest, HelpPrintsUsage) {
  CommandResult r = RunCli("--help");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
}

TEST(DiscCliSmokeTest, EqualZoomRadiusIsANoOp) {
  CommandResult r = RunCli(
      "--dataset=clustered --n=200 --dim=2 --seed=7 --radius=0.1 "
      "--zoom-to=0.1");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("nothing to adapt"), std::string::npos) << r.output;
}

TEST(DiscCliSmokeTest, ZoomAfterCoveringAlgorithmFailsCleanly) {
  CommandResult r = RunCli(
      "--dataset=uniform --n=100 --seed=5 --radius=0.15 "
      "--algorithm=greedy-c --zoom-to=0.08");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("FailedPrecondition"), std::string::npos)
      << r.output;
}

}  // namespace
