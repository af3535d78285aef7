#include "data/dataset.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "util/csv.h"

namespace disc {
namespace {

TEST(DatasetTest, StartsEmpty) {
  Dataset d;
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.size(), 0u);
  EXPECT_EQ(d.dim(), 0u);
}

TEST(DatasetTest, FirstAddFixesDimension) {
  Dataset d;
  ASSERT_TRUE(d.Add(Point{1.0, 2.0}).ok());
  EXPECT_EQ(d.dim(), 2u);
  EXPECT_EQ(d.size(), 1u);
}

TEST(DatasetTest, DimensionMismatchRejected) {
  Dataset d;
  ASSERT_TRUE(d.Add(Point{1.0, 2.0}).ok());
  Status s = d.Add(Point{1.0, 2.0, 3.0});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(d.size(), 1u);  // rejected point not stored
}

TEST(DatasetTest, ExplicitDimensionEnforcedFromStart) {
  Dataset d(3);
  EXPECT_FALSE(d.Add(Point{1.0}).ok());
  EXPECT_TRUE(d.Add(Point{1.0, 2.0, 3.0}).ok());
}

TEST(DatasetTest, LabelsDefaultEmpty) {
  Dataset d;
  ASSERT_TRUE(d.Add(Point{0.0}).ok());
  EXPECT_FALSE(d.has_labels());
  EXPECT_EQ(d.label(0), "");
  d.SetLabel(0, "origin");
  EXPECT_TRUE(d.has_labels());
  EXPECT_EQ(d.label(0), "origin");
}

TEST(DatasetTest, AttributeNames) {
  Dataset d;
  d.SetAttributeNames({"x", "y"});
  ASSERT_EQ(d.attribute_names().size(), 2u);
  EXPECT_EQ(d.attribute_names()[1], "y");
}

TEST(DatasetTest, NormalizeToUnitBox) {
  Dataset d;
  ASSERT_TRUE(d.Add(Point{10.0, -5.0}).ok());
  ASSERT_TRUE(d.Add(Point{20.0, 5.0}).ok());
  ASSERT_TRUE(d.Add(Point{15.0, 0.0}).ok());
  d.NormalizeToUnitBox();
  EXPECT_DOUBLE_EQ(d.point(0)[0], 0.0);
  EXPECT_DOUBLE_EQ(d.point(1)[0], 1.0);
  EXPECT_DOUBLE_EQ(d.point(2)[0], 0.5);
  EXPECT_DOUBLE_EQ(d.point(0)[1], 0.0);
  EXPECT_DOUBLE_EQ(d.point(1)[1], 1.0);
}

TEST(DatasetTest, NormalizeConstantDimensionMapsToZero) {
  Dataset d;
  ASSERT_TRUE(d.Add(Point{7.0, 1.0}).ok());
  ASSERT_TRUE(d.Add(Point{7.0, 3.0}).ok());
  d.NormalizeToUnitBox();
  EXPECT_DOUBLE_EQ(d.point(0)[0], 0.0);
  EXPECT_DOUBLE_EQ(d.point(1)[0], 0.0);
}

TEST(DatasetTest, NormalizeEmptyIsNoop) {
  Dataset d;
  d.NormalizeToUnitBox();  // must not crash
  EXPECT_TRUE(d.empty());
}

TEST(DatasetTest, BoundingBox) {
  Dataset d;
  ASSERT_TRUE(d.Add(Point{1.0, 5.0}).ok());
  ASSERT_TRUE(d.Add(Point{-2.0, 7.0}).ok());
  std::vector<double> mins, maxs;
  d.BoundingBox(&mins, &maxs);
  EXPECT_DOUBLE_EQ(mins[0], -2.0);
  EXPECT_DOUBLE_EQ(maxs[0], 1.0);
  EXPECT_DOUBLE_EQ(mins[1], 5.0);
  EXPECT_DOUBLE_EQ(maxs[1], 7.0);
}

class DatasetCsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "disc_dataset_test";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

TEST_F(DatasetCsvTest, SaveAndLoadRoundTrip) {
  Dataset d;
  ASSERT_TRUE(d.Add(Point{0.25, 0.75}).ok());
  ASSERT_TRUE(d.Add(Point{0.5, 0.5}).ok());
  std::string path = Path("points.csv");
  ASSERT_TRUE(SavePointsCsv(path, d).ok());
  auto loaded = LoadPointsCsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_NEAR(loaded->point(0)[0], 0.25, 1e-6);
  EXPECT_NEAR(loaded->point(1)[1], 0.5, 1e-6);
}

TEST_F(DatasetCsvTest, SaveWithSelectionAddsMarkerColumn) {
  Dataset d;
  ASSERT_TRUE(d.Add(Point{0.0}).ok());
  ASSERT_TRUE(d.Add(Point{1.0}).ok());
  std::vector<ObjectId> selected = {1};
  std::string path = Path("marked.csv");
  ASSERT_TRUE(SavePointsCsv(path, d, &selected).ok());
  auto rows = ReadCsv(path);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0].back(), "0");
  EXPECT_EQ((*rows)[1].back(), "1");
}

TEST_F(DatasetCsvTest, LoadNonNumericIsCorruption) {
  std::string path = Path("bad.csv");
  std::ofstream out(path);
  out << "1.0,hello\n";
  out.close();
  auto loaded = LoadPointsCsv(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(DatasetCsvTest, LoadNonFiniteIsCorruption) {
  // strtod accepts all of these; none is a coordinate.
  for (const std::string field : {"nan", "inf", "-inf", "1e999"}) {
    std::string path = Path("nonfinite.csv");
    std::ofstream out(path);
    out << "0.5,0.5\n0.25," << field << "\n";
    out.close();
    auto loaded = LoadPointsCsv(path);
    ASSERT_FALSE(loaded.ok()) << field;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption) << field;
    EXPECT_NE(loaded.status().message().find("'" + field + "' at row 1"),
              std::string::npos)
        << loaded.status().ToString();
  }
}

TEST_F(DatasetCsvTest, LoadRaggedRowsIsInvalidArgument) {
  std::string path = Path("ragged.csv");
  std::ofstream out(path);
  out << "1.0,2.0\n3.0\n";
  out.close();
  auto loaded = LoadPointsCsv(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DatasetCsvTest, LoadMissingFileIsIOError) {
  auto loaded = LoadPointsCsv(Path("missing.csv"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace disc
