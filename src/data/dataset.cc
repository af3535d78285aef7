#include "data/dataset.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <limits>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/csv.h"

namespace disc {

namespace {
const std::string kEmptyLabel;
}  // namespace

Status Dataset::Add(Point p) {
  if (dim_ == 0 && points_.empty()) {
    dim_ = p.dim();
  }
  if (p.dim() != dim_) {
    return Status::InvalidArgument(
        "point dimension " + std::to_string(p.dim()) +
        " does not match dataset dimension " + std::to_string(dim_));
  }
  points_.push_back(std::move(p));
  return Status::OK();
}

const std::string& Dataset::label(ObjectId id) const {
  if (id < labels_.size()) return labels_[id];
  return kEmptyLabel;
}

void Dataset::SetLabel(ObjectId id, std::string label) {
  if (labels_.size() <= id) labels_.resize(points_.size());
  labels_[id] = std::move(label);
}

void Dataset::NormalizeToUnitBox() {
  if (points_.empty()) return;
  std::vector<double> mins, maxs;
  BoundingBox(&mins, &maxs);
  for (Point& p : points_) {
    for (size_t d = 0; d < dim_; ++d) {
      double range = maxs[d] - mins[d];
      p[d] = range > 0 ? (p[d] - mins[d]) / range : 0.0;
    }
  }
}

void Dataset::BoundingBox(std::vector<double>* mins,
                          std::vector<double>* maxs) const {
  assert(!points_.empty());
  mins->assign(dim_, std::numeric_limits<double>::infinity());
  maxs->assign(dim_, -std::numeric_limits<double>::infinity());
  for (const Point& p : points_) {
    for (size_t d = 0; d < dim_; ++d) {
      (*mins)[d] = std::min((*mins)[d], p[d]);
      (*maxs)[d] = std::max((*maxs)[d], p[d]);
    }
  }
}

Result<Dataset> LoadPointsCsv(const std::string& path) {
  DISC_ASSIGN_OR_RETURN(auto rows, ReadCsv(path));
  Dataset dataset;
  for (size_t row_idx = 0; row_idx < rows.size(); ++row_idx) {
    const auto& row = rows[row_idx];
    std::vector<double> coords;
    coords.reserve(row.size());
    for (const std::string& field : row) {
      char* end = nullptr;
      double v = std::strtod(field.c_str(), &end);
      if (end == field.c_str() || (end && *end != '\0')) {
        return Status::Corruption("non-numeric field '" + field + "' at row " +
                                  std::to_string(row_idx) + " in " + path);
      }
      // nan, inf and overflowing literals (1e999) parse, but no metric,
      // index or grid cell is defined over them.
      if (!std::isfinite(v)) {
        return Status::Corruption("non-finite field '" + field + "' at row " +
                                  std::to_string(row_idx) + " in " + path);
      }
      coords.push_back(v);
    }
    DISC_RETURN_NOT_OK(dataset.Add(Point(std::move(coords))));
  }
  return dataset;
}

Status SavePointsCsv(const std::string& path, const Dataset& dataset,
                     const std::vector<ObjectId>* selected) {
  CsvWriter writer(path);
  DISC_RETURN_NOT_OK(writer.status());
  std::unordered_set<ObjectId> chosen;
  if (selected != nullptr) chosen.insert(selected->begin(), selected->end());
  std::vector<std::string> row;
  for (ObjectId i = 0; i < dataset.size(); ++i) {
    row.clear();
    const Point& p = dataset.point(i);
    for (size_t d = 0; d < dataset.dim(); ++d) {
      row.push_back(std::to_string(p[d]));
    }
    if (selected != nullptr) {
      row.push_back(chosen.count(i) ? "1" : "0");
    }
    writer.WriteRow(row);
  }
  writer.Close();
  return writer.status();
}

}  // namespace disc
