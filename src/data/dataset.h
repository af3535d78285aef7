// Dataset: an ordered collection of Points plus optional schema metadata.
//
// The order of points is significant: object ids are dense indexes into the
// dataset, and deterministic algorithms (M-tree build, Basic-DisC leaf-order
// traversal, tie-breaking) are defined relative to it.

#ifndef DISC_DATA_DATASET_H_
#define DISC_DATA_DATASET_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "metric/point.h"
#include "util/status.h"

namespace disc {

/// A query result set P: the input to every diversification algorithm.
class Dataset {
 public:
  Dataset() = default;

  /// Creates a dataset with the given dimensionality and no points.
  explicit Dataset(size_t dim) : dim_(dim) {}

  size_t dim() const { return dim_; }
  size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }

  const Point& point(ObjectId id) const { return points_[id]; }
  const std::vector<Point>& points() const { return points_; }

  /// Appends a point. Returns InvalidArgument on dimension mismatch.
  Status Add(Point p);

  /// Optional human-readable label per point (e.g. a city or camera name).
  /// Empty when the dataset has no labels.
  const std::string& label(ObjectId id) const;
  void SetLabel(ObjectId id, std::string label);
  bool has_labels() const { return !labels_.empty(); }

  /// Optional attribute (column) names; empty when unset.
  const std::vector<std::string>& attribute_names() const {
    return attribute_names_;
  }
  void SetAttributeNames(std::vector<std::string> names) {
    attribute_names_ = std::move(names);
  }

  /// Min-max normalizes every dimension into [0, 1] in place, matching the
  /// paper's preprocessing of the Cities dataset. Constant dimensions map
  /// to 0. No-op on empty datasets.
  void NormalizeToUnitBox();

  /// Per-dimension [min, max] over all points. Requires a non-empty dataset.
  void BoundingBox(std::vector<double>* mins, std::vector<double>* maxs) const;

 private:
  size_t dim_ = 0;
  std::vector<Point> points_;
  std::vector<std::string> labels_;
  std::vector<std::string> attribute_names_;
};

/// Loads a headerless numeric CSV (one point per row) as a Dataset.
Result<Dataset> LoadPointsCsv(const std::string& path);

/// Writes points one per row; `selected` (optional) adds a final 0/1 column
/// marking membership, which the example apps use to emit plottable figures.
Status SavePointsCsv(const std::string& path, const Dataset& dataset,
                     const std::vector<ObjectId>* selected = nullptr);

}  // namespace disc

#endif  // DISC_DATA_DATASET_H_
