// Distance metrics over Points.
//
// The paper uses Euclidean distance for numeric datasets (Uniform, Clustered,
// Cities) and Hamming distance for the categorical Cameras dataset, and
// derives theoretical bounds for Euclidean and Manhattan distances in 2-D.
// All metrics here satisfy the metric axioms (identity, symmetry, triangle
// inequality), which the M-tree requires for correct pruning.

#ifndef DISC_METRIC_METRIC_H_
#define DISC_METRIC_METRIC_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <string>

#include "metric/point.h"
#include "util/status.h"

namespace disc {

/// Known metric families, used for factory construction and for selecting
/// the matching theoretical bounds (see core/bounds.h).
enum class MetricKind {
  kEuclidean,
  kManhattan,
  kChebyshev,
  kHamming,
};

/// Returns e.g. "euclidean" for kEuclidean.
const char* MetricKindToString(MetricKind kind);

/// The one distance kernel per family, over raw coordinates of dimension
/// `dim`. The virtual Distance overrides below call it, and the M-tree's
/// search loop calls it directly (one instantiation per family, dispatched
/// once per query), so both paths produce identical bits.
template <MetricKind K>
inline double MetricKernel(const double* a, const double* b, size_t dim) {
  double acc = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    if constexpr (K == MetricKind::kEuclidean) {
      double d = a[i] - b[i];
      acc += d * d;
    } else if constexpr (K == MetricKind::kManhattan) {
      acc += std::fabs(a[i] - b[i]);
    } else if constexpr (K == MetricKind::kChebyshev) {
      acc = std::max(acc, std::fabs(a[i] - b[i]));
    } else {
      // Hamming: coordinates are compared exactly (category codes).
      if (a[i] != b[i]) acc += 1.0;
    }
  }
  if constexpr (K == MetricKind::kEuclidean) return std::sqrt(acc);
  return acc;
}

/// Abstract distance function. Implementations must be metrics in the
/// mathematical sense; the M-tree's covering-radius pruning is unsound
/// otherwise.
class DistanceMetric {
 public:
  virtual ~DistanceMetric() = default;

  /// Distance between two points of equal dimension.
  virtual double Distance(const Point& a, const Point& b) const = 0;

  /// The family this metric belongs to.
  virtual MetricKind kind() const = 0;

  /// Human-readable name.
  std::string name() const { return MetricKindToString(kind()); }
};

/// L2 distance.
class EuclideanMetric final : public DistanceMetric {
 public:
  double Distance(const Point& a, const Point& b) const override;
  MetricKind kind() const override { return MetricKind::kEuclidean; }
};

/// L1 distance.
class ManhattanMetric final : public DistanceMetric {
 public:
  double Distance(const Point& a, const Point& b) const override;
  MetricKind kind() const override { return MetricKind::kManhattan; }
};

/// L-infinity distance.
class ChebyshevMetric final : public DistanceMetric {
 public:
  double Distance(const Point& a, const Point& b) const override;
  MetricKind kind() const override { return MetricKind::kChebyshev; }
};

/// Number of coordinates on which the two points differ. Coordinates are
/// compared exactly, which is correct for the integer category codes used by
/// categorical datasets.
class HammingMetric final : public DistanceMetric {
 public:
  double Distance(const Point& a, const Point& b) const override;
  MetricKind kind() const override { return MetricKind::kHamming; }
};

/// Constructs a metric of the given family.
std::unique_ptr<DistanceMetric> MakeMetric(MetricKind kind);

/// Parses "euclidean" / "manhattan" / "chebyshev" / "hamming".
Result<MetricKind> ParseMetricKind(const std::string& name);

}  // namespace disc

#endif  // DISC_METRIC_METRIC_H_
