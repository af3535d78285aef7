#include "metric/metric.h"

#include <cassert>
#include <memory>
#include <string>

namespace disc {

const char* MetricKindToString(MetricKind kind) {
  switch (kind) {
    case MetricKind::kEuclidean:
      return "euclidean";
    case MetricKind::kManhattan:
      return "manhattan";
    case MetricKind::kChebyshev:
      return "chebyshev";
    case MetricKind::kHamming:
      return "hamming";
  }
  return "unknown";
}

double EuclideanMetric::Distance(const Point& a, const Point& b) const {
  assert(a.dim() == b.dim());
  return MetricKernel<MetricKind::kEuclidean>(a.data(), b.data(), a.dim());
}

double ManhattanMetric::Distance(const Point& a, const Point& b) const {
  assert(a.dim() == b.dim());
  return MetricKernel<MetricKind::kManhattan>(a.data(), b.data(), a.dim());
}

double ChebyshevMetric::Distance(const Point& a, const Point& b) const {
  assert(a.dim() == b.dim());
  return MetricKernel<MetricKind::kChebyshev>(a.data(), b.data(), a.dim());
}

double HammingMetric::Distance(const Point& a, const Point& b) const {
  assert(a.dim() == b.dim());
  return MetricKernel<MetricKind::kHamming>(a.data(), b.data(), a.dim());
}

std::unique_ptr<DistanceMetric> MakeMetric(MetricKind kind) {
  switch (kind) {
    case MetricKind::kEuclidean:
      return std::make_unique<EuclideanMetric>();
    case MetricKind::kManhattan:
      return std::make_unique<ManhattanMetric>();
    case MetricKind::kChebyshev:
      return std::make_unique<ChebyshevMetric>();
    case MetricKind::kHamming:
      return std::make_unique<HammingMetric>();
  }
  return nullptr;
}

Result<MetricKind> ParseMetricKind(const std::string& name) {
  if (name == "euclidean") return MetricKind::kEuclidean;
  if (name == "manhattan") return MetricKind::kManhattan;
  if (name == "chebyshev") return MetricKind::kChebyshev;
  if (name == "hamming") return MetricKind::kHamming;
  return Status::InvalidArgument("unknown metric: " + name);
}

}  // namespace disc
