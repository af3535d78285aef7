#include "trace.h"

#include <cstdio>
#include <fstream>
#include <unordered_map>

namespace perfbench {

std::map<std::string, double> Tracer::SelfMsByLayer() const {
  std::unordered_map<uint64_t, int64_t> covered;  // span id -> child time
  for (const Span& span : spans_) {
    if (span.parent != 0) covered[span.parent] += span.end_ns - span.start_ns;
  }
  std::map<std::string, double> self_ms;
  for (const Span& span : spans_) {
    const auto it = covered.find(span.id);
    const int64_t children = it == covered.end() ? 0 : it->second;
    self_ms[span.layer] +=
        static_cast<double>(span.end_ns - span.start_ns - children) / 1e6;
  }
  return self_ms;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& span : spans_) {
    out << "{\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"request\":" << span.request << ",\"layer\":\"" << span.layer
        << "\",\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
