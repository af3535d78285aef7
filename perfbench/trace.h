// What a measured phase leaves behind (every exchange with its responses and
// client-side timing) plus the in-memory span store of the traced run.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One exchange as the client saw it.
struct Record {
  Framing framing = Framing::kLine;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<std::string> lines;
  std::vector<std::string> responses;
  /// The client span of this exchange in a traced phase, else 0.
  uint64_t span = 0;

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

struct SessionRun {
  size_t client = 0;
  size_t k = 0;
  /// True when CLOSE was answered (the phase may end mid-session).
  bool complete = false;
  std::vector<Record> records;
};

/// A timed call across a layer boundary. Spans of one request share
/// `request`; `parent` is the span that caused this one (0 for a root).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  std::string layer;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Spans stay in memory until WriteJsonl at exit. Single-threaded: each
/// client thread of a traced phase owns its own Tracer, merged afterwards.
class Tracer {
 public:
  explicit Tracer(uint64_t first_id = 1) : next_id_(first_id) {}

  uint64_t Record(uint64_t parent, uint64_t request, std::string layer,
                  std::string name, int64_t start_ns, int64_t end_ns) {
    spans_.push_back({next_id_, parent, request, std::move(layer),
                      std::move(name), start_ns, end_ns});
    return next_id_++;
  }

  /// A request's root span: its id is also the request id.
  uint64_t Root(std::string layer, std::string name, int64_t start_ns,
                int64_t end_ns) {
    spans_.push_back({next_id_, 0, next_id_, std::move(layer),
                      std::move(name), start_ns, end_ns});
    return next_id_++;
  }

  /// An open span, ended by End(id); its children can name it as parent.
  uint64_t Begin(uint64_t parent, uint64_t request, std::string layer,
                 std::string name) {
    open_[next_id_] = spans_.size();
    return Record(parent, request == 0 ? next_id_ : request, std::move(layer),
                  std::move(name), NowNs(), 0);
  }

  /// Ends an open span; returns its duration in milliseconds.
  double End(uint64_t id) {
    Span& span = spans_[open_.at(id)];
    open_.erase(id);
    span.end_ns = NowNs();
    return static_cast<double>(span.end_ns - span.start_ns) / 1e6;
  }

  void Merge(const Tracer& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per layer: the summed span time not covered by that span's children.
  std::map<std::string, double> SelfMsByLayer() const;

  bool WriteJsonl(const std::string& path) const;

 private:
  uint64_t next_id_;
  std::vector<Span> spans_;
  std::map<uint64_t, size_t> open_;  // open span id -> index in spans_
};

/// A reported number: value, unit, and how many samples it summarizes.
struct Metric {
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};
using Metrics = std::map<std::string, Metric>;

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
