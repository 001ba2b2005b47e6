#ifndef TXML_PERFBENCH_TRACE_H_
#define TXML_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed call into a layer's public entry point. `parent` is the
/// *logical* parent: the layer whose work this call replays a part of
/// (inner layers are replayed on twin instances after the outer call, so
/// children need not nest in wall-clock time).
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index into the recorder's spans, -1 for a root
  uint64_t request = 0;

  double micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// Keeps spans in memory; written out once the run ends.
class SpanRecorder {
 public:
  /// Times `fn` as a span named `name` under `parent`; returns its index.
  template <typename Fn>
  int Record(const char* name, int parent, uint64_t request, Fn&& fn) {
    Span span;
    span.name = name;
    span.parent = parent;
    span.request = request;
    const int index = static_cast<int>(spans_.size());
    spans_.push_back(std::move(span));
    const int64_t start = NowNanos();
    fn();
    const int64_t end = NowNanos();
    spans_[static_cast<size_t>(index)].start_ns = start;
    spans_[static_cast<size_t>(index)].end_ns = end;
    return index;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes one JSON object per line: name, request, parent, start, end.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Per-layer totals reduced from spans: call count, summed duration and
/// summed self time (duration minus the durations of logical children).
struct LayerTotals {
  uint64_t calls = 0;
  double total_us = 0;
  double self_us = 0;
};

std::map<std::string, LayerTotals> ReduceSpans(const std::vector<Span>& spans);

/// The self time of every span named `name`, one value per span (the
/// per-request figures whose median the traced run reports).
std::vector<double> SelfTimes(const std::vector<Span>& spans,
                              const std::string& name);

}  // namespace perfbench

#endif  // TXML_PERFBENCH_TRACE_H_
