#include "perfbench/trace.h"

#include <cstdio>

namespace perfbench {

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"request\": %llu, "
                 "\"parent\": %d, \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 i, s.name.c_str(), static_cast<unsigned long long>(s.request),
                 s.parent, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

namespace {

/// Summed duration of each span's logical children.
std::vector<double> ChildMicros(const std::vector<Span>& spans) {
  std::vector<double> child_us(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_us[static_cast<size_t>(s.parent)] += s.micros();
  }
  return child_us;
}

}  // namespace

std::map<std::string, LayerTotals> ReduceSpans(const std::vector<Span>& spans) {
  const std::vector<double> child_us = ChildMicros(spans);
  std::map<std::string, LayerTotals> layers;
  for (size_t i = 0; i < spans.size(); ++i) {
    LayerTotals& t = layers[spans[i].name];
    ++t.calls;
    t.total_us += spans[i].micros();
    t.self_us += spans[i].micros() - child_us[i];
  }
  return layers;
}

std::vector<double> SelfTimes(const std::vector<Span>& spans,
                              const std::string& name) {
  const std::vector<double> child_us = ChildMicros(spans);
  std::vector<double> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == name) self.push_back(spans[i].micros() - child_us[i]);
  }
  return self;
}

}  // namespace perfbench
