#include "spans.hpp"

#include <cstdio>
#include <fstream>
#include <unordered_map>

namespace perfbench {

void SpanLog::open(const char* name, std::uint64_t unit) {
  Span span;
  span.name = name;
  span.id = spans_.size() + 1;
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.unit = unit;
  span.start = Clock::now();
  span.end = span.start;
  open_.push_back(spans_.size());
  spans_.push_back(span);
}

void SpanLog::close() {
  spans_[open_.back()].end = Clock::now();
  open_.pop_back();
}

std::map<std::string, double> SpanLog::self_seconds_by_layer() const {
  // Children nest inside their parent on one thread, so self time is the
  // duration minus the summed durations of the direct children.
  std::unordered_map<std::uint64_t, double> child_seconds;
  for (const Span& span : spans_) {
    if (span.parent != 0) {
      child_seconds[span.parent] += seconds_between(span.start, span.end);
    }
  }
  std::map<std::string, double> by_layer;
  for (const Span& span : spans_) {
    const std::string name = span.name;
    const std::string layer = name.substr(0, name.find('.'));
    by_layer[layer] +=
        seconds_between(span.start, span.end) - child_seconds[span.id];
  }
  return by_layer;
}

bool SpanLog::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  const auto us = [](Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
  };
  out << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"unit\":" << s.unit << ",\"start_us\":" << us(s.start - origin)
        << ",\"dur_us\":" << us(s.end - s.start) << "}";
  }
  out << "\n]\n";
  return out.good();
}

void print_self_times(const SpanLog& log) {
  std::printf("  self time by layer (benchmark spans):\n");
  for (const auto& [layer, seconds] : log.self_seconds_by_layer()) {
    std::printf("    %-12s %12.6f s\n", layer.c_str(), seconds);
  }
}

}  // namespace perfbench
