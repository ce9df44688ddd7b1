#include "exp/trace.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/units.hpp"

namespace lsl::exp {

void SeqTrace::attach(tcp::Connection& conn, SimTime origin) {
  origin_ = origin;
  samples_.clear();
  conn.on_ack_advance = [this](SimTime t, std::uint64_t bytes) {
    add_sample(t - origin_, bytes);
  };
}

void SeqTrace::add_sample(SimTime t, std::uint64_t bytes) {
  samples_.emplace_back(t, bytes);
}

std::uint64_t SeqTrace::value_at(SimTime t) const {
  // Samples are appended in nondecreasing time order; binary search for the
  // last sample at or before t.
  const auto it = std::upper_bound(
      samples_.begin(), samples_.end(), t,
      [](SimTime lhs, const auto& s) { return lhs < s.first; });
  if (it == samples_.begin()) {
    return 0;
  }
  return std::prev(it)->second;
}

void TraceAverager::add_run(const std::string& label, const SeqTrace& trace) {
  Accumulator* acc = nullptr;
  for (auto& [name, a] : acc_) {
    if (name == label) {
      acc = &a;
      break;
    }
  }
  if (acc == nullptr) {
    acc_.emplace_back(label, Accumulator{});
    acc = &acc_.back().second;
  }
  const std::size_t points =
      static_cast<std::size_t>(horizon_ / step_) + 1;
  if (acc->sum.empty()) {
    acc->sum.assign(points, 0.0);
  }
  LSL_ASSERT(acc->sum.size() == points);
  for (std::size_t i = 0; i < points; ++i) {
    const SimTime t = step_ * static_cast<std::int64_t>(i);
    acc->sum[i] += static_cast<double>(trace.value_at(t)) /
                   static_cast<double>(kMiB);
  }
  ++acc->runs;
}

std::vector<TraceAverager::Series> TraceAverager::series() const {
  std::vector<Series> out;
  for (const auto& [label, acc] : acc_) {
    Series s;
    s.label = label;
    s.mib_at_grid.reserve(acc.sum.size());
    for (const double v : acc.sum) {
      s.mib_at_grid.push_back(acc.runs > 0 ? v / static_cast<double>(acc.runs)
                                           : 0.0);
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<double> TraceAverager::grid_seconds() const {
  const std::size_t points = static_cast<std::size_t>(horizon_ / step_) + 1;
  std::vector<double> grid;
  grid.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    grid.push_back((step_ * static_cast<std::int64_t>(i)).to_seconds());
  }
  return grid;
}

}  // namespace lsl::exp
