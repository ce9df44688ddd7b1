#include "nws/forecast_bank.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace lsl::nws {

std::optional<double> ForecastBank::observe(double value) {
  std::optional<double> held;
  if (count_ > 0) {
    // Score every member against `value` before any of them sees it.
    const std::array<double, kMembers> pred = predictions();
    held = pred[best_member()];
    for (std::size_t i = 0; i < kMembers; ++i) {
      error_[i] += std::abs(pred[i] - value);
    }
  }
  last_ = value;
  sum_ += value;
  // Add the newcomer before dropping the oldest: the summation order of
  // the sliding mean is part of its bit-exact result.
  window_sum_ += value;
  if (filled_ == kWindow) {
    window_sum_ -= ring_[head_];
  } else {
    ++filled_;
  }
  ring_[head_] = value;
  head_ = static_cast<std::uint8_t>((head_ + 1) % kWindow);
  ewma_ = count_ == 0 ? value
                      : kEwmaAlpha * value + (1.0 - kEwmaAlpha) * ewma_;
  ++count_;
  return held;
}

double ForecastBank::sliding_median() const {
  // Oldest first, so the sort sees the same sequence for any ring phase.
  std::array<double, kWindow> sorted{};
  const std::size_t oldest = (head_ + kWindow - filled_) % kWindow;
  for (std::size_t k = 0; k < filled_; ++k) {
    sorted[k] = ring_[(oldest + k) % kWindow];
  }
  std::sort(sorted.begin(), sorted.begin() + filled_);
  const std::size_t mid = filled_ / 2;
  if (filled_ % 2 == 1) {
    return sorted[mid];
  }
  return 0.5 * (sorted[mid - 1] + sorted[mid]);
}

double ForecastBank::prediction(Member member) const {
  if (count_ == 0) {
    return 0.0;
  }
  switch (member) {
    case kLastValue:
      return last_;
    case kRunningMean:
      return sum_ / static_cast<double>(count_);
    case kSlidingMean:
      return window_sum_ / static_cast<double>(filled_);
    case kSlidingMedian:
      return sliding_median();
    case kEwma:
      return ewma_;
  }
  return 0.0;
}

std::array<double, ForecastBank::kMembers> ForecastBank::predictions() const {
  std::array<double, kMembers> pred{};
  for (std::size_t i = 0; i < kMembers; ++i) {
    pred[i] = prediction(static_cast<Member>(i));
  }
  return pred;
}

ForecastBank::Member ForecastBank::best_member() const {
  std::size_t best = 0;
  double best_error = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < kMembers; ++i) {
    if (error_[i] < best_error) {
      best_error = error_[i];
      best = i;
    }
  }
  return static_cast<Member>(best);
}

std::string_view ForecastBank::name(Member member) {
  switch (member) {
    case kLastValue:
      return "last_value";
    case kRunningMean:
      return "running_mean";
    case kSlidingMean:
      return "sliding_mean";
    case kSlidingMedian:
      return "sliding_median";
    case kEwma:
      return "ewma";
  }
  return {};
}

}  // namespace lsl::nws
