#include "nws/forecast_bank.hpp"

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
  std::size_t size = filled_;
  if (filled_ == kWindow) {
    // The oldest value arrived kWindow measurements ago; close its gap.
    const auto oldest = static_cast<std::uint8_t>(count_ - kWindow);
    std::size_t k = 0;
    while (arrival_[k] != oldest) {
      ++k;
    }
    window_sum_ -= window_[k];
    for (--size; k < size; ++k) {
      window_[k] = window_[k + 1];
      arrival_[k] = arrival_[k + 1];
    }
  } else {
    ++filled_;
  }
  // Insert after any equal values: a stable sort of the window taken
  // oldest first puts the newest of equals last.
  std::size_t k = size;
  for (; k > 0 && value < window_[k - 1]; --k) {
    window_[k] = window_[k - 1];
    arrival_[k] = arrival_[k - 1];
  }
  window_[k] = value;
  arrival_[k] = static_cast<std::uint8_t>(count_);
  ewma_ = count_ == 0 ? value
                      : kEwmaAlpha * value + (1.0 - kEwmaAlpha) * ewma_;
  ++count_;
  return held;
}

double ForecastBank::sliding_median() const {
  const std::size_t mid = filled_ / 2;
  if (filled_ % 2 == 1) {
    return window_[mid];
  }
  return 0.5 * (window_[mid - 1] + window_[mid]);
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
