// Network Weather Service style forecasting.
//
// The NWS runs a bank of simple predictors over each measurement series and,
// at any instant, trusts the one with the lowest cumulative error so far.
// ForecastBank is that bank for one series as one plain value: the classic
// members (last value, running mean, sliding mean, sliding median, EWMA)
// share a single 10-slot window, and the monitor keeps one bank per ordered
// site pair in a flat vector. No virtuals, no allocation per observation.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace lsl::nws {

class ForecastBank {
 public:
  /// Members in tie-break order: on equal error the lower index wins.
  enum Member : std::size_t {
    kLastValue,
    kRunningMean,
    kSlidingMean,
    kSlidingMedian,
    kEwma,
  };
  static constexpr std::size_t kMembers = 5;
  /// Sliding mean and sliding median window.
  static constexpr std::size_t kWindow = 10;
  static constexpr double kEwmaAlpha = 0.25;

  /// Feed the next measurement. Returns the bank's forecast for it (the
  /// best member's prediction before `value` was seen), or nullopt on the
  /// series' first measurement.
  std::optional<double> observe(double value);

  [[nodiscard]] bool ready() const { return count_ > 0; }
  /// The best member's prediction; 0 before the first measurement.
  [[nodiscard]] double forecast() const { return prediction(best_member()); }

  /// One member's prediction; 0 before the first measurement.
  [[nodiscard]] double prediction(Member member) const;
  /// The member with the lowest cumulative absolute one-step-ahead error.
  [[nodiscard]] Member best_member() const;
  [[nodiscard]] static std::string_view name(Member member);

 private:
  [[nodiscard]] std::array<double, kMembers> predictions() const;
  [[nodiscard]] double sliding_median() const;

  double last_ = 0.0;
  double sum_ = 0.0;
  double window_sum_ = 0.0;
  double ewma_ = 0.0;
  /// The last `filled_` measurements, kept sorted ascending with equal
  /// values in arrival order: exactly a stable sort of the window taken
  /// oldest first.
  std::array<double, kWindow> window_{};
  std::array<double, kMembers> error_{};
  std::uint32_t count_ = 0;
  /// arrival_[k] is the low byte of window_[k]'s measurement number
  /// (count_ when it arrived), which names the oldest slot to drop.
  std::array<std::uint8_t, kWindow> arrival_{};
  std::uint8_t filled_ = 0;
};

static_assert(sizeof(ForecastBank) <= 168, "one bank per site pair");

}  // namespace lsl::nws
