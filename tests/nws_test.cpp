#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "nws/forecast_bank.hpp"
#include "nws/monitor.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace lsl::nws {
namespace {

using Member = ForecastBank::Member;

TEST(ForecastBankTest, LastValueTracksInput) {
  ForecastBank f;
  EXPECT_FALSE(f.ready());
  f.observe(10.0);
  f.observe(20.0);
  EXPECT_TRUE(f.ready());
  EXPECT_DOUBLE_EQ(f.prediction(Member::kLastValue), 20.0);
}

TEST(ForecastBankTest, RunningMeanConverges) {
  ForecastBank f;
  f.observe(10.0);
  f.observe(20.0);
  f.observe(30.0);
  EXPECT_DOUBLE_EQ(f.prediction(Member::kRunningMean), 20.0);
}

TEST(ForecastBankTest, SlidingMeanForgetsOldData) {
  // The 11th-newest value has left the 10-slot window.
  ForecastBank f;
  f.observe(100.0);
  for (int i = 0; i < 5; ++i) {
    f.observe(10.0);
    f.observe(20.0);
  }
  EXPECT_DOUBLE_EQ(f.prediction(Member::kSlidingMean), 15.0);
}

TEST(ForecastBankTest, SlidingMedianRobustToOutliers) {
  ForecastBank f;
  for (const double v :
       {50.0, 51.0, 49.0, 50.0, 1.0, 50.0, 52.0, 48.0, 50.0}) {
    f.observe(v);  // one bogus probe among nine
  }
  EXPECT_DOUBLE_EQ(f.prediction(Member::kSlidingMedian), 50.0);
}

TEST(ForecastBankTest, SlidingMedianEvenWindow) {
  ForecastBank f;
  for (int i = 1; i <= 10; ++i) {
    f.observe(10.0 * i);
  }
  EXPECT_DOUBLE_EQ(f.prediction(Member::kSlidingMedian), 55.0);
}

TEST(ForecastBankTest, EwmaSmoothing) {
  ForecastBank f;
  f.observe(10.0);
  EXPECT_DOUBLE_EQ(f.prediction(Member::kEwma), 10.0);
  f.observe(20.0);
  EXPECT_DOUBLE_EQ(f.prediction(Member::kEwma), 12.5);
}

TEST(ForecastBankTest, AdaptivePrefersMedianOnSpikySeries) {
  ForecastBank f;
  Rng rng(42);
  // Stable series with rare deep outliers: the sliding median should win.
  for (int i = 0; i < 200; ++i) {
    const double v = rng.chance(0.1) ? 5.0 : 50.0 + rng.uniform(-1.0, 1.0);
    f.observe(v);
  }
  EXPECT_EQ(f.best_member(), Member::kSlidingMedian);
  EXPECT_NEAR(f.forecast(), 50.0, 3.0);
}

TEST(ForecastBankTest, AdaptiveTracksConstantSeriesExactly) {
  ForecastBank f;
  for (int i = 0; i < 20; ++i) {
    f.observe(33.0);
  }
  EXPECT_DOUBLE_EQ(f.forecast(), 33.0);
}

TEST(ForecastBankTest, AdaptiveReportsBestMember) {
  ForecastBank f;
  for (int i = 0; i < 50; ++i) {
    f.observe(10.0);
  }
  EXPECT_FALSE(ForecastBank::name(f.best_member()).empty());
}

TEST(ForecastBankTest, RingWrapsToLastTenValues) {
  // 25 integer-valued measurements overrun the 10-slot window; integer
  // sums are exact, so the window members equal a fresh computation over
  // the last ten values exactly.
  ForecastBank f;
  std::vector<double> series;
  for (int i = 0; i < 25; ++i) {
    series.push_back(static_cast<double>((i * 37) % 23 + i));
    f.observe(series.back());
  }
  std::vector<double> last(series.end() - 10, series.end());
  const double sum = std::accumulate(last.begin(), last.end(), 0.0);
  EXPECT_EQ(f.prediction(Member::kSlidingMean), sum / 10.0);
  std::sort(last.begin(), last.end());
  EXPECT_EQ(f.prediction(Member::kSlidingMedian), 0.5 * (last[4] + last[5]));
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(ForecastBankTest, SortedWindowMatchesStableSortBitForBit) {
  // A handful of values repeated 10,000 times, with +0 and -0 among them
  // (equal under <, different in their bits): the kept-sorted window must
  // hold exactly what a stable sort of the last ten values, oldest first,
  // holds, and the sliding mean must add the newcomer before it drops the
  // oldest value.
  constexpr double kValues[] = {-0.0, 0.0, 0.1, 0.1 + 0.2, 2.5, 7.0};
  Rng rng(1021);
  ForecastBank f;
  std::vector<double> series;
  double window_sum = 0.0;
  for (int i = 0; i < 10'000; ++i) {
    const double v = kValues[rng.pick_index(std::size(kValues))];
    series.push_back(v);
    f.observe(v);
    window_sum += v;
    if (series.size() > ForecastBank::kWindow) {
      window_sum -= series[series.size() - 1 - ForecastBank::kWindow];
    }
    const std::size_t n = std::min(series.size(), ForecastBank::kWindow);
    std::vector<double> window(series.end() - static_cast<std::ptrdiff_t>(n),
                               series.end());
    std::stable_sort(window.begin(), window.end());
    const double median =
        n % 2 == 1 ? window[n / 2] : 0.5 * (window[n / 2 - 1] + window[n / 2]);
    ASSERT_EQ(bits(f.prediction(Member::kSlidingMedian)), bits(median))
        << "after " << series.size() << " values";
    ASSERT_EQ(bits(f.prediction(Member::kSlidingMean)),
              bits(window_sum / static_cast<double>(n)))
        << "after " << series.size() << " values";
  }
}

TEST(NoiseModelTest, SamplesCenteredOnTruth) {
  NoiseModel noise;
  noise.outlier_probability = 0.0;
  Rng rng(5);
  double sum = 0.0;
  constexpr int kSamples = 5000;
  for (int i = 0; i < kSamples; ++i) {
    sum += noise.sample(100.0, rng);
  }
  // Lognormal mean is exp(sigma^2/2) above the median.
  const double expected = 100.0 * std::exp(0.15 * 0.15 / 2.0);
  EXPECT_NEAR(sum / kSamples, expected, 2.0);
}

TEST(NoiseModelTest, OutliersPullLow) {
  NoiseModel noise;
  noise.lognormal_sigma = 0.01;
  noise.outlier_probability = 1.0;
  noise.outlier_factor = 0.25;
  Rng rng(6);
  EXPECT_NEAR(noise.sample(100.0, rng), 25.0, 2.0);
}

TEST(MonitorTest, SiteAggregationSharesForecasts) {
  // Two hosts at site A, one at site B: A-hosts must get identical
  // forecasts toward B (they share the wide-area measurement).
  PerformanceMonitor monitor({"a.edu", "a.edu", "b.edu"}, NoiseModel{}, 9);
  const auto truth = [](std::size_t, std::size_t) {
    return Bandwidth::mbps(40);
  };
  for (int i = 0; i < 10; ++i) {
    monitor.observe_epoch(truth);
  }
  const auto f0 = monitor.forecast(0, 2);
  const auto f1 = monitor.forecast(1, 2);
  EXPECT_DOUBLE_EQ(f0.megabits_per_second(), f1.megabits_per_second());
  EXPECT_NEAR(f0.megabits_per_second(), 40.0, 8.0);
}

TEST(MonitorTest, IntraSiteIsFast) {
  PerformanceMonitor monitor({"a.edu", "a.edu"}, NoiseModel{}, 9);
  EXPECT_GE(monitor.forecast(0, 1).megabits_per_second(), 500.0);
}

TEST(MonitorTest, NoForecastBeforeMeasurement) {
  PerformanceMonitor monitor({"a.edu", "b.edu"}, NoiseModel{}, 9);
  EXPECT_DOUBLE_EQ(monitor.forecast(0, 1).bits_per_second(), 0.0);
}

TEST(MonitorTest, MatrixHasFiniteCostsAfterEpochs) {
  PerformanceMonitor monitor({"a.edu", "b.edu", "c.edu"}, NoiseModel{}, 10);
  const auto truth = [](std::size_t a, std::size_t b) {
    return Bandwidth::mbps(10.0 + static_cast<double>(a + b));
  };
  for (int i = 0; i < 5; ++i) {
    monitor.observe_epoch(truth);
  }
  const auto matrix = monitor.build_matrix();
  ASSERT_EQ(matrix.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      if (i != j) {
        EXPECT_LT(matrix.cost(i, j), sched::kInfiniteCost);
      }
    }
  }
  EXPECT_EQ(matrix.site(0), "a.edu");
}

TEST(MonitorTest, MatrixRoughlyOrderPreserving) {
  // The paper only needs an order-preserving metric: a clearly faster pair
  // must get a clearly cheaper edge.
  PerformanceMonitor monitor({"a.edu", "b.edu", "c.edu"}, NoiseModel{}, 11);
  const auto truth = [](std::size_t a, std::size_t b) {
    const bool fast = (a == 0 && b == 1) || (a == 1 && b == 0);
    return Bandwidth::mbps(fast ? 90.0 : 9.0);
  };
  for (int i = 0; i < 20; ++i) {
    monitor.observe_epoch(truth);
  }
  const auto matrix = monitor.build_matrix();
  EXPECT_LT(matrix.cost(0, 1), matrix.cost(0, 2));
  EXPECT_LT(matrix.cost(0, 1), matrix.cost(2, 1));
}

TEST(MonitorTest, DeterministicForSeed) {
  const auto run = [] {
    PerformanceMonitor m({"a.edu", "b.edu"}, NoiseModel{}, 77);
    for (int i = 0; i < 8; ++i) {
      m.observe_epoch(
          [](std::size_t, std::size_t) { return Bandwidth::mbps(30); });
    }
    return m.forecast(0, 1).megabits_per_second();
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

/// Five hosts at four sites (hosts 1 and 2 share b.edu).
std::vector<std::string> five_hosts_four_sites() {
  return {"a.edu", "b.edu", "b.edu", "c.edu", "d.edu"};
}

TEST(MonitorTest, ForecastsMatchParentBitForBit) {
  // Pinned from the std::map + virtual-member monitor this bank replaced:
  // 40 epochs of a truth that swings and then doubles, with measurements
  // blacked out for epochs 20-24.
  obs::Registry registry;
  obs::ScopedRegistry scope(registry);
  PerformanceMonitor monitor(five_hosts_four_sites(), NoiseModel{}, 2004);
  std::size_t epoch = 0;
  const auto truth = [&epoch](std::size_t i, std::size_t j) {
    const double base =
        5.0 + 7.0 * static_cast<double>(i) + 3.0 * static_cast<double>(j);
    const double swing = 1.5 * static_cast<double>(epoch % 6);
    return Bandwidth::mbps(epoch < 15 ? base + swing : 2.0 * base - swing);
  };
  for (; epoch < 40; ++epoch) {
    monitor.set_blackout(epoch >= 20 && epoch < 25);
    monitor.observe_epoch(truth);
  }
  // bit/s; the diagonal is unused.
  constexpr double kExpected[5][5] = {
      {0x0p+0, 0x1.7443eb1c5d5ecp+23, 0x1.7443eb1c5d5ecp+23,
       0x1.97aefe8a36f31p+24, 0x1.032677a02bd96p+25},
      {0x1.2bd6f5ea3db9p+24, 0x0p+0, 0x1.dcd65p+29, 0x1.12cd3aaa0375fp+25,
       0x1.4aae4b3239a21p+25},
      {0x1.2bd6f5ea3db9p+24, 0x1.dcd65p+29, 0x0p+0, 0x1.12cd3aaa0375fp+25,
       0x1.4aae4b3239a21p+25},
      {0x1.4f116790fee5dp+25, 0x1.acde5cf3411a6p+25, 0x1.acde5cf3411a6p+25,
       0x0p+0, 0x1.ed435afc39176p+25},
      {0x1.c7e7ed7dff06ap+25, 0x1.021ece187767fp+26, 0x1.021ece187767fp+26,
       0x1.59f3982f5d6aap+26, 0x0p+0},
  };
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      if (i != j) {
        EXPECT_EQ(monitor.forecast(i, j).bits_per_second(), kExpected[i][j])
            << i << " -> " << j;
      }
    }
  }
  const obs::Histogram& error =
      registry.histogram("nws.monitor.forecast_abs_rel_error",
                         obs::linear_buckets(0.05, 0.05, 20));
  EXPECT_EQ(error.count(), 408u);
  EXPECT_EQ(error.sum(), 0x1.74307db1c1863p+6);
}

/// build_matrix() must equal a matrix filled pair by pair from forecast().
void expect_matrix_matches_forecasts(const PerformanceMonitor& monitor) {
  const sched::CostMatrix matrix = monitor.build_matrix();
  ASSERT_EQ(matrix.size(), monitor.host_count());
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    for (std::size_t j = 0; j < matrix.size(); ++j) {
      if (i == j) {
        continue;
      }
      const Bandwidth bw = monitor.forecast(i, j);
      EXPECT_EQ(matrix.cost(i, j), bw.bits_per_second() > 0.0
                                       ? 1.0 / bw.megabits_per_second()
                                       : sched::kInfiniteCost)
          << i << " -> " << j;
    }
  }
}

TEST(MonitorTest, BuildMatrixMatchesPerPairForecasts) {
  PerformanceMonitor monitor(five_hosts_four_sites(), NoiseModel{}, 3);
  expect_matrix_matches_forecasts(monitor);
  // Before any epoch only the intra-site edge (hosts 1 and 2) is known.
  const sched::CostMatrix cold = monitor.build_matrix();
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      const bool same_site = (i == 1 && j == 2) || (i == 2 && j == 1);
      if (i != j && !same_site) {
        EXPECT_EQ(cold.cost(i, j), sched::kInfiniteCost) << i << " -> " << j;
      }
    }
  }
  EXPECT_EQ(cold.cost(1, 2), 1.0 / 1000.0);
  EXPECT_EQ(cold.cost(2, 1), 1.0 / 1000.0);

  const auto truth = [](std::size_t i, std::size_t j) {
    return Bandwidth::mbps(20.0 + static_cast<double>(3 * i + j));
  };
  for (int epoch = 0; epoch < 12; ++epoch) {
    monitor.observe_epoch(truth);
  }
  expect_matrix_matches_forecasts(monitor);
  EXPECT_EQ(monitor.build_matrix().cost(1, 2), 1.0 / 1000.0);
}

}  // namespace
}  // namespace lsl::nws
