#include "nws/monitor.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>

#include "util/assert.hpp"
#include "util/threads.hpp"

namespace lsl::nws {

double NoiseModel::sample(double truth, Rng& rng) const {
  double value = truth * rng.lognormal(0.0, lognormal_sigma);
  if (rng.chance(outlier_probability)) {
    value *= outlier_factor;
  }
  return value;
}

std::uint64_t NoiseModel::draws() const {
  const bool outlier_trial =
      !(outlier_probability <= 0.0 || outlier_probability >= 1.0);
  return outlier_trial ? 3 : 2;
}

PerformanceMonitor::PerformanceMonitor(std::vector<std::string> sites,
                                       NoiseModel noise, std::uint64_t seed)
    : sites_(std::move(sites)),
      noise_(noise),
      rng_(seed),
      metrics_(obs::bundle<NwsMetrics>()) {
  LSL_ASSERT(!sites_.empty());
  site_index_of_host_.resize(sites_.size());
  for (std::size_t host = 0; host < sites_.size(); ++host) {
    std::size_t index = site_names_.size();
    for (std::size_t s = 0; s < site_names_.size(); ++s) {
      if (site_names_[s] == sites_[host]) {
        index = s;
        break;
      }
    }
    if (index == site_names_.size()) {
      site_names_.push_back(sites_[host]);
      site_representative_.push_back(host);
    }
    site_index_of_host_[host] = index;
  }
  banks_.resize(site_names_.size() * site_names_.size());
}

std::vector<double> PerformanceMonitor::truth_table(
    const TruthFn& truth) const {
  const std::size_t s = site_names_.size();
  std::vector<double> table(s * s, 0.0);
  for (std::size_t a = 0; a < s; ++a) {
    for (std::size_t b = 0; b < s; ++b) {
      if (a != b) {
        table[a * s + b] =
            truth(site_representative_[a], site_representative_[b])
                .megabits_per_second();
      }
    }
  }
  return table;
}

void PerformanceMonitor::observe_epoch(const TruthFn& truth) {
  // A blackout epoch reads no truth.
  observe_epoch(blackout_ ? std::vector<double>{} : truth_table(truth), 1);
}

void PerformanceMonitor::observe_epoch(std::span<const double> truth_mbps,
                                       std::size_t jobs) {
  ++epochs_;
  if (metrics_ != nullptr) {
    metrics_->epochs->inc();
  }
  if (blackout_) {
    // Measurement infrastructure fault: no probes run; the banks keep
    // serving their last predictions, which drift from the ground truth.
    if (metrics_ != nullptr) {
      metrics_->blackout_epochs->inc();
    }
    return;
  }
  const std::size_t s = site_names_.size();
  LSL_ASSERT(truth_mbps.size() == s * s);
  // Row a takes the draws the serial (a, b) loop gave it: start it from a
  // copy of the generator at the row's first draw.
  const std::uint64_t row_draws = noise_.draws() * (s - 1);
  row_rngs_.clear();
  for (std::size_t a = 0; a < s; ++a) {
    row_rngs_.push_back(rng_);
    rng_.discard(row_draws);
  }
  // Workers own whole rows, and so their banks, and write no instrument:
  // row a tallies its forecast errors and keeps them, in reading order, at
  // the head of its slice of errors_.
  obs::Histogram* const histogram =
      metrics_ != nullptr ? metrics_->forecast_abs_rel_error : nullptr;
  errors_.resize(s * s);
  row_tallies_.resize(s, obs::HistogramTally(0));  // each row sets its own
  std::atomic<std::size_t> cursor{0};
  run_on_threads(jobs == 0 ? default_jobs() : jobs, [&](std::size_t) {
    while (true) {
      const std::size_t a = cursor.fetch_add(1, std::memory_order_relaxed);
      if (a >= s) {
        return;
      }
      Rng rng = row_rngs_[a];
      obs::HistogramTally tally(histogram ? histogram->bounds().size() : 0);
      for (std::size_t b = 0; b < s; ++b) {
        if (a == b) {
          continue;
        }
        const std::size_t pair = a * s + b;
        const double measured = noise_.sample(truth_mbps[pair], rng);
        const std::optional<double> predicted = banks_[pair].observe(measured);
        // Error of the forecast the bank held for this reading: how far off
        // would the scheduler's input have been this epoch?
        if (histogram != nullptr && predicted && measured > 0.0) {
          const double error = std::abs(measured - *predicted) / measured;
          errors_[a * s + tally.count] = error;
          tally.observe(histogram->bounds(), error);
        }
      }
      row_tallies_[a] = std::move(tally);
    }
  });
  if (metrics_ == nullptr) {
    return;
  }
  metrics_->observations->inc(s * (s - 1));
  // Rows in order: the histogram's sum adds the errors in serial (a, b)
  // order, on which its bits depend.
  for (std::size_t a = 0; a < s; ++a) {
    histogram->add(row_tallies_[a],
                   std::span(errors_).subspan(a * s, row_tallies_[a].count));
  }
}

Bandwidth PerformanceMonitor::site_forecast(std::size_t a,
                                            std::size_t b) const {
  if (a == b) {
    // Intra-site traffic rides the LAN; model it as fast and flat.
    return Bandwidth::mbps(1000.0);
  }
  const ForecastBank& bank = banks_[a * site_names_.size() + b];
  if (!bank.ready()) {
    return Bandwidth{0.0};
  }
  return Bandwidth::mbps(std::max(bank.forecast(), 1e-3));
}

Bandwidth PerformanceMonitor::forecast(std::size_t i, std::size_t j) const {
  LSL_ASSERT(i < sites_.size() && j < sites_.size());
  return site_forecast(site_index_of_host_[i], site_index_of_host_[j]);
}

sched::CostMatrix PerformanceMonitor::build_matrix() const {
  // One forecast per site pair; every host pair reads its sites' entry.
  const std::size_t s = site_names_.size();
  std::vector<Bandwidth> by_site(s * s);
  for (std::size_t a = 0; a < s; ++a) {
    for (std::size_t b = 0; b < s; ++b) {
      by_site[a * s + b] = site_forecast(a, b);
    }
  }
  const std::size_t n = sites_.size();
  sched::CostMatrix matrix(n);
  for (std::size_t i = 0; i < n; ++i) {
    matrix.set_label(i, "host" + std::to_string(i), sites_[i]);
    const Bandwidth* row = by_site.data() + site_index_of_host_[i] * s;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) {
        continue;
      }
      const Bandwidth bw = row[site_index_of_host_[j]];
      if (bw.bits_per_second() > 0.0) {
        matrix.set_bandwidth(i, j, bw);
      }
    }
  }
  return matrix;
}

}  // namespace lsl::nws
