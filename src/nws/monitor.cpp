#include "nws/monitor.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "util/assert.hpp"

namespace lsl::nws {

double NoiseModel::sample(double truth, Rng& rng) const {
  double value = truth * rng.lognormal(0.0, lognormal_sigma);
  if (rng.chance(outlier_probability)) {
    value *= outlier_factor;
  }
  return value;
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

void PerformanceMonitor::observe_epoch(const TruthFn& truth) {
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
  for (std::size_t a = 0; a < s; ++a) {
    for (std::size_t b = 0; b < s; ++b) {
      if (a == b) {
        continue;
      }
      const std::size_t host_a = site_representative_[a];
      const std::size_t host_b = site_representative_[b];
      const double measured = noise_.sample(
          truth(host_a, host_b).megabits_per_second(), rng_);
      const std::optional<double> predicted =
          banks_[a * s + b].observe(measured);
      if (metrics_ != nullptr) {
        metrics_->observations->inc();
        // Error of the forecast the bank held for this reading: how far off
        // would the scheduler's input have been this epoch?
        if (predicted && measured > 0.0) {
          metrics_->forecast_abs_rel_error->observe(
              std::abs(measured - *predicted) / measured);
        }
      }
    }
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
