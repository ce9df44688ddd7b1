// The measurement side of the scheduler's input: a monitor samples pairwise
// bandwidth (with measurement noise and occasional outliers), feeds one
// forecaster bank per ordered site pair, and aggregates to a fully connected
// host-level cost matrix using site cliques -- all hosts at site A share the
// A->B wide-area measurement, mirroring the performance-topology aggregation
// the paper takes from Swany & Wolski [34].
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "nws/forecast_bank.hpp"
#include "obs/metrics.hpp"
#include "sched/cost_matrix.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace lsl::nws {

/// Process-wide monitor instruments in the global metrics registry.
struct NwsMetrics {
  explicit NwsMetrics(obs::Registry& reg)
      : epochs(&reg.counter("nws.monitor.epochs")),
        observations(&reg.counter("nws.monitor.observations")),
        blackout_epochs(&reg.counter("nws.monitor.blackout_epochs")),
        forecast_abs_rel_error(
            &reg.histogram("nws.monitor.forecast_abs_rel_error",
                           obs::linear_buckets(0.05, 0.05, 20))) {}

  obs::Counter* epochs;
  obs::Counter* observations;
  obs::Counter* blackout_epochs;
  /// |measured - predicted| / measured for every measurement taken after
  /// the pair's first one.
  obs::Histogram* forecast_abs_rel_error;
};

struct NoiseModel {
  /// Multiplicative lognormal measurement noise (sigma of log).
  double lognormal_sigma = 0.15;
  /// Probability a probe lands during a transient event and reads far low.
  double outlier_probability = 0.02;
  /// Multiplier applied to outlier readings.
  double outlier_factor = 0.3;

  [[nodiscard]] double sample(double truth, Rng& rng) const;
};

/// Ground-truth callback: current end-to-end bandwidth between two hosts.
using TruthFn = std::function<Bandwidth(std::size_t, std::size_t)>;

class PerformanceMonitor {
 public:
  /// `sites[i]` labels host i; hosts sharing a label form a clique measured
  /// through one representative pair.
  PerformanceMonitor(std::vector<std::string> sites, NoiseModel noise,
                     std::uint64_t seed);

  /// Take one measurement epoch against the ground truth. During a
  /// blackout the epoch is skipped (no probes run) and forecasts go stale.
  void observe_epoch(const TruthFn& truth);

  /// Measurement blackout (monitoring infrastructure fault): while set,
  /// observe_epoch takes no measurements.
  void set_blackout(bool blackout) { blackout_ = blackout; }
  [[nodiscard]] bool blackout() const { return blackout_; }

  /// Forecast bandwidth between two hosts (site-aggregated).
  [[nodiscard]] Bandwidth forecast(std::size_t i, std::size_t j) const;

  /// Assemble the scheduler's cost matrix from current forecasts.
  [[nodiscard]] sched::CostMatrix build_matrix() const;

  [[nodiscard]] std::size_t epochs() const { return epochs_; }
  [[nodiscard]] std::size_t host_count() const { return sites_.size(); }

 private:
  /// Forecast between two sites: 1000 Mbit/s within a site, 0 before the
  /// pair's first measurement, else at least 1e-3 Mbit/s.
  [[nodiscard]] Bandwidth site_forecast(std::size_t a, std::size_t b) const;

  std::vector<std::string> sites_;
  std::vector<std::string> site_names_;  ///< unique, in first-seen order
  NoiseModel noise_;
  Rng rng_;
  /// Bank over measured Mbit/s from site a to site b at [a * sites + b].
  std::vector<ForecastBank> banks_;
  std::vector<std::size_t> site_index_of_host_;
  std::vector<std::size_t> site_representative_;
  std::size_t epochs_ = 0;
  bool blackout_ = false;
  NwsMetrics* metrics_ = nullptr;  ///< shared instruments (may be null)
};

}  // namespace lsl::nws
