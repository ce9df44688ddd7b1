// The measurement side of the scheduler's input: a monitor samples pairwise
// bandwidth (with measurement noise and occasional outliers), feeds one
// forecaster bank per ordered site pair, and aggregates to a fully connected
// host-level cost matrix using site cliques -- all hosts at site A share the
// A->B wide-area measurement, mirroring the performance-topology aggregation
// the paper takes from Swany & Wolski [34].
//
// An epoch measures against a ground-truth table by site pair. The speedup
// sweep builds that table once (its grid's truth never changes) and runs
// each epoch's source-site rows on its workers; the result is bitwise the
// serial loop's for any job count (observe_epoch below says why).
#pragma once

#include <cstddef>
#include <functional>
#include <span>
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

  /// next_u64 draws one sample() takes: two for the lognormal's Box-Muller,
  /// and one for the outlier trial unless its probability is <= 0 or >= 1.
  [[nodiscard]] std::uint64_t draws() const;
};

/// Ground-truth callback: current end-to-end bandwidth between two hosts.
using TruthFn = std::function<Bandwidth(std::size_t, std::size_t)>;

class PerformanceMonitor {
 public:
  /// `sites[i]` labels host i; hosts sharing a label form a clique measured
  /// through one representative pair.
  PerformanceMonitor(std::vector<std::string> sites, NoiseModel noise,
                     std::uint64_t seed);

  /// Ground truth in Mbit/s from site a to site b at [a * sites + b], read
  /// at each site's representative (first) host; the diagonal reads 0.
  [[nodiscard]] std::vector<double> truth_table(const TruthFn& truth) const;

  /// Take one measurement epoch against a truth_table(). During a blackout
  /// the epoch is skipped (no probes run, no draws) and forecasts go stale.
  /// Source-site rows run on `jobs` workers (0 = default_jobs()). Each row
  /// samples from a copy of the generator taken where the serial loop would
  /// reach it, each bank belongs to one row, and the calling thread adds the
  /// forecast errors to the histogram's sum in serial order, so every
  /// forecast and instrument is bitwise the same for any `jobs`.
  void observe_epoch(std::span<const double> truth_mbps, std::size_t jobs);

  /// One epoch on one thread against `truth`, read afresh (callers whose
  /// truth changes between epochs).
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
  /// Per epoch, reused: each source row's generator at its first draw, its
  /// forecast errors in reading order from [a * sites], and their tally.
  std::vector<Rng> row_rngs_;
  std::vector<double> errors_;
  std::vector<obs::HistogramTally> row_tallies_;
  /// Bank over measured Mbit/s from site a to site b at [a * sites + b].
  std::vector<ForecastBank> banks_;
  std::vector<std::size_t> site_index_of_host_;
  std::vector<std::size_t> site_representative_;
  std::size_t epochs_ = 0;
  bool blackout_ = false;
  NwsMetrics* metrics_ = nullptr;  ///< shared instruments (may be null)
};

}  // namespace lsl::nws
