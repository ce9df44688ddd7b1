// The paper's large-scale evaluation loop (section 4.2): measure the pool
// with the NWS monitor, schedule with the epsilon-damped minimax scheduler,
// and for every (source, destination) pair where the scheduler chose a
// depot path, sample both scheduled and direct transfers of 2^n MB across
// several iterations. Speedup per case follows Eq. 1:
//     speedup = average scheduled bandwidth / average direct bandwidth.
#pragma once

#include <cstdint>
#include <map>
#include <string_view>
#include <vector>

#include "flow/path_model.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"
#include "testbed/grid.hpp"

namespace lsl::testbed {

/// How the measurement phase times each transfer. kAnalytic evaluates the
/// closed-form flow model (the paper's 362k-measurement sweep runs in
/// seconds). kFlow and kPacket materialize every (case, size, iteration,
/// mode) as a small chain topology carrying the same PairRealization and
/// run the transfer through the full LSL session machinery at that
/// fidelity -- orders of magnitude slower, but cross-validates the
/// analytic numbers end to end (see docs/flow_fidelity.md).
enum class SweepFidelity { kAnalytic, kFlow, kPacket };

[[nodiscard]] const char* to_string(SweepFidelity fidelity);
/// Case-sensitive lowercase names: analytic | flow | packet.
[[nodiscard]] bool parse_sweep_fidelity(std::string_view name,
                                        SweepFidelity& out);

struct SweepConfig {
  /// Transfer sizes: 2^n MB for n in [0, max_size_exp).
  int max_size_exp = 7;
  /// Explicit size list (bytes); when non-empty, overrides max_size_exp.
  std::vector<std::uint64_t> sizes;
  /// Measurements of each (pair, size, mode).
  std::size_t iterations = 5;
  /// Cap on scheduled cases measured (0 = unlimited).
  std::size_t max_cases = 400;
  /// NWS measurement epochs before scheduling.
  std::size_t monitor_epochs = 20;
  /// Scheduler edge-equivalence margin.
  double epsilon = 0.10;
  /// Persistent per-pair drift applied to the matrix after measurement;
  /// emulates scheduling from stale information (0 = fresh).
  double matrix_drift_sigma = 0.0;
  /// Restrict sources/destinations to these hosts (empty = all).
  std::vector<std::size_t> endpoints;
  /// Host-throughput scheduler extension (paper future work).
  bool use_host_costs = false;
  /// Worker threads for the measurement phase (each scheduled case is an
  /// independent trial). Any value produces bitwise-identical results --
  /// see docs/performance.md for the determinism contract. 0 = one worker
  /// per hardware thread.
  std::size_t jobs = 1;
  /// Measurement back end (analytic model, fluid simulation, or packet
  /// simulation). Monitor/scheduler/discovery phases are identical across
  /// fidelities; only the per-case timing differs.
  SweepFidelity fidelity = SweepFidelity::kAnalytic;
};

struct SweepResult {
  /// Per transfer size: the per-case speedups (one entry per scheduled
  /// (src, dst) pair).
  std::map<std::uint64_t, std::vector<double>> speedups_by_size;
  /// kFlow and kPacket only (empty at kAnalytic): per transfer size, each
  /// case's Eq. 1 speedup under the closed-form model on the very
  /// realizations the simulator ran, parallel to speedups_by_size.
  std::map<std::uint64_t, std::vector<double>> analytic_twins_by_size;
  /// Fraction of eligible ordered pairs the scheduler routed via depots.
  double fraction_scheduled = 0.0;
  std::size_t scheduled_cases = 0;
  std::size_t total_measurements = 0;
  /// Mean depot-path hop count among scheduled cases.
  double mean_path_hops = 0.0;
  /// kFlow and kPacket only (empty at kAnalytic): the kernel profiles of
  /// every simulated transfer, merged in case order. The kernels run
  /// without wall-clock sampling, so the profile is the same for any jobs.
  sim::KernelProfile kernel;

  [[nodiscard]] std::vector<double> all_speedups() const;
};

[[nodiscard]] SweepResult run_speedup_sweep(const SyntheticGrid& grid,
                                            const SweepConfig& config,
                                            std::uint64_t seed);

}  // namespace lsl::testbed
