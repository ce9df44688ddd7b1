#include "testbed/sweep.hpp"

#include <algorithm>
#include <cmath>

#include "exp/parallel.hpp"
#include "nws/monitor.hpp"
#include "testbed/materialize.hpp"
#include "util/assert.hpp"

namespace lsl::testbed {

const char* to_string(SweepFidelity fidelity) {
  switch (fidelity) {
    case SweepFidelity::kAnalytic:
      return "analytic";
    case SweepFidelity::kFlow:
      return "flow";
    case SweepFidelity::kPacket:
      return "packet";
  }
  return "?";
}

bool parse_sweep_fidelity(std::string_view name, SweepFidelity& out) {
  for (const SweepFidelity fidelity :
       {SweepFidelity::kAnalytic, SweepFidelity::kFlow,
        SweepFidelity::kPacket}) {
    if (name == to_string(fidelity)) {
      out = fidelity;
      return true;
    }
  }
  return false;
}

std::vector<double> SweepResult::all_speedups() const {
  std::vector<double> out;
  for (const auto& [size, xs] : speedups_by_size) {
    out.insert(out.end(), xs.begin(), xs.end());
  }
  return out;
}

SweepResult run_speedup_sweep(const SyntheticGrid& grid,
                              const SweepConfig& config, std::uint64_t seed) {
  Rng rng(seed);
  SweepResult result;

  // 1. Measure the pool and build the scheduler's matrix.
  nws::PerformanceMonitor monitor(grid.sites(), nws::NoiseModel{},
                                  rng.fork(1).next_u64());
  for (std::size_t epoch = 0; epoch < config.monitor_epochs; ++epoch) {
    monitor.observe_epoch(grid.truth());
  }
  sched::CostMatrix matrix = monitor.build_matrix();
  if (config.matrix_drift_sigma > 0.0) {
    // Scheduling from stale information: the world moved since the matrix
    // was built. Persistent per-pair drift, symmetric.
    Rng drift_rng = rng.fork(2);
    for (std::size_t i = 0; i < matrix.size(); ++i) {
      for (std::size_t j = i + 1; j < matrix.size(); ++j) {
        const double factor =
            drift_rng.lognormal(0.0, config.matrix_drift_sigma);
        if (matrix.cost(i, j) != sched::kInfiniteCost) {
          matrix.set_cost(i, j, matrix.cost(i, j) * factor);
          matrix.set_cost(j, i, matrix.cost(j, i) * factor);
        }
      }
    }
  }

  sched::SchedulerOptions sched_options;
  sched_options.epsilon = config.epsilon;
  if (config.use_host_costs) {
    sched_options.host_costs.resize(grid.size());
    for (std::size_t h = 0; h < grid.size(); ++h) {
      sched_options.host_costs[h] =
          1.0 / grid.host(h).host_cap.megabits_per_second();
    }
  }
  sched::Scheduler scheduler(std::move(matrix), sched_options);

  // 2. Find the pairs where the scheduler picked a depot path. The n^2
  // discovery loop parallelizes per source: the source trees are prebuilt
  // (itself parallel and job-count invariant), so every worker only reads
  // the shared scheduler, and per-source results fold back in source order
  // -- cases and fraction_scheduled come out bitwise identical to the old
  // serial loop for any jobs value.
  std::vector<std::size_t> endpoints = config.endpoints;
  if (endpoints.empty()) {
    endpoints.resize(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      endpoints[i] = i;
    }
  }
  scheduler.prebuild_trees(config.jobs, endpoints);
  struct Pair {
    std::size_t src;
    std::size_t dst;
  };
  struct Discovery {
    std::vector<Pair> scheduled;
    std::size_t eligible = 0;
  };
  exp::TrialOptions trial_options;
  trial_options.jobs = config.jobs;
  const std::vector<Discovery> discovered = exp::map_trials<Discovery>(
      endpoints.size(), trial_options, [&](std::size_t trial) {
        const std::size_t src = endpoints[trial];
        Discovery out;
        for (const std::size_t dst : endpoints) {
          if (src == dst || grid.host(src).site == grid.host(dst).site) {
            continue;
          }
          ++out.eligible;
          if (scheduler.route(src, dst).uses_depots()) {
            out.scheduled.push_back(Pair{src, dst});
          }
        }
        return out;
      });
  std::vector<Pair> scheduled;
  std::size_t eligible_pairs = 0;
  for (const Discovery& d : discovered) {
    eligible_pairs += d.eligible;
    scheduled.insert(scheduled.end(), d.scheduled.begin(), d.scheduled.end());
  }
  result.fraction_scheduled =
      eligible_pairs > 0
          ? static_cast<double>(scheduled.size()) /
                static_cast<double>(eligible_pairs)
          : 0.0;
  // Only the cases kept after the max_cases cut need a path (~650k pairs
  // are scheduled at 1,024 hosts, 400 kept). Shuffle's draws depend only on
  // the element count, so shuffling pairs keeps the same cases in the same
  // order as shuffling full cases.
  rng.shuffle(scheduled);
  if (config.max_cases > 0 && scheduled.size() > config.max_cases) {
    scheduled.resize(config.max_cases);
  }
  struct Case {
    std::size_t src;
    std::size_t dst;
    std::vector<std::size_t> path;
  };
  std::vector<Case> cases;
  cases.reserve(scheduled.size());
  for (const Pair& p : scheduled) {
    // The path route() returned: the same walk of the same cached tree.
    cases.push_back(
        Case{p.src, p.dst, scheduler.tree_from(p.src).path_to(p.dst)});
  }
  result.scheduled_cases = cases.size();

  double hop_sum = 0.0;
  for (const auto& c : cases) {
    hop_sum += static_cast<double>(c.path.size() - 2);
  }
  result.mean_path_hops =
      cases.empty() ? 0.0 : hop_sum / static_cast<double>(cases.size());

  // 3. Transfer sizes.
  std::vector<std::uint64_t> sizes = config.sizes;
  if (sizes.empty()) {
    for (int n = 0; n < config.max_size_exp; ++n) {
      sizes.push_back(mib(1) << n);
    }
  }

  // 4. Measure: per case and size, average bandwidth over iterations for
  // both modes, then Eq. 1. Every case is an independent trial: its Rng is
  // forked from the (fixed) sweep generator keyed by the host-name pair, so
  // the cases can run on any worker in any order and still reproduce the
  // serial sweep bit for bit. Results land in a per-case slot and are
  // folded into the size-keyed result map in case order afterwards.
  struct CaseResult {
    std::vector<double> speedup_by_size;  ///< parallel to `sizes`
    std::vector<double> twin_by_size;     ///< simulated sweeps only
  };
  // Bandwidth sums (bit/s) of one (case, size) over its iterations.
  struct BandwidthSums {
    double direct = 0.0;
    double sched = 0.0;

    // The closed-form flow model on one realization per mode: the analytic
    // measurement, and the twin of every simulated one.
    void add_closed_form(const PairRealization& direct_hop,
                         const std::vector<PairRealization>& hops,
                         std::uint64_t size) {
      const SimTime t_direct =
          flow::transfer_time(direct_hop.connection_params(), size);
      direct += static_cast<double>(size) * 8.0 / t_direct.to_seconds();
      std::vector<flow::ConnectionParams> hop_params;
      hop_params.reserve(hops.size());
      for (const PairRealization& hop : hops) {
        hop_params.push_back(hop.connection_params());
      }
      const SimTime t_sched =
          flow::relay_transfer_time(flow::RelayPathParams{hop_params}, size);
      sched += static_cast<double>(size) * 8.0 / t_sched.to_seconds();
    }

    /// Eq. 1.
    [[nodiscard]] double speedup() const {
      return direct > 0.0 ? sched / direct : 0.0;
    }
  };
  const bool simulated = config.fidelity != SweepFidelity::kAnalytic;
  const exp::Fidelity sim_fidelity = config.fidelity == SweepFidelity::kFlow
                                         ? exp::Fidelity::kFlow
                                         : exp::Fidelity::kPacket;
  // Run one transfer of `size` bytes along a materialized chain; returns
  // achieved bandwidth in bit/s (0 on a deadline miss, which only a
  // pathological realization can produce at this deadline).
  const auto simulate_chain =
      [&](const std::vector<std::size_t>& path,
          const std::vector<PairRealization>& hops, std::uint64_t size,
          std::uint64_t sim_seed) -> double {
    Materialized m =
        materialize_path(grid, path, hops, sim_seed, sim_fidelity);
    session::TransferSpec spec;
    spec.dst = m.nodes.back();
    for (std::size_t i = 1; i + 1 < m.nodes.size(); ++i) {
      spec.via.push_back(m.nodes[i]);
    }
    spec.payload_bytes = size;
    spec.tcp =
        tcp::TcpOptions{}.with_buffers(grid.host(path.front()).tcp_buffer);
    const auto outcome = m.harness->run_transfer(m.nodes.front(), spec,
                                                 SimTime::seconds(86400));
    if (!outcome.completed || outcome.elapsed <= SimTime::zero()) {
      return 0.0;
    }
    return static_cast<double>(size) * 8.0 / outcome.elapsed.to_seconds();
  };
  const std::vector<CaseResult> measured = exp::map_trials<CaseResult>(
      cases.size(), trial_options, [&](std::size_t trial) {
        const auto& c = cases[trial];
        Rng case_rng = rng.fork(Rng::hash(grid.host(c.src).name) ^
                                Rng::hash(grid.host(c.dst).name));
        CaseResult out;
        out.speedup_by_size.reserve(sizes.size());
        for (const std::uint64_t size : sizes) {
          BandwidthSums sums;
          BandwidthSums twin;
          for (std::size_t it = 0; it < config.iterations; ++it) {
            // One realization per mode, shared verbatim by every fidelity:
            // the analytic model consumes it as ConnectionParams, the
            // simulated back ends materialize it as a chain topology.
            const auto direct =
                grid.realize_direct(c.src, c.dst, size, case_rng);
            const auto hops =
                grid.realize_relay_hops(c.path, size, case_rng);
            if (!simulated) {
              sums.add_closed_form(direct, hops, size);
              continue;
            }
            const std::uint64_t sim_seed = case_rng.next_u64();
            sums.direct +=
                simulate_chain({c.src, c.dst}, {direct}, size, sim_seed);
            sums.sched +=
                simulate_chain(c.path, hops, size, sim_seed ^ 0x5C5C);
            // The twin is taken here, on the networks just simulated: an
            // analytic sweep draws no simulation seeds, so from a case's
            // second draw on it would realize other networks.
            twin.add_closed_form(direct, hops, size);
          }
          out.speedup_by_size.push_back(sums.speedup());
          if (simulated) {
            out.twin_by_size.push_back(twin.speedup());
          }
        }
        return out;
      });
  for (const CaseResult& cr : measured) {
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      result.speedups_by_size[sizes[s]].push_back(cr.speedup_by_size[s]);
    }
    for (std::size_t s = 0; s < cr.twin_by_size.size(); ++s) {
      result.analytic_twins_by_size[sizes[s]].push_back(cr.twin_by_size[s]);
    }
  }
  result.total_measurements +=
      cases.size() * sizes.size() * config.iterations * 2;
  return result;
}

}  // namespace lsl::testbed
