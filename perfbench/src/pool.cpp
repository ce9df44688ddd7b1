// Pool workloads: the section 4.2 speedup sweep over a synthetic PlanetLab
// pool, on 2 trial workers (as lslsim --jobs 2 runs it):
//   pool_flow     the fig09 pool (PlanetLabConfig{}, topology seed 2004) at
//                 flow fidelity, 1..64 MiB, 100 cases, 2 iterations;
//   pool_control  the scenarios/pool_1024.lsl settings (~1024 hosts,
//                 400 cases, 1..8 MiB, 2 iterations), analytic.
// run_speedup_sweep hides every layer behind one call, and its trial engine
// discards per-trial kernel profiles. So besides timing the sweep, the
// benchmark replays it through the entry points it composes -- NWS monitor,
// scheduler, route discovery, then testbed::materialize_path plus
// SimHarness::run_transfer per transfer -- and checks that the replay
// reproduces the sweep's speedups bit for bit.
#include "bench.hpp"

#include <cmath>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "exp/scenario.hpp"
#include "flow/path_model.hpp"
#include "nws/monitor.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sched/scheduler.hpp"
#include "spans.hpp"
#include "testbed/grid.hpp"
#include "testbed/materialize.hpp"
#include "testbed/sweep.hpp"

namespace perfbench {
namespace {

namespace exp = lsl::exp;
namespace obs = lsl::obs;
namespace sim = lsl::sim;
namespace testbed = lsl::testbed;
using lsl::SimTime;

constexpr std::size_t kJobs = 2;
/// Sweeps whose replay counts kernel events for events_per_transfer.
constexpr std::uint64_t kCountedSweeps = 2;

struct Pool {
  std::optional<testbed::SyntheticGrid> grid;
  testbed::SweepConfig config;
};

Pool make_pool(const Options& options) {
  Pool pool;
  if (options.workload == "pool_flow") {
    pool.grid.emplace(
        testbed::SyntheticGrid::planetlab(testbed::PlanetLabConfig{}, 2004));
    pool.config.max_size_exp = 7;
    pool.config.max_cases = 100;
    pool.config.iterations = 2;
    pool.config.epsilon = pool.grid->noise().sweep_epsilon;
    pool.config.fidelity = testbed::SweepFidelity::kFlow;
  } else {
    // The scenario's pool directive, applied as lslsim applies it.
    const std::string path = options.repo + "/scenarios/pool_1024.lsl";
    const exp::ParseResult parsed = exp::parse_scenario(read_file(path));
    if (!parsed.ok() || !parsed.scenario->pool.has_value()) {
      throw std::runtime_error(
          path + ": " + (parsed.ok() ? "no pool directive" : parsed.error));
    }
    const exp::ScenarioPool& settings = *parsed.scenario->pool;
    pool.grid.emplace(testbed::SyntheticGrid::planetlab(
        testbed::scaled_planetlab_config(settings.size), 2004));
    pool.config.max_size_exp = settings.max_size_exp;
    pool.config.max_cases = settings.max_cases;
    pool.config.iterations = settings.iterations;
    pool.config.epsilon = settings.epsilon < 0.0
                              ? pool.grid->noise().sweep_epsilon
                              : settings.epsilon;
    pool.config.matrix_drift_sigma = settings.drift_sigma;
  }
  pool.config.jobs = kJobs;
  return pool;
}

bool simulated(const Pool& pool) {
  return pool.config.fidelity != testbed::SweepFidelity::kAnalytic;
}

/// Count each (case, size) speedup as a unit: it fails unless positive.
void check_sweep(const testbed::SweepResult& result, const Pool& pool,
                 Report& report) {
  if (result.scheduled_cases == 0 ||
      result.speedups_by_size.size() !=
          static_cast<std::size_t>(pool.config.max_size_exp)) {
    report.error("sweep measured no cases");
    report.attempt(false);
    return;
  }
  for (const auto& [size, speedups] : result.speedups_by_size) {
    if (speedups.size() != result.scheduled_cases) {
      report.error("sweep lost cases at one size");
    }
    for (const double s : speedups) {
      const bool ok = std::isfinite(s) && s > 0.0;
      report.attempt(ok);
      if (!ok) {
        report.error("a sweep case measured zero bandwidth at " +
                     std::to_string(size / lsl::kMiB) + " MiB");
      }
    }
  }
}

/// What a replay of one sweep produced and measured.
struct Replay {
  std::vector<std::vector<double>> speedups;  ///< [size][case], as the sweep
  std::uint64_t transfers = 0;                ///< simulated or evaluated
  double payload_mib = 0.0;
  sim::KernelProfile kernel;
  double loop_s = 0.0;
  double outside_loop_s = 0.0;
  double materialize_s = 0.0;
  double monitor_s = 0.0;
  double tree_build_s = 0.0;
  double route_s = 0.0;
  std::vector<std::string> errors;
};

/// One transfer along a materialized chain, exactly as the sweep's
/// simulate_chain runs it; returns the achieved bit rate (0 on failure).
double simulate(const Pool& pool, const std::vector<std::size_t>& path,
                const std::vector<testbed::PairRealization>& hops,
                std::uint64_t size, std::uint64_t sim_seed, SpanLog* spans,
                Replay& out) {
  const testbed::SyntheticGrid& grid = *pool.grid;
  const std::uint64_t unit = ++out.transfers;
  out.payload_mib +=
      static_cast<double>(size) / static_cast<double>(lsl::kMiB);
  const Clock::time_point start = Clock::now();
  double loop_s = 0.0;
  double bits_per_s = 0.0;
  {
    SpanLog::Scope root(spans, "bench.transfer", unit);
    std::optional<testbed::Materialized> m;
    {
      SpanLog::Scope s(spans, "testbed.materialize", unit);
      m.emplace(testbed::materialize_path(grid, path, hops, sim_seed,
                                          exp::Fidelity::kFlow));
    }
    const Clock::time_point built = Clock::now();
    out.materialize_s += seconds_between(start, built);
    lsl::session::TransferSpec spec;
    spec.dst = m->nodes.back();
    for (std::size_t i = 1; i + 1 < m->nodes.size(); ++i) {
      spec.via.push_back(m->nodes[i]);
    }
    spec.payload_bytes = size;
    spec.tcp =
        lsl::tcp::TcpOptions{}.with_buffers(grid.host(path.front()).tcp_buffer);
    exp::SimHarness::TransferOutcome outcome;
    {
      SpanLog::Scope s(spans, "exp.run", unit);
      outcome = m->harness->run_transfer(m->nodes.front(), spec,
                                         SimTime::seconds(86400));
    }
    loop_s = seconds_between(built, Clock::now());
    if (outcome.completed && outcome.elapsed > SimTime::zero()) {
      bits_per_s =
          static_cast<double>(size) * 8.0 / outcome.elapsed.to_seconds();
    }
    const std::size_t leaked = m->harness->open_connection_count();
    if (!outcome.completed || outcome.bytes != size || leaked != 0) {
      out.errors.push_back("pool transfer " + std::to_string(unit) +
                           ": incomplete, short or leaked " +
                           std::to_string(leaked) + " connections");
    }
    out.kernel.merge_from(m->harness->simulator().profile());
    SpanLog::Scope s(spans, "exp.teardown", unit);
    m.reset();
  }
  out.loop_s += loop_s;
  out.outside_loop_s += seconds_between(start, Clock::now()) - loop_s;
  return bits_per_s;
}

/// Replay run_speedup_sweep(grid, config, seed) step by step through the
/// layers' own entry points (see testbed/sweep.cpp; matrix drift and host
/// costs are off in both workloads, so they are not replayed).
Replay replay_sweep(const Pool& pool, std::uint64_t seed, SpanLog* spans) {
  const testbed::SyntheticGrid& grid = *pool.grid;
  const testbed::SweepConfig& config = pool.config;
  Replay out;
  lsl::Rng rng(seed);

  // nws: measure the pool, build the cost matrix.
  Clock::time_point t = Clock::now();
  std::optional<lsl::sched::CostMatrix> matrix;
  {
    lsl::nws::PerformanceMonitor monitor(grid.sites(), lsl::nws::NoiseModel{},
                                         rng.fork(1).next_u64());
    {
      SpanLog::Scope s(spans, "nws.observe_epoch", 0);
      for (std::size_t epoch = 0; epoch < config.monitor_epochs; ++epoch) {
        monitor.observe_epoch(grid.truth());
      }
    }
    SpanLog::Scope s(spans, "nws.build_matrix", 0);
    matrix.emplace(monitor.build_matrix());
  }
  out.monitor_s = seconds_between(t, Clock::now());

  // sched: build every source's tree, then route every eligible pair.
  t = Clock::now();
  lsl::sched::SchedulerOptions options;
  options.epsilon = config.epsilon;
  std::optional<lsl::sched::Scheduler> scheduler;
  std::vector<std::size_t> endpoints(grid.size());
  std::iota(endpoints.begin(), endpoints.end(), 0);
  {
    SpanLog::Scope s(spans, "sched.construct", 0);
    scheduler.emplace(std::move(*matrix), options);
  }
  {
    SpanLog::Scope s(spans, "sched.prebuild_trees", 0);
    scheduler->prebuild_trees(config.jobs, endpoints);
  }
  out.tree_build_s = seconds_between(t, Clock::now());
  t = Clock::now();
  struct Case {
    std::size_t src;
    std::size_t dst;
    std::vector<std::size_t> path;
  };
  std::vector<Case> cases;
  {
    SpanLog::Scope s(spans, "sched.route", 0);
    for (const std::size_t src : endpoints) {
      for (const std::size_t dst : endpoints) {
        if (src == dst || grid.host(src).site == grid.host(dst).site) {
          continue;
        }
        auto decision = scheduler->route(src, dst);
        if (decision.uses_depots()) {
          cases.push_back(Case{src, dst, std::move(decision.path)});
        }
      }
    }
  }
  out.route_s = seconds_between(t, Clock::now());
  rng.shuffle(cases);
  if (config.max_cases > 0 && cases.size() > config.max_cases) {
    cases.resize(config.max_cases);
  }

  // Measure: the sweep's per-case loop, one realization per mode.
  std::vector<std::uint64_t> sizes;
  for (int n = 0; n < config.max_size_exp; ++n) {
    sizes.push_back(lsl::mib(1) << n);
  }
  out.speedups.resize(sizes.size());
  SpanLog::Scope measure(spans, simulated(pool) ? "bench.measure"
                                                : "flow.analytic_measure",
                         0);
  for (const Case& c : cases) {
    lsl::Rng case_rng = rng.fork(lsl::Rng::hash(grid.host(c.src).name) ^
                                 lsl::Rng::hash(grid.host(c.dst).name));
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      const std::uint64_t size = sizes[s];
      double direct_bw_sum = 0.0;
      double sched_bw_sum = 0.0;
      for (std::size_t it = 0; it < config.iterations; ++it) {
        const auto direct = grid.realize_direct(c.src, c.dst, size, case_rng);
        const auto hops = grid.realize_relay_hops(c.path, size, case_rng);
        if (simulated(pool)) {
          const std::uint64_t sim_seed = case_rng.next_u64();
          direct_bw_sum += simulate(pool, {c.src, c.dst}, {direct}, size,
                                    sim_seed, spans, out);
          sched_bw_sum += simulate(pool, c.path, hops, size,
                                   sim_seed ^ 0x5C5C, spans, out);
          continue;
        }
        const SimTime t_direct =
            lsl::flow::transfer_time(direct.connection_params(), size);
        direct_bw_sum +=
            static_cast<double>(size) * 8.0 / t_direct.to_seconds();
        std::vector<lsl::flow::ConnectionParams> hop_params;
        hop_params.reserve(hops.size());
        for (const testbed::PairRealization& hop : hops) {
          hop_params.push_back(hop.connection_params());
        }
        lsl::flow::RelayPathParams path_params;
        path_params.hops = hop_params;
        const SimTime t_sched =
            lsl::flow::relay_transfer_time(path_params, size);
        sched_bw_sum +=
            static_cast<double>(size) * 8.0 / t_sched.to_seconds();
        out.transfers += 2;
        out.payload_mib += 2.0 * static_cast<double>(size) /
                           static_cast<double>(lsl::kMiB);
      }
      out.speedups[s].push_back(
          direct_bw_sum > 0.0 ? sched_bw_sum / direct_bw_sum : 0.0);
    }
  }
  return out;
}

/// The replay must reproduce the sweep bit for bit and pass every check.
void check_replay(const Replay& replay, const testbed::SweepResult& sweep,
                  Report& report) {
  std::size_t s = 0;
  bool same = replay.speedups.size() == sweep.speedups_by_size.size();
  for (const auto& [size, speedups] : sweep.speedups_by_size) {
    same = same && speedups == replay.speedups[s++];
  }
  if (!same) {
    report.error("replay of the sweep gave other speedups than the sweep");
  }
  for (const std::string& e : replay.errors) {
    report.error(e);
  }
}

struct TimedSweep {
  testbed::SweepResult result;
  double wall_s = 0.0;
};

/// One sweep at lslsim defaults, or with observability off.
TimedSweep sweep(const Pool& pool, std::uint64_t seed, bool obs_on) {
  TimedSweep out;
  obs::set_metrics_enabled(obs_on);
  const Clock::time_point start = Clock::now();
  {
    std::optional<FlightRecorder> recorder;
    if (obs_on) {
      recorder.emplace();
    }
    out.result = testbed::run_speedup_sweep(*pool.grid, pool.config, seed);
  }
  out.wall_s = seconds_between(start, Clock::now());
  obs::set_metrics_enabled(true);
  return out;
}

void timed_pass(const Options& options, const Pool& pool, Report& report) {
  // Whole rotation cycles of sweeps (see CpuRotation) until the time is up.
  // A sweep's transfers run inside one call, so the per-transfer wall time
  // is taken per cycle (its sweeps' wall / their measurements) and its
  // percentiles over the run's cycles.
  std::vector<double> ms_per_transfer;
  double measurements = 0.0;
  double timed_s = 0.0;
  double rss_mib = 0.0;
  std::vector<testbed::SweepResult> counted;  ///< the first sweeps' results
  std::optional<CpuRotation> rotation(std::in_place);
  const std::uint64_t steps = rotation->cycle(kJobs);
  if (simulated(pool)) {
    // The first flow sweep of a process runs 30-50% slower than the next
    // ones (~1.8 s against ~1.3 s); it is not timed.
    rotation->pin(0, kJobs);
    check_sweep(sweep(pool, derive_seed(options.seed, ~0ULL), true).result,
                pool, report);
  }
  std::uint64_t sweeps = 0;  ///< timed so far
  const Clock::time_point start = Clock::now();
  for (std::uint64_t cycle = 0;
       another_cycle(cycle, seconds_between(start, Clock::now()),
                     options.seconds);
       ++cycle) {
    double cycle_s = 0.0;
    double cycle_measurements = 0.0;
    for (std::uint64_t step = 0; step < steps; ++step, ++sweeps) {
      rotation->pin(step, kJobs);  // the sweep's workers inherit the mask
      TimedSweep timed = sweep(pool, derive_seed(options.seed, sweeps), true);
      check_sweep(timed.result, pool, report);
      cycle_measurements +=
          static_cast<double>(timed.result.total_measurements);
      cycle_s += timed.wall_s;
      if (sweeps < kCountedSweeps) {
        counted.push_back(std::move(timed.result));
      }
      if (sweeps + 1 == kRssSweeps) {
        rss_mib = peak_rss_mib();
      }
    }
    measurements += cycle_measurements;
    timed_s += cycle_s;
    ms_per_transfer.push_back(cycle_s * 1e3 /
                              std::max(1.0, cycle_measurements));
  }
  if (rss_mib == 0.0) {
    rss_mib = peak_rss_mib();
  }
  rotation.reset();
  report.set("transfers_per_s", measurements / timed_s, "1/s");
  report.set("transfer_ms.p50", median(ms_per_transfer), "ms");
  report.set("transfer_ms.p90", quantile(ms_per_transfer, 0.9), "ms");
  // The analytic back end runs no kernel: each transfer is one model
  // evaluation, counted as one event. Simulated sweeps discard their
  // kernel profiles, so the first kCountedSweeps sweeps are replayed
  // (untimed) to count; each replay must reproduce its sweep.
  double events_per_transfer = 1.0;
  if (simulated(pool)) {
    FlightRecorder recorder;
    std::uint64_t events = 0;
    std::uint64_t transfers = 0;
    for (std::uint64_t i = 0; i < kCountedSweeps; ++i) {
      const Replay replay =
          replay_sweep(pool, derive_seed(options.seed, i), nullptr);
      if (i < counted.size()) {
        check_replay(replay, counted[i], report);
      }
      events += replay.kernel.events_executed;
      transfers += replay.transfers;
    }
    events_per_transfer =
        static_cast<double>(events) / static_cast<double>(transfers);
  }
  report.set("events_per_transfer", events_per_transfer, "events");
  report.set("peak_rss_mib", rss_mib, "MiB");
}

void traced_pass(const Options& options, const Pool& pool,
                 double grid_build_s, Report& report) {
  const std::uint64_t seed = derive_seed(options.seed, 0);
  const double budget_s = options.seconds / 2.0;
  Layers layers;
  layers.grid_build_s = grid_build_s;

  // Observability overhead from outside: the sweep at lslsim defaults
  // against the sweep with built-in metrics off and no span recorder. Every
  // sweep must measure the first one's speedups.
  std::optional<testbed::SweepResult> reference;
  const auto timed_sweep = [&](bool obs_on) {
    TimedSweep t = sweep(pool, seed, obs_on);
    if (!reference) {
      check_sweep(t.result, pool, report);
      reference = std::move(t.result);
    } else if (t.result.speedups_by_size != reference->speedups_by_size) {
      report.error(obs_on ? "a sweep at the same seed gave other speedups"
                          : "sweep with observability off gave other "
                            "speedups");
    }
    return t.wall_s;
  };
  layers.obs_overhead_ratio =
      paired_ratio(budget_s, [&] { return timed_sweep(true); },
                   [&] { return timed_sweep(false); });

  // The replay, traced and untraced; each must reproduce the sweep. The
  // first traced replay gives the per-layer metrics.
  FlightRecorder flight;
  SpanLog spans;
  std::optional<Replay> traced;
  const auto replay = [&](bool trace) {
    SpanLog scratch;
    const bool collect = trace && !traced.has_value();
    if (collect) {
      reset_registry();
    }
    const std::uint64_t recorded = flight.recorder().total_recorded();
    const Clock::time_point start = Clock::now();
    Replay r = replay_sweep(pool, seed,
                            trace ? (collect ? &spans : &scratch) : nullptr);
    const double wall_s = seconds_between(start, Clock::now());
    check_replay(r, *reference, report);
    if (collect) {
      layers.span_events = flight.recorder().total_recorded() - recorded;
      read_registry(layers);
      traced = std::move(r);
    }
    return wall_s;
  };
  layers.trace_overhead_ratio =
      paired_ratio(budget_s, [&] { return replay(true); },
                   [&] { return replay(false); });

  layers.transfers = traced->transfers;
  layers.payload_mib = traced->payload_mib;
  layers.kernel = traced->kernel;
  layers.loop_s = traced->loop_s;
  layers.outside_loop_s = traced->outside_loop_s;
  layers.materialize_s = traced->materialize_s;
  layers.monitor_s = traced->monitor_s;
  layers.tree_build_s = traced->tree_build_s;
  layers.route_s = traced->route_s;
  report_layers(layers, report);
  print_self_times(spans);
  if (!options.out_dir.empty() &&
      !spans.write_json(options.out_dir + "/spans_" + options.workload +
                        ".json")) {
    report.error("cannot write spans to " + options.out_dir);
  }
}

/// One set-up: build the synthetic grid into `pool` (pool_control first
/// parses its scenario); pool_flow also warms up on a two-transfer sweep at
/// a fixed seed, so every set-up does the same work whatever the run's
/// seed. Returns its wall time.
double set_up(const Options& options, Pool& pool,
              std::vector<double>& grid_build_s, Report& report) {
  const Clock::time_point start = Clock::now();
  pool = make_pool(options);
  grid_build_s.push_back(seconds_between(start, Clock::now()));
  if (simulated(pool)) {
    Pool warm;
    warm.grid = pool.grid;
    warm.config = pool.config;
    warm.config.max_cases = 1;
    warm.config.max_size_exp = 1;
    warm.config.iterations = 1;
    Report warm_report;
    check_sweep(sweep(warm, /*seed=*/0, true).result, warm, warm_report);
    if (!warm_report.ok()) {
      report.error("warm-up sweep measured zero bandwidth");
    }
  }
  return seconds_between(start, Clock::now());
}

}  // namespace

void run_pool_workload(const Options& options, Report& report) {
  // Only the first set-up's pool is used (see kSetups).
  Pool pool;
  std::vector<double> grid_build_s;
  const double setup_s = median_setup_s(kJobs, [&](bool first) {
    if (first) {
      return set_up(options, pool, grid_build_s, report);
    }
    Pool discarded;
    return set_up(options, discarded, grid_build_s, report);
  });
  if (options.trace) {
    traced_pass(options, pool, median(grid_build_s), report);
    return;
  }
  timed_pass(options, pool, report);
  report.set("setup_s", setup_s, "s");
}

}  // namespace perfbench
