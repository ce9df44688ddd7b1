// lslsim: run LSL transfer scenarios from a text description.
//
//   lslsim <scenario-file> [--seed N] [--sweep] [--jobs N]
//          [--metrics=<path>] [--trace=<path>] [--explain] [--profile]
//   lslsim --pool-size N [--seed N] [--jobs N] [--metrics=<path>]
//
// Prints one result row per transfer. See src/exp/scenario.hpp for the file
// format, scenarios/ for ready-made examples, and docs/observability.md for
// the metrics and span-trace output formats. With --pool-size (or a
// scenario `pool` directive) it instead runs a synthetic PlanetLab-style
// speedup sweep -- the control-plane scaling path for 1000+ host pools.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "exp/parallel.hpp"
#include "exp/scenario.hpp"
#include "fault/injector.hpp"
#include "mc/fuzzer.hpp"
#include "lsl/depot.hpp"
#include "lsl/recovery.hpp"
#include "nws/monitor.hpp"
#include "obs/explain.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sched/route_advisor.hpp"
#include "sched/scheduler.hpp"
#include "tcp/connection.hpp"
#include "testbed/grid.hpp"
#include "testbed/sweep.hpp"
#include "util/log.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: lslsim <scenario-file> [--seed N] [--sweep] [--jobs N]\n"
               "              [--fidelity=packet|flow]\n"
               "              [--cca=reno|newreno|cubic|bbr]\n"
               "              [--metrics=<path>]\n"
               "              [--trace=<path>] [--profile]\n"
               "              [--explain[=SESSION]]\n"
               "       lslsim --pool-size N [--seed N] [--jobs N]\n"
               "              [--fidelity=packet|flow] [--metrics=<path>]\n"
               "  Runs the transfers described in the scenario file over the\n"
               "  packet-level simulator and prints a result row for each.\n"
               "  --sweep re-runs every transfer at doubling sizes from 1 MiB\n"
               "  up to its declared size (a Figure 2-style curve).\n"
               "  --jobs N runs the sweep's independent points on N worker\n"
               "  threads (output is bitwise identical for any N; 0 = one\n"
               "  worker per hardware thread). Ignored without --sweep: the\n"
               "  transfers of a single run share one simulation.\n"
               "  --fidelity=flow carries transfer payload on the fluid\n"
               "  (flow-level) engine instead of simulating every packet --\n"
               "  same sessions, depots, recovery, and rerouting, far fewer\n"
               "  events (see docs/flow_fidelity.md). Default: packet, or\n"
               "  the scenario's own `fidelity` directive. In pool mode the\n"
               "  sweep normally uses the analytic model; --fidelity=flow\n"
               "  or =packet runs each measurement on the simulator at that\n"
               "  fidelity instead (much slower; small pools only).\n"
               "  --cca selects the congestion-control algorithm for every\n"
               "  transfer and depot relay, overriding the scenario's own\n"
               "  `cca` directive. Default: newreno.\n"
               "  --metrics=<path> writes a JSON snapshot of every metric.\n"
               "  --trace=<path> writes every causal span event as Chrome\n"
               "  trace-event JSON (load it in Perfetto or\n"
               "  chrome://tracing).\n"
               "  --explain prints a per-transfer wall-time breakdown\n"
               "  (streaming / connect / stall / backoff / probe / handover\n"
               "  / retransmit-dominated); --explain=SESSION limits it to\n"
               "  one session hash (hex). Identical for any --jobs value.\n"
               "  --pool-size N skips the packet simulator entirely and runs\n"
               "  the section 4.2 speedup sweep over a synthetic PlanetLab\n"
               "  pool of ~N hosts (fixed topology seed; --seed varies the\n"
               "  measurement sweep). Equivalent to a scenario file holding\n"
               "  just `pool size=N`; a scenario's pool directive can also\n"
               "  set epsilon/iterations/cases/sizes/drift.\n"
               "  --profile prints the simulation kernel's self-profile.\n"
               "  --verify[=RUNS] model-checks the scenario instead of\n"
               "  running it once: DFS over event interleavings (fault vs\n"
               "  timer orderings, probe-reply timing, reroute decisions)\n"
               "  asserting the protocol invariants; nonzero exit and a\n"
               "  counterexample trace file on violation. --verify-depth=N,\n"
               "  --verify-slack=US (reorder events within US microseconds),\n"
               "  --verify-perturb=S1,S2,... (also try each fault shifted by\n"
               "  those seconds) widen the search; --verify-trace=<path>\n"
               "  sets the artifact path (default lslverify.trace).\n"
               "  --verify-replay=P1,P2,... re-executes one recorded choice\n"
               "  trace (a counterexample's replay picks) deterministically.\n"
               "  --fuzz-faults N runs the scenario under N random fault\n"
               "  schedules (seeds seed..seed+N-1) checking the same\n"
               "  invariants; nonzero exit lists the violating seeds.\n"
               "  Scenarios may inject faults (fault/churn directives) and\n"
               "  enable session recovery and adaptive rerouting; the\n"
               "  status column then reports ok / recovered(xN) /\n"
               "  rerouted(xN) / FAILED per transfer. Exit status is\n"
               "  nonzero when any session fails or a connection leaks;\n"
               "  an always-on flight recorder then dumps a post-mortem of\n"
               "  each failed session's recent span events to stderr.\n"
               "  LSL_LOG=debug enables protocol traces; LSL_METRICS=off\n"
               "  disables the built-in instrumentation.\n");
}

/// Parses the whole of `text` as a number (lsl::parse_number), or exits 2
/// naming `flag`.
template <typename T>
T parse_number(const char* flag, const std::string& text, int base = 10) {
  const std::optional<T> value = lsl::parse_number<T>(text, base);
  if (!value.has_value()) {
    std::fprintf(stderr, "lslsim: bad value for %s: '%s'\n", flag,
                 text.c_str());
    std::exit(2);
  }
  return *value;
}

/// Parses a comma-separated list of numbers (empty for an empty value).
template <typename T>
std::vector<T> parse_number_list(const char* flag, const char* text) {
  std::vector<T> out;
  std::istringstream list(text);
  for (std::string item; std::getline(list, item, ',');) {
    out.push_back(parse_number<T>(flag, item));
  }
  return out;
}

/// Touch every subsystem's instrument bundle so the JSON snapshot carries
/// the full tcp/lsl/sched/nws namespace even when a scenario exercises only
/// part of the stack (registration is lazy otherwise).
void preregister_metrics() {
  (void)lsl::obs::bundle<lsl::tcp::TcpMetrics>();
  (void)lsl::obs::bundle<lsl::session::DepotMetrics>();
  (void)lsl::obs::bundle<lsl::session::RecoveryMetrics>();
  (void)lsl::obs::bundle<lsl::sched::SchedMetrics>();
  (void)lsl::obs::bundle<lsl::sched::AdvisorMetrics>();
  (void)lsl::obs::bundle<lsl::nws::NwsMetrics>();
  (void)lsl::obs::bundle<lsl::fault::FaultMetrics>();
}

/// Per-transfer status cell: ok / recovered(xN) / rerouted(xN) / FAILED.
/// A transfer that both recovered and took planned handovers reports both.
std::string status_of(const lsl::exp::SimHarness::TransferOutcome& outcome) {
  if (!outcome.completed) {
    return "FAILED";
  }
  std::string status;
  if (outcome.recovered) {
    status = "recovered(x" + std::to_string(outcome.retries) + ")";
  }
  if (outcome.reroutes > 0) {
    if (!status.empty()) {
      status += "+";
    }
    status += "rerouted(x" + std::to_string(outcome.reroutes) + ")";
  }
  return status.empty() ? "ok" : status;
}

}  // namespace

int main(int argc, char** argv) {
  lsl::init_log_from_env();
  lsl::obs::init_metrics_from_env();
  const char* path = nullptr;
  std::uint64_t seed = 1;
  bool sweep = false;
  bool profile = false;
  std::size_t jobs = 1;
  std::size_t pool_size = 0;
  std::optional<lsl::exp::Fidelity> fidelity_flag;
  std::optional<lsl::flow::Cca> cca_flag;
  const char* metrics_path = nullptr;
  const char* trace_path = nullptr;
  bool explain = false;
  std::uint64_t explain_session = 0;
  bool verify = false;
  std::uint64_t verify_runs = 48;
  std::size_t verify_depth = 24;
  std::uint64_t verify_slack_us = 0;
  std::vector<double> verify_perturb;
  const char* verify_trace_path = "lslverify.trace";
  std::optional<std::vector<std::size_t>> replay_picks;
  std::uint64_t fuzz_runs = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = parse_number<std::uint64_t>("--seed", argv[++i]);
    } else if (std::strcmp(argv[i], "--sweep") == 0) {
      sweep = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = parse_number<std::size_t>("--jobs", argv[++i]);
    } else if (std::strcmp(argv[i], "--pool-size") == 0 && i + 1 < argc) {
      pool_size = parse_number<std::size_t>("--pool-size", argv[++i]);
    } else if (std::strncmp(argv[i], "--fidelity=", 11) == 0) {
      lsl::exp::Fidelity parsed = lsl::exp::Fidelity::kPacket;
      if (!lsl::exp::parse_fidelity(argv[i] + 11, parsed)) {
        std::fprintf(stderr, "lslsim: unknown fidelity '%s' (packet|flow)\n",
                     argv[i] + 11);
        return 2;
      }
      fidelity_flag = parsed;
    } else if (std::strncmp(argv[i], "--cca=", 6) == 0) {
      lsl::flow::Cca parsed = lsl::flow::Cca::kNewReno;
      if (!lsl::flow::parse_cca(argv[i] + 6, parsed)) {
        std::fprintf(stderr,
                     "lslsim: unknown cca '%s' (reno|newreno|cubic|bbr)\n",
                     argv[i] + 6);
        return 2;
      }
      cca_flag = parsed;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      profile = true;
    } else if (std::strncmp(argv[i], "--metrics=", 10) == 0) {
      metrics_path = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    } else if (std::strcmp(argv[i], "--explain") == 0) {
      explain = true;
    } else if (std::strncmp(argv[i], "--explain=", 10) == 0) {
      explain = true;
      explain_session =
          parse_number<std::uint64_t>("--explain", argv[i] + 10, 16);
    } else if (std::strcmp(argv[i], "--verify") == 0) {
      verify = true;
    } else if (std::strncmp(argv[i], "--verify=", 9) == 0) {
      verify = true;
      verify_runs = parse_number<std::uint64_t>("--verify", argv[i] + 9);
    } else if (std::strncmp(argv[i], "--verify-depth=", 15) == 0) {
      verify_depth =
          parse_number<std::size_t>("--verify-depth", argv[i] + 15);
    } else if (std::strncmp(argv[i], "--verify-slack=", 15) == 0) {
      verify_slack_us =
          parse_number<std::uint64_t>("--verify-slack", argv[i] + 15);
    } else if (std::strncmp(argv[i], "--verify-perturb=", 17) == 0) {
      verify_perturb =
          parse_number_list<double>("--verify-perturb", argv[i] + 17);
    } else if (std::strncmp(argv[i], "--verify-trace=", 15) == 0) {
      verify_trace_path = argv[i] + 15;
    } else if (std::strncmp(argv[i], "--verify-replay=", 16) == 0) {
      replay_picks =
          parse_number_list<std::size_t>("--verify-replay", argv[i] + 16);
    } else if (std::strcmp(argv[i], "--fuzz-faults") == 0 && i + 1 < argc) {
      fuzz_runs = parse_number<std::uint64_t>("--fuzz-faults", argv[++i]);
    } else if (std::strcmp(argv[i], "--help") == 0) {
      usage();
      return 0;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "lslsim: unknown option '%s'\n", argv[i]);
      usage();
      return 2;
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      usage();
      return 2;
    }
  }
  if (path == nullptr && pool_size == 0) {
    usage();
    return 2;
  }

  if (metrics_path != nullptr) {
    preregister_metrics();
  }
  // Span recording is always on: a bounded per-session flight recorder in
  // normal runs (cheap; feeds the failure post-mortem), the full unbounded
  // log when --explain or --trace needs complete coverage.
  const bool full_spans = explain || trace_path != nullptr;
  lsl::obs::SpanRecorder span_recorder(full_spans ? 0 : 64);
  lsl::obs::set_spans(&span_recorder);

  lsl::exp::Scenario scenario;
  if (path != nullptr) {
    std::ifstream file(path);
    if (!file) {
      std::fprintf(stderr, "lslsim: cannot open %s\n", path);
      return 1;
    }
    std::ostringstream text;
    text << file.rdbuf();

    auto parsed = lsl::exp::parse_scenario(text.str());
    if (!parsed.ok()) {
      std::fprintf(stderr, "lslsim: %s: %s\n", path, parsed.error.c_str());
      return 1;
    }
    scenario = std::move(*parsed.scenario);
  }
  if (pool_size > 0) {
    if (!scenario.pool.has_value()) {
      scenario.pool.emplace();
    }
    scenario.pool->size = pool_size;
  }
  if (fidelity_flag.has_value()) {
    scenario.fidelity = fidelity_flag;
  }
  if (cca_flag.has_value()) {
    scenario.cca = cca_flag;
  }

  if (verify || replay_picks.has_value() || fuzz_runs > 0) {
    if (scenario.pool.has_value() || scenario.hosts.empty()) {
      std::fprintf(stderr,
                   "lslsim: --verify / --fuzz-faults need an explicit "
                   "host/link scenario\n");
      return 2;
    }
    // The model checker drives the kernel through many runs; silence the
    // outer flight recorder (counterexample replays install their own).
    lsl::obs::ScopedSpanRecorder quiet(nullptr);

    if (fuzz_runs > 0) {
      const auto result =
          lsl::mc::fuzz_fault_schedules(scenario, seed, fuzz_runs);
      std::printf("%s\n", result.str().c_str());
      return result.ok() ? 0 : 1;
    }

    if (replay_picks.has_value()) {
      lsl::mc::ExplorerOptions opts;
      opts.slack = lsl::SimTime::microseconds(
          static_cast<std::int64_t>(verify_slack_us));
      lsl::mc::Explorer explorer(lsl::mc::scenario_fn(scenario, seed), opts);
      const auto run = explorer.replay(*replay_picks);
      std::printf("replay: %llu events, schedule hash %016llx, "
                  "%zu choice points, %zu violation(s)\n",
                  static_cast<unsigned long long>(run.events),
                  static_cast<unsigned long long>(run.schedule_hash),
                  run.trace.size(), run.violations.size());
      for (const std::string& v : run.violations) {
        std::printf("  violation: %s\n", v.c_str());
      }
      return run.violations.empty() ? 0 : 1;
    }

    lsl::mc::VerifyOptions vopts;
    vopts.explorer.max_runs = verify_runs;
    vopts.explorer.max_depth = verify_depth;
    vopts.explorer.slack = lsl::SimTime::microseconds(
        static_cast<std::int64_t>(verify_slack_us));
    for (const double offset : verify_perturb) {
      vopts.perturb_offsets.push_back(lsl::SimTime::from_seconds(offset));
    }
    const auto result = lsl::mc::verify_scenario(scenario, seed, vopts);
    std::printf("%s\n", result.stats.str().c_str());
    if (result.ok()) {
      std::printf("verification passed: 0 violations over %zu variant(s)\n",
                  result.variant_labels.size());
      return 0;
    }
    std::ofstream trace_out(verify_trace_path);
    trace_out << "lslsim --verify counterexample trace\n"
              << "scenario: " << (path != nullptr ? path : "<none>")
              << "\nseed: " << seed << "\n"
              << result.stats.str() << "\n\n";
    for (const auto& vce : result.counterexamples) {
      const std::string& label = result.variant_labels[vce.variant];
      trace_out << "=== counterexample (variant " << vce.variant << ": "
                << label << ") ===\n"
                << "replay: --verify-replay="
                << (vce.ce.picks_csv().empty() ? "<default schedule>"
                                               : vce.ce.picks_csv())
                << "\n"
                << vce.ce.str() << "\n"
                << vce.ce.post_mortem << "\n";
      std::fprintf(stderr,
                   "lslsim: invariant violation (variant %zu: %s):\n",
                   vce.variant, label.c_str());
      for (const std::string& v : vce.ce.run.violations) {
        std::fprintf(stderr, "  %s\n", v.c_str());
      }
    }
    std::fprintf(stderr,
                 "lslsim: verification FAILED: %zu counterexample(s); "
                 "trace written to %s\n",
                 result.counterexamples.size(), verify_trace_path);
    return 1;
  }

  const auto host_name = [&scenario](lsl::net::NodeId id) {
    return scenario.hosts[id].name.c_str();
  };
  if (!scenario.pool.has_value()) {
    std::printf("%zu hosts, %zu links, %zu transfers (seed %llu)\n\n",
                scenario.hosts.size(), scenario.links.size(),
                scenario.transfers.size(),
                static_cast<unsigned long long>(seed));
  }

  // Kernel self-measurement: wall-clock sampling is enabled when the profile
  // is wanted directly (--profile) or indirectly (sim.kernel.* metrics).
  const bool want_profile = profile || metrics_path != nullptr;
  lsl::sim::KernelProfile total_profile;

  // Everything after the runs: kernel profile on stdout, metrics snapshot
  // and span trace to their files.
  const auto finish = [&](bool ok) {
    if (explain) {
      const auto breakdowns =
          lsl::obs::account_spans(span_recorder.snapshot());
      std::printf("\n%s",
                  lsl::obs::render_breakdowns(breakdowns, explain_session)
                      .c_str());
    }
    if (profile) {
      std::printf("\n%s", total_profile.str().c_str());
    }
    if (metrics_path != nullptr) {
      total_profile.export_metrics(lsl::obs::Registry::global());
      if (!lsl::obs::Registry::global().write_json(metrics_path)) {
        std::fprintf(stderr, "lslsim: cannot write %s\n", metrics_path);
        ok = false;
      }
    }
    if (trace_path != nullptr && !span_recorder.write_json(trace_path)) {
      std::fprintf(stderr, "lslsim: cannot write %s\n", trace_path);
      ok = false;
    }
    if (!ok) {
      // Flight-recorder post-mortem: dump the recent span history of every
      // session that failed or never finished, failover chain included.
      std::fprintf(stderr, "%s",
                   lsl::obs::post_mortem_all(span_recorder,
                                             /*only_troubled=*/true)
                       .c_str());
    }
    lsl::obs::set_spans(nullptr);
    return ok ? 0 : 1;
  };

  if (scenario.pool.has_value()) {
    // Synthetic-pool mode: no packet simulation, just the section 4.2
    // speedup sweep at whatever scale was asked for. The pool topology is
    // fixed (like fig09) so --seed varies only the measurement sweep and
    // results stay comparable across pool sizes.
    const auto& pool = *scenario.pool;
    const auto grid = lsl::testbed::SyntheticGrid::planetlab(
        lsl::testbed::scaled_planetlab_config(pool.size), 2004);
    lsl::testbed::SweepConfig sweep_config;
    sweep_config.epsilon = pool.epsilon < 0.0 ? grid.noise().sweep_epsilon
                                              : pool.epsilon;
    sweep_config.iterations = pool.iterations;
    sweep_config.max_cases = pool.max_cases;
    sweep_config.max_size_exp = pool.max_size_exp;
    sweep_config.matrix_drift_sigma = pool.drift_sigma;
    sweep_config.jobs = jobs;
    // Unset: the analytic flow model (the paper's sweep). A fidelity
    // directive or --fidelity flag runs every measurement on the simulator
    // at that fidelity instead.
    if (scenario.fidelity.has_value()) {
      sweep_config.fidelity = *scenario.fidelity == lsl::exp::Fidelity::kFlow
                                  ? lsl::testbed::SweepFidelity::kFlow
                                  : lsl::testbed::SweepFidelity::kPacket;
    }
    std::size_t sites = 0;
    {
      const auto names = grid.sites();
      std::vector<std::string> unique(names.begin(), names.end());
      std::sort(unique.begin(), unique.end());
      unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
      sites = unique.size();
    }
    std::printf("pool sweep: %zu hosts over %zu sites (seed %llu, jobs %zu, "
                "%s measurement)\n\n",
                grid.size(), sites, static_cast<unsigned long long>(seed),
                jobs, lsl::testbed::to_string(sweep_config.fidelity));
    const auto t0 = std::chrono::steady_clock::now();
    const auto result = lsl::testbed::run_speedup_sweep(grid, sweep_config,
                                                        seed);
    total_profile = result.kernel;
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    lsl::Table table({"size", "cases", "mean speedup", "gain"});
    for (const auto& [size, xs] : result.speedups_by_size) {
      const double mean =
          std::accumulate(xs.begin(), xs.end(), 0.0) /
          static_cast<double>(xs.empty() ? 1 : xs.size());
      table.add_row({lsl::format_bytes(size), std::to_string(xs.size()),
                     lsl::Table::num(mean, 3),
                     lsl::Table::num((mean - 1.0) * 100.0, 1) + "%"});
    }
    table.print(std::cout);
    std::printf("\nscheduled cases: %zu (%.1f%% of eligible pairs), "
                "mean depot hops %.2f\n",
                result.scheduled_cases, result.fraction_scheduled * 100.0,
                result.mean_path_hops);
    std::fprintf(stderr, "lslsim: pool sweep took %.2fs wall "
                 "(%zu measurements)\n",
                 wall_s, result.total_measurements);
    return finish(true);
  }

  if (sweep) {
    // Figure 2-style curves: re-run each declared transfer at doubling
    // sizes up to its declared size, one fresh simulation per point. Every
    // point is an independent trial (own simulation, seed fixed up front),
    // so the set runs through the parallel trial engine; the tables come
    // out identical for any --jobs value.
    struct Point {
      std::size_t transfer;
      std::uint64_t size;
    };
    std::vector<Point> points;
    for (std::size_t t = 0; t < scenario.transfers.size(); ++t) {
      for (std::uint64_t size = lsl::mib(1);
           size <= scenario.transfers[t].bytes; size *= 2) {
        points.push_back(Point{t, size});
      }
    }
    struct PointResult {
      lsl::exp::SimHarness::TransferOutcome outcome;
      std::size_t leaked = 0;
      lsl::sim::KernelProfile profile;
    };
    lsl::exp::TrialOptions trial_options;
    trial_options.jobs = jobs;
    const auto measured = lsl::exp::map_trials<PointResult>(
        points.size(), trial_options, [&](std::size_t trial) {
          auto point = scenario;
          point.transfers = {scenario.transfers[points[trial].transfer]};
          point.transfers[0].bytes = points[trial].size;
          PointResult out;
          const auto outcomes = lsl::exp::run_scenario(
              point, seed, lsl::SimTime::seconds(3600),
              want_profile ? &out.profile : nullptr, &out.leaked);
          out.outcome = outcomes.front().outcome;
          return out;
        });
    bool all_ok = true;
    std::size_t cursor = 0;
    for (std::size_t t = 0; t < scenario.transfers.size(); ++t) {
      const auto& base = scenario.transfers[t];
      std::printf("# %s -> %s%s\n", host_name(base.src), host_name(base.dst),
                  base.via.empty() ? "" : " (via depots)");
      lsl::Table table({"size", "time", "Mbit/s"});
      for (; cursor < points.size() && points[cursor].transfer == t;
           ++cursor) {
        const auto& pr = measured[cursor];
        if (want_profile) {
          total_profile.merge_from(pr.profile);
        }
        if (pr.leaked != 0) {
          std::fprintf(stderr, "lslsim: %zu connections leaked\n",
                       pr.leaked);
          all_ok = false;
        }
        all_ok &= pr.outcome.completed;
        table.add_row(
            {lsl::format_bytes(points[cursor].size),
             pr.outcome.completed ? pr.outcome.elapsed.str() : "FAILED",
             pr.outcome.completed
                 ? lsl::Table::num(
                       pr.outcome.goodput.megabits_per_second(), 2)
                 : "-"});
      }
      table.print(std::cout);
      std::printf("\n");
    }
    return finish(all_ok);
  }

  std::size_t leaked = 0;
  const auto outcomes = lsl::exp::run_scenario(
      scenario, seed, lsl::SimTime::seconds(3600),
      want_profile ? &total_profile : nullptr, &leaked);
  lsl::Table table({"src", "dst", "via", "size", "status", "time",
                    "Mbit/s"});
  bool all_ok = true;
  for (const auto& [transfer, outcome] : outcomes) {
    std::string via = "-";
    if (!transfer.via.empty()) {
      via.clear();
      for (std::size_t i = 0; i < transfer.via.size(); ++i) {
        via += std::string(i > 0 ? "," : "") + host_name(transfer.via[i]);
      }
    }
    all_ok &= outcome.completed;
    table.add_row({host_name(transfer.src), host_name(transfer.dst), via,
                   lsl::format_bytes(transfer.bytes), status_of(outcome),
                   outcome.completed ? outcome.elapsed.str() : "-",
                   outcome.completed
                       ? lsl::Table::num(
                             outcome.goodput.megabits_per_second(), 2)
                       : "-"});
  }
  table.print(std::cout);
  if (leaked != 0) {
    std::fprintf(stderr, "lslsim: %zu connections leaked\n", leaked);
    all_ok = false;
  }
  return finish(all_ok);
}
