// Micro-benchmarks for the scheduling core: the paper claims the MMP
// algorithm "can be solved quickly" (O(N log N) with sorted edges; our
// dense-matrix variant is O(N^2) per tree, which must still be fast enough
// to re-run at 5-minute scheduling intervals for hundreds of hosts).
//
// The paired benches measure the control plane around the tree build: the
// bitmask-overlay reroute vs. the copy-the-matrix baseline, and a watched
// session's reroute decision vs. a plain route(). With --json the run also
// emits the mask_vs_copy speedup and advisor_evaluate_vs_route ratio
// records that results/BENCH_sched.json tracks across PRs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "micro_runner.hpp"
#include "sched/minimax.hpp"
#include "sched/route_advisor.hpp"
#include "sched/scheduler.hpp"
#include "util/rng.hpp"

namespace {

using namespace lsl;
using namespace lsl::sched;

CostMatrix random_matrix(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  CostMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) {
        m.set_cost(i, j, rng.uniform(1.0, 100.0));
      }
    }
  }
  return m;
}

/// The shape the pool sweep schedules over (PerformanceMonitor::
/// build_matrix): one to three hosts per site, every host pair reading its
/// sites' forecast, so whole rows repeat exactly equal costs. A site
/// pair's bandwidth is the slower site's access link (lognormal, as in
/// testbed/grid.cpp) under 10% forecast noise. At epsilon 0.25 about a
/// fifth of all fringe visits collapse, near the pool matrix's 29%.
CostMatrix site_clique_matrix(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::size_t> site_of(n);
  std::size_t sites = 0;
  for (std::size_t v = 0; v < n; ++sites) {
    const auto count = static_cast<std::size_t>(rng.uniform_int(1, 3));
    for (std::size_t k = 0; k < count && v < n; ++k) {
      site_of[v++] = sites;
    }
  }
  std::vector<double> access_mbps(sites);
  for (double& mbps : access_mbps) {
    mbps = rng.lognormal(std::log(12.0), 1.2);
  }
  std::vector<double> by_site(sites * sites);
  for (std::size_t a = 0; a < sites; ++a) {
    for (std::size_t b = 0; b < sites; ++b) {
      const double mbps = std::min(access_mbps[a], access_mbps[b]) *
                          rng.lognormal(0.0, 0.1);
      by_site[a * sites + b] = 1.0 / mbps;  // s per Mbit
    }
  }
  CostMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) {
        m.set_cost(i, j,
                   site_of[i] == site_of[j]
                       ? 1.0 / 1000.0
                       : by_site[site_of[i] * sites + site_of[j]]);
      }
    }
  }
  return m;
}

void BM_BuildMmpTree(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto matrix = random_matrix(n, 42);
  for (auto _ : state) {
    auto tree = build_mmp_tree(matrix, 0, {.epsilon = 0.1});
    benchmark::DoNotOptimize(tree);
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BuildMmpTree)->RangeMultiplier(2)->Range(16, 1024)->Complexity();

void BM_BuildMmpTreeSiteClique(benchmark::State& state) {
  // The pool sweep's tree build: site-clique costs at its epsilon (0.25),
  // where ties and damped relaxations are the common case.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto matrix = site_clique_matrix(n, 42);
  for (auto _ : state) {
    auto tree = build_mmp_tree(matrix, 0, {.epsilon = 0.25});
    benchmark::DoNotOptimize(tree);
  }
}
BENCHMARK(BM_BuildMmpTreeSiteClique)->Arg(142)->Arg(512)->Arg(1024);

void BM_BuildShortestPathTree(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto matrix = random_matrix(n, 42);
  for (auto _ : state) {
    auto tree = build_shortest_path_tree(matrix, 0);
    benchmark::DoNotOptimize(tree);
  }
}
BENCHMARK(BM_BuildShortestPathTree)->RangeMultiplier(4)->Range(16, 1024);

void BM_RouteTableForNode(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Scheduler scheduler(random_matrix(n, 7), {.epsilon = 0.1});
  std::size_t node = 0;
  for (auto _ : state) {
    auto table = scheduler.route_table_for(node);
    benchmark::DoNotOptimize(table);
    node = (node + 1) % n;
  }
}
BENCHMARK(BM_RouteTableForNode)->Arg(64)->Arg(142)->Arg(256);

void BM_FullSchedule142Hosts(benchmark::State& state) {
  // The paper's deployment size: all-pairs decisions for 142 hosts.
  const auto matrix = random_matrix(142, 9);
  for (auto _ : state) {
    const Scheduler scheduler(CostMatrix(matrix), {.epsilon = 0.1});
    double checksum = 0.0;
    for (std::size_t s = 0; s < 142; ++s) {
      checksum += scheduler.tree_from(s).cost[(s + 1) % 142];
    }
    benchmark::DoNotOptimize(checksum);
  }
}
BENCHMARK(BM_FullSchedule142Hosts);

void BM_MinimaxOracle(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto matrix = random_matrix(n, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(minimax_cost_oracle(matrix, 0, n - 1));
  }
}
BENCHMARK(BM_MinimaxOracle)->Arg(16)->Arg(64);

void BM_RouteAvoidingMasked(benchmark::State& state) {
  // Blacklist reroute through the bitmask overlay at the production
  // epsilon (0.1): a masked from-scratch tree build with no matrix copy --
  // the win over the copy baseline is the skipped n x n copy, not a
  // skipped build.
  const auto n = static_cast<std::size_t>(state.range(0));
  const Scheduler scheduler(random_matrix(n, 7), {.epsilon = 0.1});
  const std::size_t src = 0;
  const std::size_t dst = n - 1;
  const std::vector<std::size_t> excluded = {n / 4, n / 2, 3 * n / 4};
  for (auto _ : state) {
    auto decision = scheduler.route_avoiding(src, dst, excluded);
    benchmark::DoNotOptimize(decision);
  }
}
BENCHMARK(BM_RouteAvoidingMasked)->Arg(142)->Arg(512)->Arg(1024);

void BM_RouteAvoidingMatrixCopy(benchmark::State& state) {
  // The old reroute: copy the whole matrix, blacklist in the copy, rebuild
  // the source tree from scratch (an n x n allocation per reroute).
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto matrix = random_matrix(n, 7);
  const std::size_t src = 0;
  const std::vector<std::size_t> excluded = {n / 4, n / 2, 3 * n / 4};
  for (auto _ : state) {
    CostMatrix pruned(matrix);
    for (const std::size_t node : excluded) {
      pruned.exclude_node(node);
    }
    auto tree = build_mmp_tree(pruned, src, {.epsilon = 0.1});
    benchmark::DoNotOptimize(tree);
  }
}
BENCHMARK(BM_RouteAvoidingMatrixCopy)->Arg(142)->Arg(512)->Arg(1024);

void BM_SchedulerRoute(benchmark::State& state) {
  // A single route decision against a warm cached tree: the denominator
  // for the advisor-overhead ratio below.
  const auto n = static_cast<std::size_t>(state.range(0));
  const Scheduler scheduler(random_matrix(n, 7), {.epsilon = 0.1});
  (void)scheduler.route(0, n - 1);  // warm the cached tree
  for (auto _ : state) {
    auto decision = scheduler.route(0, n - 1);
    benchmark::DoNotOptimize(decision);
  }
}
BENCHMARK(BM_SchedulerRoute)->Arg(142)->Arg(512)->Arg(1024);

void BM_AdvisorEvaluate(benchmark::State& state) {
  // One watched session's per-tick reroute decision: current-path cost,
  // best-candidate route, hysteresis/dwell rule. This is what every live
  // session pays on every rescheduler tick, so it must stay within a small
  // constant factor of a plain route() (advisor_evaluate_vs_route_ratio).
  const auto n = static_cast<std::size_t>(state.range(0));
  const Scheduler scheduler(random_matrix(n, 7), {.epsilon = 0.1});
  const RouteAdvisor advisor;
  SessionView view;
  view.src = 0;
  view.dst = n - 1;
  view.current_via = {static_cast<net::NodeId>(n / 3)};
  view.remaining_bytes = 64ull << 20;
  (void)scheduler.route(0, n - 1);  // warm the cached tree
  for (auto _ : state) {
    auto advice = advisor.evaluate(scheduler, view, SimTime::seconds(100),
                                   SimTime::zero());
    benchmark::DoNotOptimize(advice);
  }
}
BENCHMARK(BM_AdvisorEvaluate)->Arg(142)->Arg(512)->Arg(1024);

void BM_AdvisorEvaluateBlacklisted(benchmark::State& state) {
  // The same decision for a session whose recovery loop has blacklisted
  // depots: the candidate comes from the bitmask-overlay route_avoiding.
  const auto n = static_cast<std::size_t>(state.range(0));
  const Scheduler scheduler(random_matrix(n, 7), {.epsilon = 0.1});
  const RouteAdvisor advisor;
  SessionView view;
  view.src = 0;
  view.dst = n - 1;
  view.current_via = {static_cast<net::NodeId>(n / 3)};
  view.remaining_bytes = 64ull << 20;
  view.blacklist = {static_cast<net::NodeId>(n / 4),
                    static_cast<net::NodeId>(n / 2),
                    static_cast<net::NodeId>(3 * n / 4)};
  (void)scheduler.route(0, n - 1);  // warm the cached tree
  for (auto _ : state) {
    auto advice = advisor.evaluate(scheduler, view, SimTime::seconds(100),
                                   SimTime::zero());
    benchmark::DoNotOptimize(advice);
  }
}
BENCHMARK(BM_AdvisorEvaluateBlacklisted)->Arg(142)->Arg(512)->Arg(1024);

}  // namespace

int main(int argc, char** argv) {
  const auto opts = lsl::bench::parse_options(argc, argv);
  lsl::bench::JsonRecords records("micro_scheduler");
  lsl::bench::RecordingReporter reporter(records);
  lsl::bench::run_micro_benchmarks(argc, argv, reporter);
  // Paired trajectory records: both sides come from this run, so host
  // speed cancels out and scripts/check_perf_gate.py can gate them.
  for (const char* n : {"142", "512", "1024"}) {
    const std::string size(n);
    const double masked = reporter.seconds("BM_RouteAvoidingMasked/" + size);
    const double copied =
        reporter.seconds("BM_RouteAvoidingMatrixCopy/" + size);
    if (masked > 0.0 && copied > 0.0) {
      records.add("mask_vs_copy_speedup_" + size, copied / masked);
    }
    const double route = reporter.seconds("BM_SchedulerRoute/" + size);
    const double evaluate = reporter.seconds("BM_AdvisorEvaluate/" + size);
    if (route > 0.0 && evaluate > 0.0) {
      records.add("advisor_evaluate_vs_route_ratio_" + size,
                  evaluate / route);
    }
  }
  return records.write(opts.json_path) ? 0 : 1;
}
