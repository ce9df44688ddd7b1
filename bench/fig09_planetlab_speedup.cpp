// Section 4.2's evaluation: one sweep of the PlanetLab-like pool, reported
// as Figure 9 (average speedup per transfer size over all host pairs where
// the scheduler chose a depot route), Figure 10 (median, 25th and 75th
// percentile per size: the variance behind Figure 9's means) and the table
// of the percentile at which speedup exceeds 1 per size. Paper: 142-host
// pool, depots chosen for 26% of paths, 362,895 measurements, average
// speedup 5.75%-9% by size; table row 1M:39 2M:43 4M:48 8M:43 16M:48 32M:46
// 64M:49.
//
// Usage: fig09_planetlab_speedup [--jobs N] [--json <file>]
//                                [--fidelity=analytic|flow|packet]
//   --jobs parallelizes the measurement sweep over the trial engine; the
//   report is bitwise identical for every N (the perf-smoke CI step diffs
//   N=1 against N=2). --json records the series plus the sweep's wall time
//   for the perf trajectory (results/BENCH_fig09.json).
//   --fidelity=flow|packet simulates every transfer at that fidelity on a
//   reduced case/size grid, and reports each size's mean and median
//   agreement with the analytic twins the sweep computes on the same
//   realizations; the flow-validate CI job gates on those records
//   (scripts/check_fidelity_agreement.py).
#include <chrono>
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "testbed/sweep.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace lsl;
  const auto opts = bench::parse_options(argc, argv);
  bench::banner(
      "Figure 9 -- Average speedup per transfer size over all host pairs",
      "Paper claim: 5.75%-9% average speedup for 1-64 MB transfers; the "
      "scheduler identified depot routes for 26% of paths.");

  const bool simulated = opts.fidelity != testbed::SweepFidelity::kAnalytic;
  const std::string fidelity = testbed::to_string(opts.fidelity);
  const auto grid =
      testbed::SyntheticGrid::planetlab(testbed::PlanetLabConfig{}, 2004);
  testbed::SweepConfig config;
  config.max_size_exp = 7;  // 1, 2, 4, ..., 64 MB
  // Full paper-scale measurement count by default (the parallel trial
  // engine + kernel fast path made it cheap); LSL_BENCH_SCALE still shrinks
  // smoke runs.
  config.iterations = bench::scaled(5, 2);
  config.max_cases = 0;  // all scheduled pairs
  config.epsilon = grid.noise().sweep_epsilon;
  config.jobs = opts.jobs;
  if (simulated) {
    // Simulating every measurement is orders of magnitude slower than the
    // closed form; shrink the grid while keeping it statistically useful.
    config.max_size_exp = 4;  // 1, 2, 4, 8 MB
    config.max_cases = bench::scaled(12, 4);
    config.iterations = bench::scaled(2, 1);
    config.fidelity = opts.fidelity;
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = testbed::run_speedup_sweep(grid, config, 42);
  const double sweep_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  bench::JsonRecords records("fig09_planetlab_speedup");
  // Simulated statistic per size against the same statistic of the sweep's
  // analytic twins (1.0 = perfect agreement). "agreement", not "*speedup*":
  // the perf gate treats speedup metrics as higher-is-better, but agreement
  // is gated toward 1.0 (scripts/check_fidelity_agreement.py).
  const auto print_agreement = [&](const std::string& statistic,
                                   const auto& of,
                                   const std::string& record_prefix) {
    Table agree({"size", fidelity + " " + statistic, "analytic " + statistic,
                 "agreement"});
    for (const auto& [size, xs] : result.speedups_by_size) {
      const double sim = of(xs);
      const double ref = of(result.analytic_twins_by_size.at(size));
      const double agreement = ref > 0.0 ? sim / ref : 0.0;
      agree.add_row({format_bytes(size), Table::num(sim, 4),
                     Table::num(ref, 4), Table::num(agreement, 4)});
      records.add(record_prefix + format_bytes(size), agreement);
    }
    std::printf("\nCross-validation vs the analytic model (same cases and "
                "realizations):\n");
    agree.print(std::cout);
  };

  // Figure 9: means.
  std::printf("Pool: %zu hosts, %s measurement. Scheduler chose depot routes "
              "for %.1f%% of pairs (paper: 26%%).\n",
              grid.size(), fidelity.c_str(),
              100.0 * result.fraction_scheduled);
  std::printf("Total measurements: %zu (paper: 362,895). Mean depot hops: "
              "%.2f.\n\n",
              result.total_measurements, result.mean_path_hops);
  records.add("hosts", static_cast<double>(grid.size()));
  records.add("fraction_scheduled", result.fraction_scheduled);
  records.add("total_measurements",
              static_cast<double>(result.total_measurements));
  records.add("mean_path_hops", result.mean_path_hops);
  records.add("jobs", static_cast<double>(opts.jobs));
  Table means({"size", "cases", "mean speedup", "gain %"});
  FigureData mean_fig("Average speedup per transfer size", "size_mb",
                      {"speedup"});
  for (const auto& [size, xs] : result.speedups_by_size) {
    const double mean = mean_of(xs);
    means.add_row({format_bytes(size),
                   Table::num_int(static_cast<long long>(xs.size())),
                   Table::num(mean, 4), Table::num(100.0 * (mean - 1.0), 2)});
    mean_fig.add_point(static_cast<double>(size) / static_cast<double>(kMiB),
                       {mean});
    records.add("mean_speedup_" + format_bytes(size), mean);
  }
  means.print(std::cout);
  std::printf("\n");
  mean_fig.print(std::cout);
  if (simulated) {
    print_agreement("mean", [](const auto& xs) { return mean_of(xs); },
                    "fidelity_agreement_");
  }

  // Figure 10: quartiles.
  std::printf("\n");
  bench::section(
      "Figure 10 -- Median / 25th / 75th percentile of speedup per size",
      "Paper claim: acceptable speedup in many cases but quite a few where "
      "LSL made performance worse; improvements up to 4x exist.");
  records.add("scheduled_cases", static_cast<double>(result.scheduled_cases));
  Table quartiles({"size", "p25", "median", "p75", "min", "max"});
  FigureData quartile_fig("Speedup quartiles per transfer size", "size_mb",
                          {"p25", "median", "p75"});
  for (const auto& [size, xs] : result.speedups_by_size) {
    const auto box = BoxStats::of(xs);
    quartiles.add_row({format_bytes(size), Table::num(box.q25, 3),
                       Table::num(box.median, 3), Table::num(box.q75, 3),
                       Table::num(box.min, 2), Table::num(box.max, 2)});
    quartile_fig.add_point(
        static_cast<double>(size) / static_cast<double>(kMiB),
        {box.q25, box.median, box.q75});
    records.add("median_speedup_" + format_bytes(size), box.median);
  }
  quartiles.print(std::cout);
  std::printf("\n");
  quartile_fig.print(std::cout);
  if (simulated) {
    print_agreement("median",
                    [](const auto& xs) { return BoxStats::of(xs).median; },
                    "fidelity_agreement_median_");
  }

  // The crossover table.
  std::printf("\n");
  bench::section(
      "Table (section 4.2) -- Percentile where speedup exceeds 1.0",
      "Paper values ranged 39-49 across sizes: roughly 40-49% of scheduled "
      "cases were slower via LSL, the rest faster.");
  static constexpr int kPaperRow[] = {39, 43, 48, 43, 48, 46, 49};
  Table crossover({"size", "measured percentile", "paper"});
  std::size_t index = 0;
  for (const auto& [size, xs] : result.speedups_by_size) {
    const double pct = percentile_rank_below(xs, 1.0);
    const std::string paper =
        index < std::size(kPaperRow) ? Table::num_int(kPaperRow[index]) : "-";
    crossover.add_row({format_bytes(size), Table::num(pct, 1), paper});
    ++index;
  }
  crossover.print(std::cout);

  // stderr, not stdout: the perf-smoke CI step diffs stdout across --jobs
  // values byte for byte, and wall time is inherently nondeterministic.
  std::fprintf(stderr, "\nSweep wall time: %.3fs (jobs=%zu)\n", sweep_seconds,
               opts.jobs);
  // Wall-clock metrics carry the _wall_seconds suffix so determinism diffs
  // can filter them (see .github/workflows/ci.yml perf-smoke).
  records.add("sweep_wall_seconds", sweep_seconds);
  records.add("measurements_per_second",
              static_cast<double>(result.total_measurements) / sweep_seconds);
  return records.write(opts.json_path) ? 0 : 1;
}
