// Figure 11: box statistics of speedup with depots at Abilene POPs.
//
// Paper: 10 university PlanetLab hosts as endpoints, depots on Internet2
// Observatory machines at the POPs; 10 measurements each at 16 MB, 5 at
// 128 MB. Median speedup > 1; maxima 10.15 (16 MB) and 6.38 (128 MB); the
// scheduler identified paths through the core nodes without being told to.
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
      "Figure 11 -- Speedup box stats with depots at Abilene POPs "
      "(16MB and 128MB)",
      "Paper claim: large gains when depots sit in the network core with "
      "big buffers; maximum speedups were 10.15 (16MB) and 6.38 (128MB).");

  const auto grid = testbed::SyntheticGrid::abilene_core(77);

  // Endpoints: universities only; the scheduler is free to choose any host
  // as a relay and should discover the core depots on its own.
  testbed::SweepConfig config;
  config.sizes = {mib(16), mib(128)};
  config.iterations = bench::scaled(10, 3);
  config.max_cases = 0;
  config.epsilon = 0.10;
  config.jobs = opts.jobs;
  for (std::size_t u = 0; u < 10; ++u) {
    config.endpoints.push_back(u);
  }
  const auto result = testbed::run_speedup_sweep(grid, config, 11);

  std::printf("Scheduled %.0f%% of university pairs via depots; mean relay "
              "hops %.2f.\n",
              100.0 * result.fraction_scheduled, result.mean_path_hops);

  // How many scheduled paths actually traverse a core depot?
  std::printf("\n");
  Table table({"size", "min", "p25", "median", "p75", "max"});
  for (const auto& [size, xs] : result.speedups_by_size) {
    const auto box = BoxStats::of(xs);
    table.add_row({format_bytes(size), Table::num(box.min, 2),
                   Table::num(box.q25, 2), Table::num(box.median, 2),
                   Table::num(box.q75, 2), Table::num(box.max, 2)});
  }
  table.print(std::cout);
  std::printf("\nPaper reference: median above 1.0 at both sizes; maxima "
              "10.15 / 6.38 (plot truncated at 3.0).\n");
  return 0;
}
