// Overlay route scheduling on a Grid testbed.
//
// Shows the control plane end to end: measure a synthetic PlanetLab-like
// pool with the NWS-style monitor, build the performance matrix, run the
// epsilon-damped minimax scheduler, inspect a few decisions and one
// depot's hop-by-hop route table, then estimate what the chosen relay
// route buys with the flow-level transfer model.
//
//   $ ./overlay_scheduler
#include <cstdio>
#include <vector>

#include "flow/path_model.hpp"
#include "nws/monitor.hpp"
#include "sched/scheduler.hpp"
#include "testbed/grid.hpp"

using namespace lsl;

int main() {
  // A smaller pool keeps the output readable.
  testbed::PlanetLabConfig config;
  config.sites = 16;
  const auto grid = testbed::SyntheticGrid::planetlab(config, /*seed=*/3);
  std::printf("Generated pool: %zu hosts at %zu sites.\n\n", grid.size(),
              config.sites);

  // 1. Measure: 20 NWS epochs feed one forecaster bank per site pair.
  // The pool's ground truth is fixed, so it is read once.
  nws::PerformanceMonitor monitor(grid.sites(), nws::NoiseModel{}, 99);
  const std::vector<double> truth = monitor.truth_table(grid.truth());
  for (int epoch = 0; epoch < 20; ++epoch) {
    monitor.observe_epoch(truth, /*jobs=*/1);
  }

  // 2. Schedule over the forecast matrix.
  sched::Scheduler scheduler(monitor.build_matrix(),
                             {.epsilon = grid.noise().sweep_epsilon});
  std::printf("Scheduler relays %.0f%% of host pairs via depots.\n\n",
              100.0 * scheduler.fraction_scheduled());

  // 3. Inspect a few decisions.
  std::printf("Sample decisions from host 0 (%s):\n",
              grid.host(0).name.c_str());
  int shown = 0;
  std::size_t example_dst = 0;
  for (std::size_t dst = 1; dst < grid.size() && shown < 6; dst += 3) {
    const auto decision = scheduler.route(0, dst);
    std::printf("  -> %-22s %s", grid.host(dst).name.c_str(),
                decision.uses_depots() ? "via" : "direct");
    for (const auto hop : decision.via()) {
      std::printf(" %s", grid.host(hop).name.c_str());
    }
    std::printf("  (cost %.3f vs direct %.3f)\n", decision.scheduled_cost,
                decision.direct_cost);
    if (decision.uses_depots() && example_dst == 0) {
      example_dst = dst;
    }
    ++shown;
  }

  // 4. A depot's route table (what hop-by-hop forwarding consumes).
  const auto table = scheduler.route_table_for(0);
  std::printf("\nHost 0's route table holds %zu destination/next-hop "
              "tuples.\n",
              table.size());

  // 5. What does the relay route buy? Ask the flow model.
  if (example_dst != 0) {
    const auto decision = scheduler.route(0, example_dst);
    Rng trial(1234);
    const std::uint64_t size = mib(16);
    const auto direct = grid.realize_direct(0, example_dst, size, trial);
    const auto direct_time =
        flow::transfer_time(direct.connection_params(), size);
    std::vector<flow::ConnectionParams> hops;
    for (const auto& hop :
         grid.realize_relay_hops(decision.path, size, trial)) {
      hops.push_back(hop.connection_params());
    }
    const auto relay_time = flow::relay_transfer_time({hops}, size);
    std::printf("\n16MB to %s: direct %s, scheduled %s (%.2fx)\n",
                grid.host(example_dst).name.c_str(),
                direct_time.str().c_str(), relay_time.str().c_str(),
                direct_time.to_seconds() / relay_time.to_seconds());
  }
  return 0;
}
