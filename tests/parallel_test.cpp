// The parallel trial engine's determinism contract: any --jobs value
// produces bit-identical results and metrics (docs/performance.md); the
// merged span stream is checked in span_test.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/parallel.hpp"
#include "obs/metrics.hpp"
#include "testbed/grid.hpp"
#include "testbed/sweep.hpp"
#include "util/threads.hpp"

namespace lsl {
namespace {

TEST(RunOnThreadsTest, RunsJobOnEveryWorkerAndCaller) {
  std::vector<std::atomic<int>> hits(4);
  std::thread::id caller_worker;
  run_on_threads(4, [&](std::size_t worker) {
    hits[worker].fetch_add(1);
    if (worker == 3) {
      caller_worker = std::this_thread::get_id();
    }
  });
  // Returns only after every worker finished: all hits are visible here.
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "worker " << i;
  }
  EXPECT_EQ(caller_worker, std::this_thread::get_id());

  for (const std::size_t jobs : {std::size_t{0}, std::size_t{1}}) {
    std::vector<std::size_t> seen;
    run_on_threads(jobs, [&](std::size_t worker) { seen.push_back(worker); });
    EXPECT_EQ(seen, std::vector<std::size_t>{0}) << "jobs=" << jobs;
  }
}

TEST(RunOnThreadsTest, RethrowsAWorkerException) {
  std::atomic<int> calls{0};
  EXPECT_THROW(run_on_threads(3,
                              [&](std::size_t worker) {
                                calls.fetch_add(1);
                                if (worker == 1) {
                                  throw std::runtime_error("worker 1");
                                }
                              }),
               std::runtime_error);
  EXPECT_EQ(calls.load(), 3);  // the other workers still ran and joined
}

TEST(ParallelTest, RunsEveryTrialExactlyOnce) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{2},
                                 std::size_t{8}}) {
    std::vector<std::atomic<int>> hits(100);
    exp::TrialOptions options;
    options.jobs = jobs;
    exp::for_each_trial(hits.size(), options, [&](std::size_t trial) {
      hits[trial].fetch_add(1);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "jobs=" << jobs << " trial " << i;
    }
  }
}

TEST(ParallelTest, MapTrialsReturnsResultsInTrialOrder) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{2},
                                 std::size_t{8}}) {
    exp::TrialOptions options;
    options.jobs = jobs;
    const auto results = exp::map_trials<std::size_t>(
        64, options, [](std::size_t trial) { return trial * trial; });
    ASSERT_EQ(results.size(), 64u);
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i], i * i) << "jobs=" << jobs;
    }
  }
}

TEST(ParallelTest, RethrowsLowestTrialIndexFailure) {
  // Every trial throws; the engine must surface trial 0's exception no
  // matter which workers failed first.
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    exp::TrialOptions options;
    options.jobs = jobs;
    try {
      exp::for_each_trial(32, options, [](std::size_t trial) {
        throw std::runtime_error("trial " + std::to_string(trial));
      });
      FAIL() << "expected an exception (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "trial 0") << "jobs=" << jobs;
    }
  }
}

TEST(ParallelTest, MergesPerTrialMetricsInTrialOrder) {
  constexpr std::size_t kTrials = 40;
  // Counters accumulate; gauges keep the last value in trial order. Both
  // must come out identical to the serial run for every jobs value.
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{2},
                                 std::size_t{8}}) {
    obs::Registry parent;
    {
      obs::ScopedRegistry scope(parent);
      exp::TrialOptions options;
      options.jobs = jobs;
      exp::for_each_trial(kTrials, options, [](std::size_t trial) {
        obs::Registry::global().counter("test.trials").inc(trial);
        obs::Registry::global().gauge("test.last_trial").set(
            static_cast<double>(trial));
      });
    }
    EXPECT_EQ(parent.counter("test.trials").value(),
              kTrials * (kTrials - 1) / 2)
        << "jobs=" << jobs;
    EXPECT_EQ(parent.gauge("test.last_trial").value(),
              static_cast<double>(kTrials - 1))
        << "jobs=" << jobs;
  }
}

TEST(ParallelTest, GaugeHighWaterResetsPerTrialAndMergesAsMax) {
  // Regression: the serial path used to run trials directly against the
  // caller's registry, so gauge values accumulated across trials and the
  // merged high-water mark depended on --jobs. Every jobs value must see
  // the per-trial peak (reset each trial), merged as the max over trials.
  constexpr std::size_t kTrials = 12;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{2},
                                 std::size_t{8}}) {
    obs::Registry parent;
    {
      obs::ScopedRegistry scope(parent);
      exp::TrialOptions options;
      options.jobs = jobs;
      exp::for_each_trial(kTrials, options, [](std::size_t trial) {
        obs::Gauge& g = obs::Registry::global().gauge("test.occupancy");
        // Occupancy rises to a per-trial peak and drains back to zero. If
        // trial state leaked across trials, the accumulated peak would be
        // the sum of all trials' peaks instead of the largest one.
        const double peak = static_cast<double>(trial % 5) + 1.0;
        g.add(peak);
        g.add(-peak);
      });
    }
    EXPECT_DOUBLE_EQ(parent.gauge("test.occupancy").high_water(), 5.0)
        << "jobs=" << jobs;
    EXPECT_DOUBLE_EQ(parent.gauge("test.occupancy").value(), 0.0)
        << "jobs=" << jobs;
  }
}

/// Exact equality: the contract is bitwise-identical, not approximately
/// equal, so EXPECT_EQ on doubles is intentional throughout.
void expect_identical(const testbed::SweepResult& a,
                      const testbed::SweepResult& b, std::size_t jobs) {
  EXPECT_EQ(a.fraction_scheduled, b.fraction_scheduled) << "jobs=" << jobs;
  EXPECT_EQ(a.scheduled_cases, b.scheduled_cases) << "jobs=" << jobs;
  EXPECT_EQ(a.total_measurements, b.total_measurements) << "jobs=" << jobs;
  EXPECT_EQ(a.mean_path_hops, b.mean_path_hops) << "jobs=" << jobs;
  ASSERT_EQ(a.speedups_by_size.size(), b.speedups_by_size.size())
      << "jobs=" << jobs;
  auto it_a = a.speedups_by_size.begin();
  auto it_b = b.speedups_by_size.begin();
  for (; it_a != a.speedups_by_size.end(); ++it_a, ++it_b) {
    EXPECT_EQ(it_a->first, it_b->first) << "jobs=" << jobs;
    ASSERT_EQ(it_a->second.size(), it_b->second.size())
        << "jobs=" << jobs << " size=" << it_a->first;
    for (std::size_t i = 0; i < it_a->second.size(); ++i) {
      EXPECT_EQ(it_a->second[i], it_b->second[i])
          << "jobs=" << jobs << " size=" << it_a->first << " case " << i;
    }
  }
}

TEST(ParallelSweepTest, SweepIsBitwiseIdenticalForAnyJobsValue) {
  testbed::PlanetLabConfig pool;
  pool.sites = 14;  // small pool: enough depot routes, fast enough for CI
  const auto grid = testbed::SyntheticGrid::planetlab(pool, 2004);
  testbed::SweepConfig config;
  config.max_size_exp = 3;
  config.iterations = 2;
  config.max_cases = 30;
  config.monitor_epochs = 5;

  config.jobs = 1;
  const auto serial = testbed::run_speedup_sweep(grid, config, 42);
  ASSERT_GT(serial.scheduled_cases, 0u);

  for (const std::size_t jobs : {std::size_t{2}, std::size_t{8}}) {
    config.jobs = jobs;
    const auto parallel = testbed::run_speedup_sweep(grid, config, 42);
    expect_identical(serial, parallel, jobs);
  }
}

TEST(ParallelSweepTest, FlowSweepMetricsAreIdenticalForAnyJobsValue) {
  // Simulated sweeps build harnesses whose TCP and depot instruments write
  // Registry::global(). Every trial must run under its own registry, merged
  // into the caller's in trial order: writing the shared registry from
  // several workers raced and lost counts.
  testbed::PlanetLabConfig pool;
  pool.sites = 14;
  const auto grid = testbed::SyntheticGrid::planetlab(pool, 2004);
  testbed::SweepConfig config;
  config.max_size_exp = 1;
  config.iterations = 2;
  config.max_cases = 30;
  config.monitor_epochs = 5;
  config.fidelity = testbed::SweepFidelity::kFlow;

  const auto sweep = [&](std::size_t jobs, obs::Registry& registry) {
    const obs::ScopedRegistry scope(registry);
    config.jobs = jobs;
    return testbed::run_speedup_sweep(grid, config, 42);
  };
  obs::Registry serial_registry;
  const auto serial = sweep(1, serial_registry);
  ASSERT_GT(serial.scheduled_cases, 0u);
  ASSERT_GT(serial_registry.counter("tcp.conn.opened").value(), 0u);

  obs::Registry parallel_registry;
  const auto parallel = sweep(2, parallel_registry);
  expect_identical(serial, parallel, 2);
  EXPECT_EQ(serial_registry.to_json(), parallel_registry.to_json());
}

}  // namespace
}  // namespace lsl
