#include <gtest/gtest.h>

#include "nws/rescheduler.hpp"
#include "obs/span.hpp"
#include "sim/simulator.hpp"

namespace lsl::nws {
namespace {

using namespace lsl::time_literals;

const std::vector<std::string> kSites{"a.edu", "b.edu", "c.edu"};

/// Directed edges whose cost differs between two same-size matrices.
std::size_t differing_edges(const sched::CostMatrix& a,
                            const sched::CostMatrix& b) {
  std::size_t differing = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < a.size(); ++j) {
      if (a.cost(i, j) != b.cost(i, j)) {
        ++differing;
      }
    }
  }
  return differing;
}

TEST(ReschedulerTest, RebuildsAtEveryInterval) {
  sim::Simulator sim;
  std::size_t callbacks = 0;
  Rescheduler rescheduler(
      sim, PerformanceMonitor(kSites, NoiseModel{}, 1),
      [](std::size_t, std::size_t) { return Bandwidth::mbps(50); },
      SimTime::seconds(300), {.epsilon = 0.1},
      [&](const sched::Scheduler&) { ++callbacks; });
  rescheduler.start();
  sim.run(SimTime::seconds(1501));
  // t=0, 300, 600, 900, 1200, 1500.
  EXPECT_EQ(callbacks, 6u);
  EXPECT_EQ(rescheduler.rebuilds(), 6u);
  ASSERT_NE(rescheduler.current(), nullptr);
  EXPECT_EQ(rescheduler.current()->matrix().size(), kSites.size());
}

TEST(ReschedulerTest, StopHaltsTheLoop) {
  sim::Simulator sim;
  std::size_t callbacks = 0;
  Rescheduler rescheduler(
      sim, PerformanceMonitor(kSites, NoiseModel{}, 2),
      [](std::size_t, std::size_t) { return Bandwidth::mbps(50); },
      SimTime::seconds(300), {}, [&](const sched::Scheduler&) {
        ++callbacks;
      });
  rescheduler.start();
  sim.run(SimTime::seconds(301));
  rescheduler.stop();
  sim.run(SimTime::seconds(5000));
  EXPECT_EQ(callbacks, 2u);
}

TEST(ReschedulerTest, AdaptsToChangedNetworkConditions) {
  // The a<->c pair starts fast and degrades at t=600s; the rescheduler's
  // decisions must flip from direct to relayed once enough fresh epochs
  // outweigh the history.
  sim::Simulator sim;
  bool degraded = false;
  sim.schedule_at(SimTime::seconds(600), [&] { degraded = true; });

  std::vector<bool> decisions;  // uses_depots per rebuild for a->c
  Rescheduler rescheduler(
      sim, PerformanceMonitor(kSites, NoiseModel{.lognormal_sigma = 0.02},
                              3),
      [&](std::size_t i, std::size_t j) {
        const bool ac = (i == 0 && j == 2) || (i == 2 && j == 0);
        if (ac) {
          return Bandwidth::mbps(degraded ? 4.0 : 60.0);
        }
        return Bandwidth::mbps(60.0);
      },
      SimTime::seconds(300), {.epsilon = 0.1},
      [&](const sched::Scheduler& scheduler) {
        decisions.push_back(scheduler.route(0, 2).uses_depots());
      });
  rescheduler.start();
  sim.run(SimTime::seconds(20'000));
  ASSERT_GE(decisions.size(), 10u);
  EXPECT_FALSE(decisions.front());  // initially direct
  EXPECT_TRUE(decisions.back());    // eventually routes around the damage
}

TEST(ReschedulerTest, ForecastEpochCountsChangedEdges) {
  sim::Simulator sim;
  obs::SpanRecorder spans;
  obs::ScopedSpanRecorder scope(&spans);
  std::vector<sched::CostMatrix> matrices;  // one per on_schedule call
  // Hosts 0 and 1 share a site: their LAN edges never move, so a tick can
  // change fewer than all n(n-1) directed edges.
  Rescheduler rescheduler(
      sim,
      PerformanceMonitor({"a.edu", "a.edu", "b.edu", "c.edu"}, NoiseModel{},
                         6),
      [](std::size_t i, std::size_t j) {
        return Bandwidth::mbps(20.0 + 10.0 * static_cast<double>(i + j));
      },
      SimTime::seconds(300), {.epsilon = 0.1},
      [&](const sched::Scheduler& scheduler) {
        matrices.push_back(scheduler.matrix());
      });
  rescheduler.start();
  sim.run(SimTime::seconds(3001));  // t = 0, 300, ..., 3000

  std::vector<double> counts;
  for (const obs::SpanEvent& event : spans.snapshot()) {
    if (event.kind == obs::SpanKind::kForecastEpoch) {
      counts.push_back(event.value);
    }
  }
  ASSERT_EQ(matrices.size(), 11u);
  ASSERT_EQ(counts.size(), matrices.size());
  EXPECT_EQ(counts[0], 0.0);
  bool moved = false;
  for (std::size_t k = 1; k < matrices.size(); ++k) {
    const std::size_t want = differing_edges(matrices[k - 1], matrices[k]);
    EXPECT_EQ(counts[k], static_cast<double>(want)) << "tick " << k;
    moved = moved || want > 0;
  }
  EXPECT_TRUE(moved);
}

TEST(ReschedulerTest, BlackoutTicksKeepTheCurrentScheduler) {
  sim::Simulator sim;
  std::vector<const sched::Scheduler*> ticks;  // one per on_schedule call
  Rescheduler rescheduler(
      sim, PerformanceMonitor(kSites, NoiseModel{}, 4),
      [](std::size_t, std::size_t) { return Bandwidth::mbps(50); },
      SimTime::seconds(300), {.epsilon = 0.1},
      [&](const sched::Scheduler& scheduler) { ticks.push_back(&scheduler); });
  rescheduler.start();
  sim.run(SimTime::seconds(901));  // measured ticks at t = 0 .. 900
  rescheduler.monitor().set_blackout(true);
  sim.run(SimTime::seconds(2101));  // blackout ticks at t = 1200 .. 2100
  ASSERT_EQ(ticks.size(), 8u);
  const sched::Scheduler* held = ticks[3];
  for (std::size_t k = 4; k < ticks.size(); ++k) {
    EXPECT_EQ(ticks[k], held) << "blackout tick " << k;
  }
  EXPECT_EQ(rescheduler.current(), held);

  rescheduler.monitor().set_blackout(false);
  sim.run(SimTime::seconds(2401));  // measured again at t = 2400
  ASSERT_EQ(ticks.size(), 9u);
  EXPECT_NE(ticks[8], held);
  EXPECT_EQ(rescheduler.current(), ticks[8]);
}

}  // namespace
}  // namespace lsl::nws
