// Unit tests for the fluid (flow-level) engine: max-min solver edge cases,
// slow-start ramp / Mathis cap calibration against the analytic model, and
// the max-min properties of the solved rates on random topologies.
#include "flow/fluid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "flow/tcp_model.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace lsl::flow {
namespace {

constexpr double kMbps = 1e6;

FluidFlowSpec spec_on(std::vector<FluidLinkId> path,
                      SimTime rtt = SimTime::milliseconds(50),
                      std::uint64_t window = 64 * kMiB) {
  FluidFlowSpec spec;
  spec.path = std::move(path);
  spec.rtt = rtt;
  spec.window_bytes = window;          // huge by default: link-limited tests
  spec.initial_cwnd_segments = 0;      // no ramp unless a test asks for it
  return spec;
}

/// Advance the simulator's clock to `at` even when no event lands there.
void run_until(sim::Simulator& sim, SimTime at) {
  sim.schedule_at(at, [] {});
  sim.run(at);
}

TEST(FluidSolverTest, SingleFlowTakesBottleneckCapacity) {
  sim::Simulator sim;
  FluidNetwork net(sim);
  const auto l = net.add_link(100 * kMbps);
  const auto f = net.start_flow(spec_on({l}));
  EXPECT_DOUBLE_EQ(net.rate_bps(f), 0.0);  // idle until bytes are offered

  const std::uint64_t bytes = 10 * kMiB;
  net.add_bytes(f, bytes);
  EXPECT_DOUBLE_EQ(net.rate_bps(f), 100 * kMbps);

  SimTime done = SimTime::zero();
  net.notify_at(f, bytes, [&] { done = sim.now(); });
  sim.run();
  const double expect_s = static_cast<double>(bytes) * 8.0 / (100 * kMbps);
  EXPECT_NEAR(done.to_seconds(), expect_s, 1e-6);
  EXPECT_DOUBLE_EQ(net.rate_bps(f), 0.0);  // drained flows release share
}

TEST(FluidSolverTest, BottleneckChainTakesMinimumLink) {
  sim::Simulator sim;
  FluidNetwork net(sim);
  const auto a = net.add_link(100 * kMbps);
  const auto b = net.add_link(10 * kMbps);
  const auto c = net.add_link(50 * kMbps);
  const auto f = net.start_flow(spec_on({a, b, c}));
  net.add_bytes(f, kMiB);
  EXPECT_DOUBLE_EQ(net.rate_bps(f), 10 * kMbps);
}

TEST(FluidSolverTest, SharedLinkFairnessAcrossThreeFlows) {
  sim::Simulator sim;
  FluidNetwork net(sim);
  const auto l = net.add_link(90 * kMbps);
  const auto f1 = net.start_flow(spec_on({l}));
  const auto f2 = net.start_flow(spec_on({l}));
  const auto f3 = net.start_flow(spec_on({l}));
  net.add_bytes(f1, kMiB);
  EXPECT_DOUBLE_EQ(net.rate_bps(f1), 90 * kMbps);
  net.add_bytes(f2, kMiB);
  EXPECT_DOUBLE_EQ(net.rate_bps(f1), 45 * kMbps);
  net.add_bytes(f3, kMiB);
  EXPECT_NEAR(net.rate_bps(f1), 30 * kMbps, 1.0);
  EXPECT_NEAR(net.rate_bps(f2), 30 * kMbps, 1.0);
  EXPECT_NEAR(net.rate_bps(f3), 30 * kMbps, 1.0);
}

TEST(FluidSolverTest, CapLimitedFlowReleasesExcessToPeers) {
  sim::Simulator sim;
  FluidNetwork net(sim);
  const auto l = net.add_link(100 * kMbps);
  // 10 Mbit/s window cap: 62500 bytes over 50 ms.
  const auto capped = net.start_flow(spec_on({l}, SimTime::milliseconds(50),
                                             62500));
  const auto f2 = net.start_flow(spec_on({l}));
  const auto f3 = net.start_flow(spec_on({l}));
  net.add_bytes(capped, kMiB);
  net.add_bytes(f2, kMiB);
  net.add_bytes(f3, kMiB);
  EXPECT_NEAR(net.rate_bps(capped), 10 * kMbps, 1.0);
  EXPECT_NEAR(net.rate_bps(f2), 45 * kMbps, 1.0);
  EXPECT_NEAR(net.rate_bps(f3), 45 * kMbps, 1.0);
}

TEST(FluidSolverTest, PartialOverlapWaterFilling) {
  // A spans (x, y), B spans (y, z), C spans (z): classic chain. All links
  // 100 Mbit/s: the max-min allocation is 50/50/50.
  sim::Simulator sim;
  FluidNetwork net(sim);
  const auto x = net.add_link(100 * kMbps);
  const auto y = net.add_link(100 * kMbps);
  const auto z = net.add_link(100 * kMbps);
  const auto fa = net.start_flow(spec_on({x, y}));
  const auto fb = net.start_flow(spec_on({y, z}));
  const auto fc = net.start_flow(spec_on({z}));
  net.add_bytes(fa, kMiB);
  net.add_bytes(fb, kMiB);
  net.add_bytes(fc, kMiB);
  EXPECT_NEAR(net.rate_bps(fa), 50 * kMbps, 1.0);
  EXPECT_NEAR(net.rate_bps(fb), 50 * kMbps, 1.0);
  EXPECT_NEAR(net.rate_bps(fc), 50 * kMbps, 1.0);
}

TEST(FluidSolverTest, DepartureReleasesShareToResidualFlows) {
  sim::Simulator sim;
  FluidNetwork net(sim);
  const auto l = net.add_link(80 * kMbps);
  const auto f1 = net.start_flow(spec_on({l}));
  const auto f2 = net.start_flow(spec_on({l}));
  net.add_bytes(f1, 64 * kMiB);
  net.add_bytes(f2, 64 * kMiB);
  EXPECT_NEAR(net.rate_bps(f1), 40 * kMbps, 1.0);
  net.end_flow(f2);
  EXPECT_NEAR(net.rate_bps(f1), 80 * kMbps, 1.0);
  EXPECT_DOUBLE_EQ(net.rate_bps(f2), 0.0);  // stale id reads as dead
  EXPECT_FALSE(net.alive(f2));
  // A later flow gets a new id, and the stale one stays dead: ending it
  // again leaves the live flows alone.
  const auto f3 = net.start_flow(spec_on({l}));
  net.add_bytes(f3, 64 * kMiB);
  EXPECT_NE(f3, f2);
  EXPECT_FALSE(net.alive(f2));
  EXPECT_DOUBLE_EQ(net.rate_bps(f2), 0.0);
  net.end_flow(f2);
  EXPECT_NEAR(net.rate_bps(f1), 40 * kMbps, 1.0);
  EXPECT_NEAR(net.rate_bps(f3), 40 * kMbps, 1.0);
  EXPECT_EQ(net.active_flows(), 2u);
}

TEST(FluidSolverTest, CompletionReleasesShareMidSim) {
  // A short flow drains and its share must flow back to the long one, which
  // then finishes earlier than a static split would predict.
  sim::Simulator sim;
  FluidNetwork net(sim);
  const auto l = net.add_link(100 * kMbps);
  const auto short_f = net.start_flow(spec_on({l}));
  const auto long_f = net.start_flow(spec_on({l}));
  const std::uint64_t short_bytes = 625'000;    // 0.1 s at half rate
  const std::uint64_t long_bytes = 2 * 625'000;
  net.add_bytes(short_f, short_bytes);
  net.add_bytes(long_f, long_bytes);
  SimTime short_done;
  SimTime long_done;
  net.notify_at(short_f, short_bytes, [&] { short_done = sim.now(); });
  net.notify_at(long_f, long_bytes, [&] { long_done = sim.now(); });
  sim.run();
  // Short: 625 KB at 50 Mbit/s = 0.1 s. Long: 0.1 s at 50 (625 KB done)
  // plus remaining 625 KB at the full 100 Mbit/s = 0.05 s.
  EXPECT_NEAR(short_done.to_seconds(), 0.1, 1e-6);
  EXPECT_NEAR(long_done.to_seconds(), 0.15, 1e-6);
  EXPECT_EQ(net.active_flows(), 0u);  // both drained at their last marker
}

TEST(FluidSolverTest, MarkerAlreadyPassedKeepsProgress) {
  // A marker registered behind the flow fires at once and loses no bytes.
  sim::Simulator sim;
  FluidNetwork net(sim);
  const auto l = net.add_link(100 * kMbps);
  const auto f = net.start_flow(spec_on({l}));
  net.add_bytes(f, 10 * kMiB);
  run_until(sim, SimTime::milliseconds(400));
  EXPECT_EQ(net.transmitted(f), 5'000'000u);
  SimTime fired = SimTime::zero();
  net.notify_at(f, kMiB, [&] { fired = sim.now(); });
  run_until(sim, SimTime::milliseconds(600));
  EXPECT_EQ(fired, SimTime::milliseconds(400));
  EXPECT_EQ(net.transmitted(f), 7'500'000u);
}

TEST(FluidSolverTest, ZeroCapacityLinkStallsAndHealedLinkResumes) {
  sim::Simulator sim;
  FluidNetwork net(sim);
  const auto l = net.add_link(100 * kMbps, /*loss_rate=*/1.0);  // link down
  const auto f = net.start_flow(spec_on({l}));
  const std::uint64_t bytes = kMiB;
  net.add_bytes(f, bytes);
  EXPECT_DOUBLE_EQ(net.rate_bps(f), 0.0);
  SimTime done = SimTime::zero();
  net.notify_at(f, bytes, [&] { done = sim.now(); });
  run_until(sim, SimTime::seconds(5));
  EXPECT_EQ(done, SimTime::zero());  // stalled: no progress at all
  EXPECT_EQ(net.transmitted(f), 0u);
  net.set_link(l, 100 * kMbps, 0.0);  // heal
  EXPECT_DOUBLE_EQ(net.rate_bps(f), 100 * kMbps);
  sim.run();
  EXPECT_NEAR(done.to_seconds(), 5.0 + kMiB * 8.0 / (100 * kMbps), 1e-6);
}

TEST(FluidSolverTest, BrownoutReducesCapacityAndResolves) {
  sim::Simulator sim;
  FluidNetwork net(sim);
  const auto l = net.add_link(100 * kMbps);
  const auto f1 = net.start_flow(spec_on({l}));
  const auto f2 = net.start_flow(spec_on({l}));
  net.add_bytes(f1, 64 * kMiB);
  net.add_bytes(f2, 64 * kMiB);
  EXPECT_NEAR(net.rate_bps(f1), 50 * kMbps, 1.0);
  net.set_link(l, 10 * kMbps, 0.0);  // rate_factor 0.1 brownout
  EXPECT_NEAR(net.rate_bps(f1), 5 * kMbps, 1.0);
  EXPECT_NEAR(net.rate_bps(f2), 5 * kMbps, 1.0);
}

TEST(FluidSolverTest, MathisCapMatchesAnalyticModel) {
  sim::Simulator sim;
  FluidNetwork net(sim);
  const auto l = net.add_link(100 * kMbps, /*loss_rate=*/0.01);
  auto spec = spec_on({l}, SimTime::milliseconds(50));
  const auto f = net.start_flow(spec);
  net.add_bytes(f, kMiB);

  ConnectionParams params;
  params.rtt = spec.rtt;
  params.bottleneck = Bandwidth::gbps(1000);
  params.window_bytes = spec.window_bytes;
  params.loss_rate = 0.01;
  const double mathis = steady_rate(params).bits_per_second();
  ASSERT_LT(mathis, 99 * kMbps);  // the loss cap binds, not the link
  EXPECT_NEAR(net.rate_bps(f), mathis, 1.0);
  EXPECT_NEAR(net.cap_bps(f), mathis, 1.0);
}

TEST(FluidSolverTest, SlowStartRampMatchesAnalyticDataTime) {
  // A window-ramped fluid flow transmits cwnd bytes per RTT round exactly
  // like the analytic model, so sender-side completion must agree with
  // data_time minus the model's half-RTT delivery tail.
  sim::Simulator sim;
  FluidNetwork net(sim);
  const auto l = net.add_link(1000 * kMbps);
  FluidFlowSpec spec;
  spec.path = {l};
  spec.rtt = SimTime::milliseconds(100);
  spec.window_bytes = 512 * kKiB;
  spec.initial_cwnd_segments = 2;
  const auto f = net.start_flow(spec);
  const std::uint64_t bytes = 4 * kMiB;
  net.add_bytes(f, bytes);
  SimTime done;
  net.notify_at(f, bytes, [&] { done = sim.now(); });
  sim.run();

  ConnectionParams params;
  params.rtt = spec.rtt;
  params.bottleneck = Bandwidth::mbps(1000);
  params.window_bytes = spec.window_bytes;
  const double model_s =
      data_time(params, bytes).to_seconds() - spec.rtt.to_seconds() / 2.0;
  EXPECT_NEAR(done.to_seconds(), model_s, 1.5 * spec.rtt.to_seconds());
}

TEST(FluidSolverTest, IdleFlowConsumesNoShare) {
  sim::Simulator sim;
  FluidNetwork net(sim);
  const auto l = net.add_link(100 * kMbps);
  const auto busy = net.start_flow(spec_on({l}));
  const auto idle = net.start_flow(spec_on({l}));
  net.add_bytes(busy, 64 * kMiB);
  EXPECT_DOUBLE_EQ(net.rate_bps(busy), 100 * kMbps);
  EXPECT_DOUBLE_EQ(net.rate_bps(idle), 0.0);
  net.add_bytes(idle, kMiB);
  EXPECT_NEAR(net.rate_bps(busy), 50 * kMbps, 1.0);
}

TEST(FluidSolverTest, MaxMinPropertiesHoldOnRandomTopologies) {
  constexpr int kLinks = 24;
  constexpr double kTol = 1e-6;  // relative; the solver's own ties are 1e-9
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    sim::Simulator sim;
    FluidNetwork net(sim);
    Rng rng(seed * 7919);
    std::vector<double> loss;  // per link id, as last set
    for (int i = 0; i < kLinks; ++i) {
      const double capacity = rng.uniform(1.0, 200.0) * kMbps;
      const double link_loss = rng.chance(0.2) ? rng.uniform(0.0, 0.02) : 0.0;
      net.add_link(capacity, link_loss);
      loss.push_back(link_loss);
    }
    std::vector<FluidFlowId> flows;
    std::map<FluidFlowId, std::vector<FluidLinkId>> path_of;
    std::set<FluidFlowId> drained;
    SimTime clock = SimTime::zero();
    for (int op = 0; op < 200; ++op) {
      const double roll = rng.next_double();
      if (roll < 0.45 || flows.empty()) {
        // Arrive: random loop-free path of 1..4 links.
        std::vector<FluidLinkId> path;
        const std::size_t hops = 1 + rng.pick_index(4);
        while (path.size() < hops) {
          const auto l = static_cast<FluidLinkId>(rng.pick_index(kLinks));
          if (std::find(path.begin(), path.end(), l) == path.end()) {
            path.push_back(l);
          }
        }
        auto spec = spec_on(path, SimTime::milliseconds(20),
                            rng.chance(0.5) ? 64 * kKiB : 64 * kMiB);
        const auto f = net.start_flow(spec);
        const std::uint64_t bytes = mib(1 + rng.pick_index(64));
        net.add_bytes(f, bytes);
        net.notify_at(f, bytes, [&drained, f] { drained.insert(f); });
        flows.push_back(f);
        path_of[f] = std::move(path);
      } else if (roll < 0.65) {
        // Depart.
        const std::size_t i = rng.pick_index(flows.size());
        net.end_flow(flows[i]);
        flows[i] = flows.back();
        flows.pop_back();
      } else if (roll < 0.85) {
        // Fault / heal a link.
        const auto l = static_cast<FluidLinkId>(rng.pick_index(kLinks));
        if (rng.chance(0.3)) {
          net.set_link(l, net.link_capacity_bps(l), 1.0);  // down
          loss[l] = 1.0;
        } else {
          const double capacity = rng.uniform(1.0, 200.0) * kMbps;
          const double link_loss = rng.uniform(0.0, 0.05);
          net.set_link(l, capacity, link_loss);
          loss[l] = link_loss;
        }
      } else {
        // Let time pass so markers fire and flows drain.
        clock += SimTime::milliseconds(1 + rng.pick_index(40));
        run_until(sim, clock);
      }

      std::vector<double> effective(kLinks);
      std::vector<double> load(kLinks, 0.0);
      std::vector<double> fastest(kLinks, 0.0);
      for (FluidLinkId l = 0; l < kLinks; ++l) {
        effective[l] = net.link_capacity_bps(l) * (1.0 - loss[l]);
      }
      for (const auto f : flows) {
        for (const auto l : path_of[f]) {
          load[l] += net.rate_bps(f);
          fastest[l] = std::max(fastest[l], net.rate_bps(f));
        }
      }
      // No link carries more than its effective capacity.
      for (FluidLinkId l = 0; l < kLinks; ++l) {
        EXPECT_LE(load[l], effective[l] * (1.0 + kTol) + kTol)
            << "seed " << seed << " op " << op << " link " << l;
      }
      // Every flow with backlog runs at its demand cap, or crosses a
      // saturated link on which no flow runs faster; drained flows hold
      // no share.
      for (const auto f : flows) {
        const double rate = net.rate_bps(f);
        if (drained.count(f) != 0) {
          EXPECT_EQ(rate, 0.0) << "seed " << seed << " op " << op;
          continue;
        }
        const double cap = net.cap_bps(f);
        EXPECT_LE(rate, cap * (1.0 + kTol)) << "seed " << seed << " op " << op;
        const bool at_cap = rate >= cap * (1.0 - kTol);
        const auto& path = path_of[f];
        const bool bottlenecked =
            std::any_of(path.begin(), path.end(), [&](FluidLinkId l) {
              return load[l] >= effective[l] * (1.0 - kTol) - kTol &&
                     rate >= fastest[l] * (1.0 - kTol);
            });
        EXPECT_TRUE(at_cap || bottlenecked)
            << "seed " << seed << " op " << op << " flow " << f;
      }
    }
  }
}

TEST(FluidSolverTest, DeterministicAcrossIdenticalRuns) {
  auto run = [](std::vector<double>* rates_out) {
    sim::Simulator sim;
    FluidNetwork net(sim);
    const auto a = net.add_link(100 * kMbps);
    const auto b = net.add_link(30 * kMbps, 0.001);
    std::vector<FluidFlowId> flows;
    for (int i = 0; i < 6; ++i) {
      const auto f = net.start_flow(
          spec_on(i % 2 == 0 ? std::vector<FluidLinkId>{a, b}
                             : std::vector<FluidLinkId>{b}));
      net.add_bytes(f, mib(4 + i));
      flows.push_back(f);
    }
    run_until(sim, SimTime::milliseconds(700));
    for (const auto f : flows) {
      rates_out->push_back(net.rate_bps(f));
    }
  };
  std::vector<double> first;
  std::vector<double> second;
  run(&first);
  run(&second);
  EXPECT_EQ(first, second);  // bitwise: no randomness anywhere in the engine
}

}  // namespace
}  // namespace lsl::flow
