// Unit tests for the fluid (flow-level) engine: max-min solver edge cases,
// slow-start ramp / Mathis cap calibration against the analytic model, the
// max-min properties of the solved rates on random topologies, the splice
// invariants on random relay chains, and a session's event count against
// its payload.
#include "flow/fluid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "exp/harness.hpp"
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

// ---- splices ----------------------------------------------------------------

TEST(FluidSpliceTest, ArrivalsTrailTransmissionsByTheLatency) {
  sim::Simulator sim;
  FluidNetwork net(sim);
  const auto l = net.add_link(80 * kMbps);
  auto spec = spec_on({l});
  spec.latency = SimTime::milliseconds(30);
  const auto f = net.start_flow(spec);
  net.add_bytes(f, 10'000'000);  // 1 s at 80 Mbit/s
  SimTime arrived_at = SimTime::zero();
  net.notify_arrival(f, 5'000'000, [&] { arrived_at = sim.now(); });
  run_until(sim, SimTime::milliseconds(200));
  EXPECT_EQ(net.transmitted(f), 2'000'000u);
  EXPECT_EQ(net.arrived(f), 1'700'000u);
  net.set_link(l, 40 * kMbps, 0.0);  // half rate from 0.2 s
  run_until(sim, SimTime::seconds(3));
  // 2 MB by 0.2 s, 3 MB more at 40 Mbit/s by 0.8 s, arriving 30 ms later.
  EXPECT_NEAR(arrived_at.to_seconds(), 0.83, 1e-6);
  EXPECT_EQ(net.transmitted(f), 10'000'000u);
  EXPECT_EQ(net.arrived(f), 10'000'000u);
}

// Three depots whose buffers are all full at once: every upstream runs at
// its child's rate, and the last hop's fair share on a link it shares with
// cross traffic sets them all. When the cross flow leaves, the whole chain
// speeds up in that one solve. With equal links every hop ties the last
// one then, so each upstream waits a water-fill round for its child's rate.
TEST(FluidSpliceTest, FullBuffersPassTheLastHopsShareUpTheChain) {
  for (const std::vector<double>& mbps :
       {std::vector<double>{100, 80, 60, 40}, std::vector<double>(4, 40)}) {
    sim::Simulator sim;
    FluidNetwork net(sim);
    std::vector<FluidLinkId> links;
    std::vector<FluidFlowId> hops;
    for (const double rate : mbps) {
      links.push_back(net.add_link(rate * kMbps));
      auto spec = spec_on({links.back()}, SimTime::milliseconds(10));
      spec.latency = SimTime::milliseconds(5);
      hops.push_back(net.start_flow(spec));
      net.add_bytes(hops.back(), 64 * kMiB);
    }
    const auto cross = net.start_flow(spec_on({links.back()}));
    net.add_bytes(cross, 64 * kMiB);
    std::vector<FluidSpliceId> splices;
    for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
      splices.push_back(net.splice(hops[i], 0, 256 * kKiB));
      net.attach_child(splices.back(), hops[i + 1], 0);
    }
    run_until(sim, SimTime::seconds(1));
    for (const FluidSpliceId s : splices) {
      EXPECT_GT(net.splice_stats(s).full_time, SimTime::zero());
    }
    for (const FluidFlowId f : hops) {
      EXPECT_EQ(net.rate_bps(f), 20 * kMbps) << "first hop " << mbps[0];
    }
    net.end_flow(cross);
    for (const FluidFlowId f : hops) {
      EXPECT_EQ(net.rate_bps(f), 40 * kMbps) << "first hop " << mbps[0];
    }
  }
}

// A relay chain of 1-3 depots on random links, each hop's payload supplied
// by the previous hop's arrivals through a buffer of random capacity, with
// link brownouts mid-transfer. Checked at every millisecond: no child sends
// payload that has not arrived, and no upstream leads its slowest child by
// more than the capacity. At the end every byte has arrived, once.
TEST(FluidSpliceTest, SpliceInvariantsHoldOnRandomChains) {
  constexpr std::uint64_t kPayload = 4 * kMiB;
  constexpr double kSlack = 2.0;  // bytes: event times round to 1 ns
  int filled = 0;  // seeds in which some depot buffer filled
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    sim::Simulator sim;
    FluidNetwork net(sim);
    Rng rng(seed * 104729);
    const std::size_t depots = 1 + rng.pick_index(3);
    std::vector<FluidLinkId> links;
    std::vector<FluidFlowId> flows;
    for (std::size_t hop = 0; hop <= depots; ++hop) {
      links.push_back(net.add_link(rng.uniform(5.0, 200.0) * kMbps));
      auto spec = spec_on({links.back()},
                          SimTime::milliseconds(2 + rng.pick_index(40)),
                          rng.chance(0.5) ? 256 * kKiB : 64 * kMiB);
      spec.latency = spec.rtt / 2;
      spec.initial_cwnd_segments = rng.chance(0.5) ? 2 : 0;
      flows.push_back(net.start_flow(spec));
    }
    struct Coupling {
      FluidSpliceId splice;
      FluidFlowId up;
      FluidFlowId child;
      double capacity;
    };
    std::vector<Coupling> couplings;
    net.add_bytes(flows.front(), kPayload);
    for (std::size_t hop = 0; hop < depots; ++hop) {
      const std::uint64_t capacity = kib(64 + rng.pick_index(4096));
      const auto splice = net.splice(flows[hop], 0, capacity);
      couplings.push_back({splice, flows[hop], flows[hop + 1],
                           static_cast<double>(capacity)});
      // The child connects a little later, as a next hop's handshake does.
      const FluidFlowId child = flows[hop + 1];
      sim.schedule_at(SimTime::milliseconds(1 + rng.pick_index(100)),
                      [&net, splice, child] {
                        net.add_bytes(child, kPayload);
                        net.attach_child(splice, child, 0);
                      });
      // The relay lets go once every payload byte has arrived.
      net.notify_arrival(flows[hop], kPayload,
                         [&net, splice] { net.end_splice(splice); });
    }
    std::vector<int> arrivals(flows.size(), 0);
    for (std::size_t i = 0; i < flows.size(); ++i) {
      net.notify_arrival(flows[i], kPayload, [&arrivals, i] { ++arrivals[i]; });
    }
    for (int b = 0; b < 3; ++b) {
      const FluidLinkId l = links[rng.pick_index(links.size())];
      const double mbps = rng.uniform(1.0, 100.0);
      sim.schedule_at(SimTime::milliseconds(rng.pick_index(3000)),
                      [&net, l, mbps] { net.set_link(l, mbps * kMbps, 0.0); });
    }
    int violations = 0;
    for (int ms = 1; ms <= 600'000 && arrivals.back() == 0; ++ms) {
      run_until(sim, SimTime::milliseconds(ms));
      for (const Coupling& c : couplings) {
        if (net.active_splices() == 0) {
          break;
        }
        const auto up_sent = static_cast<double>(net.transmitted(c.up));
        const auto up_in = static_cast<double>(net.arrived(c.up));
        const auto child_sent = static_cast<double>(net.transmitted(c.child));
        if (child_sent > up_in + kSlack) {
          ++violations;
          ADD_FAILURE() << "seed " << seed << " t=" << ms
                        << "ms: child sent " << child_sent
                        << " of " << up_in << " arrived";
        }
        if (up_sent - child_sent > c.capacity + kSlack) {
          ++violations;
          ADD_FAILURE() << "seed " << seed << " t=" << ms
                        << "ms: upstream leads by " << up_sent - child_sent
                        << " > " << c.capacity;
        }
      }
      if (violations > 3) {
        break;
      }
    }
    sim.run();
    for (std::size_t i = 0; i < flows.size(); ++i) {
      EXPECT_EQ(net.arrived(flows[i]), kPayload) << "seed " << seed;
      EXPECT_EQ(arrivals[i], 1) << "seed " << seed << " flow " << i;
    }
    EXPECT_EQ(net.active_splices(), 0u) << "seed " << seed;
    filled += std::any_of(couplings.begin(), couplings.end(),
                          [&net](const Coupling& c) {
                            return net.splice_stats(c.splice).full_time >
                                   SimTime::zero();
                          });
  }
  EXPECT_GT(filled, 0);  // the backpressure coupling was exercised
}

// ---- a session's events against its payload --------------------------------

std::uint64_t session_events(std::uint64_t payload, bool via_depot) {
  exp::SimHarness h(11, exp::Fidelity::kFlow);
  const net::NodeId src = h.add_host("src");
  const net::NodeId depot = h.add_host("depot");
  const net::NodeId dst = h.add_host("dst");
  net::LinkConfig fast;
  fast.rate = Bandwidth::mbps(400);
  fast.propagation_delay = SimTime::milliseconds(12);
  net::LinkConfig slow = fast;
  slow.rate = Bandwidth::mbps(150);
  slow.propagation_delay = SimTime::milliseconds(20);
  h.add_link(src, depot, fast);
  h.add_link(depot, dst, slow);
  h.add_link(src, dst, slow);
  session::DepotConfig cfg;
  cfg.tcp = tcp::TcpOptions{}.with_buffers(4 * kMiB);
  cfg.user_buffer_bytes = 8 * kMiB;
  h.deploy(cfg);
  session::TransferSpec spec;
  spec.dst = dst;
  if (via_depot) {
    spec.via = {depot};
  }
  spec.payload_bytes = payload;
  spec.tcp = cfg.tcp;
  const auto outcome = h.run_transfer(src, spec, SimTime::seconds(3600));
  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(outcome.bytes, payload);
  return h.simulator().events_executed();
}

TEST(FluidSessionTest, EventsDoNotGrowWithPayload) {
  // Every event is a rate change (the ramp), a level boundary (the depot
  // buffer filling, the next hop catching up, the last byte leaving or
  // arriving) or a control packet, none of which scales with the bytes.
  for (const bool via_depot : {false, true}) {
    const std::uint64_t at_64mib = session_events(64 * kMiB, via_depot);
    EXPECT_EQ(session_events(1024 * kMiB, via_depot), at_64mib)
        << (via_depot ? "one depot" : "direct");
    EXPECT_LT(at_64mib, 200u);
  }
}

}  // namespace
}  // namespace lsl::flow
