// Cross-validation of the flow-level sweep against packet-level execution:
// pick scheduled cases from the PlanetLab pool, materialize the involved
// hosts as a real packet topology, run the scheduled-vs-direct comparison
// both ways, and require agreement in direction and rough magnitude.
#include <gtest/gtest.h>

#include "flow/path_model.hpp"
#include "nws/monitor.hpp"
#include "sched/scheduler.hpp"
#include "testbed/materialize.hpp"

namespace lsl::testbed {
namespace {

using namespace lsl::time_literals;

TEST(MaterializeTest, TopologyMirrorsGridParameters) {
  const auto grid = SyntheticGrid::planetlab(PlanetLabConfig{}, 2004);
  const std::vector<std::size_t> hosts{0, 10, 20};
  auto m = materialize_hosts(grid, hosts, 5);
  ASSERT_EQ(m.nodes.size(), 3u);
  auto& topo = m.harness->topology();
  EXPECT_EQ(topo.node(m.nodes[0]).name(), grid.host(0).name);
  net::Link* link = topo.link_between(m.nodes[0], m.nodes[1]);
  ASSERT_NE(link, nullptr);
  // Integer halving may lose one nanosecond of an odd RTT.
  EXPECT_LE((grid.rtt(0, 10) - link->config().propagation_delay * 2).ns(), 1);
  EXPECT_DOUBLE_EQ(link->config().loss_rate, grid.loss(0, 10));
}

TEST(MaterializeTest, PacketTransferCompletesOnMaterializedPair) {
  const auto grid = SyntheticGrid::planetlab(PlanetLabConfig{}, 2004);
  const std::vector<std::size_t> hosts{3, 33};
  auto m = materialize_hosts(grid, hosts, 6);
  session::TransferSpec spec;
  spec.dst = m.nodes[1];
  spec.payload_bytes = mib(1);
  spec.tcp =
      tcp::TcpOptions{}.with_buffers(grid.host(3).tcp_buffer);
  const auto r = m.harness->run_transfer(m.nodes[0], spec, 600_s);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.bytes, mib(1));
}

TEST(MaterializeTest, ParamAdaptersShareOneSourceOfTruth) {
  // Regression for fidelity drift: the analytic model's parameters must be
  // a pure projection of the same PairRealization the simulators
  // materialize.
  const auto grid = SyntheticGrid::planetlab(PlanetLabConfig{}, 2004);
  const std::uint64_t size = mib(4);
  Rng trial(99);
  std::vector<PairRealization> realized{
      grid.realize_direct(2, 31, size, trial)};
  const auto hops = grid.realize_relay_hops({2, 10, 31}, size, trial);
  realized.insert(realized.end(), hops.begin(), hops.end());
  for (const PairRealization& real : realized) {
    const flow::ConnectionParams params = real.connection_params();
    EXPECT_EQ(params.rtt, real.rtt);
    EXPECT_DOUBLE_EQ(params.loss_rate, real.loss_rate);
    EXPECT_DOUBLE_EQ(params.bottleneck.bits_per_second(),
                     real.bottleneck.bits_per_second());
    EXPECT_EQ(params.window_bytes, real.window_bytes);
  }
}

TEST(MaterializeTest, MaterializedPathMirrorsRealizations) {
  // The simulated topology must carry exactly the realized hop parameters:
  // link rate = bottleneck, one-way delay = rtt/2, loss carried over, and
  // the per-host TCP buffers bound the window at the realized value.
  const auto grid = SyntheticGrid::planetlab(PlanetLabConfig{}, 2004);
  const std::vector<std::size_t> path{4, 12, 40};
  Rng trial(11);
  const auto hops = grid.realize_relay_hops(path, mib(4), trial);
  ASSERT_EQ(hops.size(), 2u);

  for (const auto fidelity : {exp::Fidelity::kPacket, exp::Fidelity::kFlow}) {
    auto m = materialize_path(grid, path, hops, 13, fidelity);
    ASSERT_EQ(m.nodes.size(), 3u);
    auto& topo = m.harness->topology();
    EXPECT_EQ((topo.fluid() != nullptr), fidelity == exp::Fidelity::kFlow);
    for (std::size_t i = 0; i < hops.size(); ++i) {
      net::Link* link = topo.link_between(m.nodes[i], m.nodes[i + 1]);
      ASSERT_NE(link, nullptr);
      EXPECT_DOUBLE_EQ(link->config().rate.bits_per_second(),
                       hops[i].bottleneck.bits_per_second());
      EXPECT_EQ(link->config().propagation_delay, hops[i].rtt / 2);
      EXPECT_DOUBLE_EQ(link->config().loss_rate, hops[i].loss_rate);
    }
  }
}

TEST(MaterializeTest, FluidPathTransferTracksRealizedBottleneck) {
  const auto grid = SyntheticGrid::planetlab(PlanetLabConfig{}, 2004);
  const std::vector<std::size_t> path{4, 12, 40};
  Rng trial(11);
  const auto hops = grid.realize_relay_hops(path, mib(4), trial);
  auto m = materialize_path(grid, path, hops, 13, exp::Fidelity::kFlow);

  session::TransferSpec spec;
  spec.dst = m.nodes.back();
  spec.via.push_back(m.nodes[1]);
  spec.payload_bytes = mib(4);
  spec.tcp = tcp::TcpOptions{}.with_buffers(grid.host(4).tcp_buffer);
  const auto r = m.harness->run_transfer(m.nodes.front(), spec, 3600_s);
  ASSERT_TRUE(r.completed);
  const double floor_bps = std::min(hops[0].bottleneck.bits_per_second(),
                                    hops[1].bottleneck.bits_per_second());
  // Goodput can beat the end-to-end floor (the depot pipelines the legs)
  // but cannot exceed the faster leg.
  EXPECT_LE(r.goodput.bits_per_second(),
            std::max(hops[0].bottleneck.bits_per_second(),
                     hops[1].bottleneck.bits_per_second()) *
                1.05);
  EXPECT_GT(r.goodput.bits_per_second(), 0.05 * floor_bps);
}

TEST(MaterializeTest, FlowModelAgreesWithPacketExecutionOnScheduledCases) {
  // End-to-end: measure, schedule, pick depot-routed cases, then execute
  // each on the packet simulator and compare against the flow model's
  // no-noise prediction.
  const auto grid = SyntheticGrid::planetlab(PlanetLabConfig{}, 2004);
  nws::PerformanceMonitor monitor(grid.sites(), nws::NoiseModel{}, 7);
  const std::vector<double> truth = monitor.truth_table(grid.truth());
  for (int epoch = 0; epoch < 20; ++epoch) {
    monitor.observe_epoch(truth, /*jobs=*/1);
  }
  const sched::Scheduler scheduler(monitor.build_matrix(),
                                   {.epsilon = grid.noise().sweep_epsilon});

  // First few single-depot scheduled cases across distinct sites.
  struct Case {
    std::size_t src;
    std::size_t dst;
    std::vector<std::size_t> path;
  };
  std::vector<Case> cases;
  for (std::size_t src = 0; src < grid.size() && cases.size() < 3; src += 7) {
    for (std::size_t dst = 1; dst < grid.size() && cases.size() < 3;
         dst += 11) {
      if (src == dst || grid.host(src).site == grid.host(dst).site) {
        continue;
      }
      const auto decision = scheduler.route(src, dst);
      if (decision.uses_depots() && decision.path.size() == 3) {
        cases.push_back(Case{src, dst, decision.path});
      }
    }
  }
  ASSERT_GE(cases.size(), 2u);

  const std::uint64_t size = mib(4);
  for (const auto& c : cases) {
    // Packet-level execution.
    auto m = materialize_hosts(grid, c.path, 9);
    const auto opts = tcp::TcpOptions{}.with_buffers(
        grid.host(c.src).tcp_buffer);
    session::TransferSpec direct;
    direct.dst = m.nodes.back();
    direct.payload_bytes = size;
    direct.tcp = opts;
    const auto r_direct = m.harness->run_transfer(m.nodes.front(), direct,
                                                  3600_s);
    session::TransferSpec relayed = direct;
    for (std::size_t i = 1; i + 1 < m.nodes.size(); ++i) {
      relayed.via.push_back(m.nodes[i]);
    }
    const auto r_relayed =
        m.harness->run_transfer(m.nodes.front(), relayed, 3600_s);
    ASSERT_TRUE(r_direct.completed);
    ASSERT_TRUE(r_relayed.completed);

    // Flow-model prediction with noise disabled (fixed Rng consumed inside
    // still samples load; use a fixed trial stream for determinism).
    Rng trial(42);
    const auto realized = grid.realize_direct(c.src, c.dst, size, trial);
    const SimTime t_direct =
        flow::transfer_time(realized.connection_params(), size);
    std::vector<flow::ConnectionParams> hops;
    for (const auto& hop : grid.realize_relay_hops(c.path, size, trial)) {
      hops.push_back(hop.connection_params());
    }
    const SimTime t_relay = flow::relay_transfer_time({hops}, size);

    const double packet_speedup = r_relayed.goodput.bits_per_second() /
                                  r_direct.goodput.bits_per_second();
    const double model_speedup =
        t_direct.to_seconds() / t_relay.to_seconds();
    // Loose but meaningful: same direction-of-effect within a factor.
    EXPECT_GT(packet_speedup, 0.4 * model_speedup)
        << "case " << c.src << "->" << c.dst;
    EXPECT_LT(packet_speedup, 2.5 * model_speedup)
        << "case " << c.src << "->" << c.dst;
  }
}

}  // namespace
}  // namespace lsl::testbed
