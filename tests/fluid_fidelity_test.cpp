// Cross-fidelity validation: the fluid data plane must carry TCP streams
// through the same connection machinery as the packet plane -- handshakes,
// FIN teardown, resets, backpressure, and fault injection -- and its goodput
// must track packet-fidelity goodput within a committed tolerance.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "exp/raw_tcp.hpp"
#include "fixtures.hpp"
#include "flow/fluid.hpp"
#include "net/topology.hpp"
#include "tcp/stack.hpp"
#include "util/units.hpp"

namespace lsl {
namespace {

using exp::run_raw_transfer;
using exp::RawTransferResult;
using testing::TwoNodeNet;

net::LinkConfig wan_link(double mbps, int one_way_ms, double loss = 0.0) {
  net::LinkConfig link;
  link.rate = Bandwidth::mbps(mbps);
  link.propagation_delay = SimTime::milliseconds(one_way_ms);
  link.queue_capacity_bytes = 256 * kKiB;
  link.loss_rate = loss;
  return link;
}

RawTransferResult transfer(const net::LinkConfig& link, bool fluid,
                           std::uint64_t bytes, const tcp::TcpOptions& opts,
                           std::uint64_t seed = 42) {
  TwoNodeNet net{link, seed};
  if (fluid) {
    net.topo->enable_fluid();
  }
  return run_raw_transfer(net.sim, *net.stack_a, *net.stack_b, bytes, opts);
}

double relative_gap(double a, double b) {
  return std::abs(a - b) / std::max(a, b);
}

TEST(FluidFidelityTest, FluidTransferDeliversAllBytesWithEof) {
  const auto r = transfer(wan_link(10, 20), /*fluid=*/true, 4 * kMiB,
                          tcp::TcpOptions{}.with_buffers(64 * kKiB));
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.bytes_delivered, 4 * kMiB);
  EXPECT_GT(r.goodput.megabits_per_second(), 1.0);
}

TEST(FluidFidelityTest, BottleneckLimitedGoodputMatchesPacketFidelity) {
  // 10 Mbps bottleneck, 40 ms RTT, 64 KiB windows: the link is the binding
  // constraint in both fidelities.
  const auto opts = tcp::TcpOptions{}.with_buffers(64 * kKiB);
  const auto packet = transfer(wan_link(10, 20), false, 8 * kMiB, opts);
  const auto fluid = transfer(wan_link(10, 20), true, 8 * kMiB, opts);
  ASSERT_TRUE(packet.completed);
  ASSERT_TRUE(fluid.completed);
  EXPECT_LT(relative_gap(packet.goodput.bits_per_second(),
                         fluid.goodput.bits_per_second()),
            0.10)
      << "packet=" << packet.goodput.str() << " fluid=" << fluid.goodput.str();
}

TEST(FluidFidelityTest, WindowLimitedGoodputMatchesPacketFidelity) {
  // 100 Mbps link, 80 ms RTT, 64 KiB windows: throughput pinned at
  // window/RTT ~ 6.5 Mbps, far below the link rate.
  const auto opts = tcp::TcpOptions{}.with_buffers(64 * kKiB);
  const auto packet = transfer(wan_link(100, 40), false, 8 * kMiB, opts);
  const auto fluid = transfer(wan_link(100, 40), true, 8 * kMiB, opts);
  ASSERT_TRUE(packet.completed);
  ASSERT_TRUE(fluid.completed);
  EXPECT_LT(relative_gap(packet.goodput.bits_per_second(),
                         fluid.goodput.bits_per_second()),
            0.10)
      << "packet=" << packet.goodput.str() << " fluid=" << fluid.goodput.str();
}

TEST(FluidFidelityTest, LossyPathGoodputTracksPacketFidelity) {
  // 1e-3 loss puts packet mode into Mathis territory; the fluid cap uses
  // the same model, so the two should land in the same regime. Loss
  // recovery dynamics are stochastic, so the tolerance is wider here.
  const auto opts = tcp::TcpOptions{}.with_buffers(256 * kKiB);
  const auto packet = transfer(wan_link(50, 15, 1e-3), false, 8 * kMiB, opts);
  const auto fluid = transfer(wan_link(50, 15, 1e-3), true, 8 * kMiB, opts);
  ASSERT_TRUE(packet.completed);
  ASSERT_TRUE(fluid.completed);
  EXPECT_LT(relative_gap(packet.goodput.bits_per_second(),
                         fluid.goodput.bits_per_second()),
            0.40)
      << "packet=" << packet.goodput.str() << " fluid=" << fluid.goodput.str();
}

TEST(FluidFidelityTest, FluidRunsAreExactlyReproducible) {
  const auto opts = tcp::TcpOptions{}.with_buffers(64 * kKiB);
  const auto r1 = transfer(wan_link(10, 20, 1e-4), true, 4 * kMiB, opts);
  const auto r2 = transfer(wan_link(10, 20, 1e-4), true, 4 * kMiB, opts);
  ASSERT_TRUE(r1.completed);
  EXPECT_EQ(r1.elapsed.ns(), r2.elapsed.ns());
  EXPECT_EQ(r1.bytes_delivered, r2.bytes_delivered);
  EXPECT_EQ(r1.sender_stats.segments_sent, r2.sender_stats.segments_sent);
}

TEST(FluidFidelityTest, DeadLinkTimesOutHandshakeInFluidMode) {
  // Control packets still ride the real links: a dead link must surface as
  // a connect timeout exactly as at packet fidelity.
  TwoNodeNet net{wan_link(10, 5)};
  net.topo->enable_fluid();
  net.topo->link(0).set_loss_rate(1.0);
  net.topo->link(1).set_loss_rate(1.0);

  net.stack_b->listen(5001, [](tcp::Connection::Ptr) {});
  auto conn = net.stack_a->connect(net.b, 5001);
  tcp::ConnectionError err = tcp::ConnectionError::kNone;
  bool closed = false;
  conn->on_error = [&](tcp::ConnectionError e) { err = e; };
  conn->on_closed = [&] { closed = true; };
  net.sim.run(net.sim.now() + SimTime::seconds(300));
  EXPECT_TRUE(closed);
  EXPECT_EQ(err, tcp::ConnectionError::kConnectTimeout);
}

TEST(FluidFidelityTest, MidTransferLinkDownStallsAndHealResumes) {
  TwoNodeNet net{wan_link(10, 10)};
  net.topo->enable_fluid();
  const auto opts = tcp::TcpOptions{}.with_buffers(64 * kKiB);

  // Black out both directions during the transfer, then heal.
  net.sim.schedule_after(SimTime::seconds(1), [&] {
    net.topo->link(0).set_loss_rate(1.0);
    net.topo->link(1).set_loss_rate(1.0);
  });
  net.sim.schedule_after(SimTime::seconds(6), [&] {
    net.topo->link(0).set_loss_rate(0.0);
    net.topo->link(1).set_loss_rate(0.0);
  });
  const auto r =
      run_raw_transfer(net.sim, *net.stack_a, *net.stack_b, 8 * kMiB, opts);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.bytes_delivered, 8 * kMiB);
  // ~5 s of dead air must show up in the elapsed time (8 MiB at ~9.7 Mbps
  // is ~6.9 s of streaming).
  EXPECT_GT(r.elapsed, SimTime::seconds(11));
}

TEST(FluidFidelityTest, MidTransferBrownoutThrottlesFluidRate) {
  const auto opts = tcp::TcpOptions{}.with_buffers(256 * kKiB);
  const auto baseline = transfer(wan_link(50, 10), true, 16 * kMiB, opts);
  ASSERT_TRUE(baseline.completed);

  TwoNodeNet net{wan_link(50, 10)};
  net.topo->enable_fluid();
  net.sim.schedule_after(SimTime::milliseconds(500), [&] {
    net.topo->link(0).set_rate(Bandwidth::mbps(5));
  });
  const auto r =
      run_raw_transfer(net.sim, *net.stack_a, *net.stack_b, 16 * kMiB, opts);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.elapsed, baseline.elapsed * 2);
}

TEST(FluidFidelityTest, SlowReaderBackpressuresAndResumes) {
  // The receiver drains nothing for 5 s: the pump must stall on the peer's
  // buffer (zero-window equivalent) and resume via the window-update path.
  TwoNodeNet net{wan_link(50, 5)};
  net.topo->enable_fluid();
  const auto opts = tcp::TcpOptions{}.with_buffers(64 * kKiB);
  constexpr std::uint64_t kBytes = 4 * kMiB;
  constexpr net::Port kPort = 5001;

  std::uint64_t received = 0;
  bool done = false;
  bool may_read = false;
  tcp::Connection::Ptr server;
  net.stack_b->listen(kPort, [&](tcp::Connection::Ptr conn) {
    server = conn;
    conn->on_readable = [&, c = conn.get()] {
      if (may_read) {
        received += c->read(c->readable_bytes()).n;
      }
    };
    conn->on_eof = [&, c = conn.get()] {
      received += c->read(c->readable_bytes()).n;
      done = true;
    };
  }, opts);

  auto client = net.stack_a->connect(net.b, kPort, opts);
  std::uint64_t queued = 0;
  const auto pump = [&, c = client.get()] {
    while (queued < kBytes) {
      const std::uint64_t n = c->write_synthetic(kBytes - queued);
      queued += n;
      if (n == 0) {
        break;
      }
    }
    if (queued == kBytes) {
      c->close();
    }
  };
  client->on_connected = pump;
  client->on_writable = pump;

  net.sim.schedule_after(SimTime::seconds(5), [&] {
    may_read = true;
    if (server != nullptr) {
      received += server->read(server->readable_bytes()).n;
    }
  });
  net.sim.run(net.sim.now() + SimTime::seconds(120));
  EXPECT_TRUE(done);
  EXPECT_EQ(received, kBytes);
}

TEST(FluidFidelityTest, AbortTearsDownFluidFlow) {
  TwoNodeNet net{wan_link(10, 10)};
  net.topo->enable_fluid();
  const auto opts = tcp::TcpOptions{}.with_buffers(64 * kKiB);
  constexpr net::Port kPort = 5001;

  tcp::ConnectionError server_err = tcp::ConnectionError::kNone;
  net.stack_b->listen(kPort, [&](tcp::Connection::Ptr conn) {
    conn->on_readable = [c = conn.get()] { c->read(c->readable_bytes()); };
    conn->on_error = [&](tcp::ConnectionError e) { server_err = e; };
  }, opts);

  auto client = net.stack_a->connect(net.b, kPort, opts);
  client->on_connected = [c = client.get()] {
    c->write_synthetic(32 * kMiB);
  };
  net.sim.schedule_after(SimTime::seconds(2),
                         [c = client.get()] { c->abort(); });
  net.sim.run(net.sim.now() + SimTime::seconds(10));

  EXPECT_EQ(server_err, tcp::ConnectionError::kReset);
  EXPECT_EQ(net.topo->fluid()->active_flows(), 0U);
}

TEST(FluidFidelityTest, MultiHopPathMatchesPacketFidelity) {
  // a -- r -- b chain: the fluid path walk must follow forwarding tables
  // through the router, and the middle hop's store-and-forward shows up in
  // the effective RTT in both fidelities.
  const auto build = [](bool fluid) {
    auto sim = std::make_unique<sim::Simulator>();
    auto topo = std::make_unique<net::Topology>(*sim, 7);
    const auto a = topo->add_node("a", "site-a");
    const auto r = topo->add_node("r", "site-r");
    const auto b = topo->add_node("b", "site-b");
    topo->add_duplex_link(a, r, wan_link(20, 10));
    topo->add_duplex_link(r, b, wan_link(10, 15));
    topo->compute_routes();
    if (fluid) {
      topo->enable_fluid();
    }
    auto sa = std::make_unique<tcp::TcpStack>(*topo, a);
    auto sb = std::make_unique<tcp::TcpStack>(*topo, b);
    const auto opts = tcp::TcpOptions{}.with_buffers(128 * kKiB);
    auto res = run_raw_transfer(*sim, *sa, *sb, 8 * kMiB, opts);
    return res;
  };
  const auto packet = build(false);
  const auto fluid = build(true);
  ASSERT_TRUE(packet.completed);
  ASSERT_TRUE(fluid.completed);
  EXPECT_LT(relative_gap(packet.goodput.bits_per_second(),
                         fluid.goodput.bits_per_second()),
            0.10)
      << "packet=" << packet.goodput.str() << " fluid=" << fluid.goodput.str();
}

}  // namespace
}  // namespace lsl
