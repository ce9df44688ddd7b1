// Cross-fidelity validation: the fluid data plane must carry TCP streams
// through the same connection machinery as the packet plane -- handshakes,
// FIN teardown, resets, backpressure, and fault injection -- and its goodput
// must track packet-fidelity goodput within a committed tolerance.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "exp/harness.hpp"
#include "exp/raw_tcp.hpp"
#include "fixtures.hpp"
#include "flow/fluid.hpp"
#include "lsl/endpoint.hpp"
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
  EXPECT_EQ(net.topo->fluid()->active_splices(), 0U);
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

// One-depot LSL sessions on loss-free links: at flow fidelity the depot
// splices the next hop's flow to the upstream's, and the goodput must stay
// within the 10% MultiHopPathMatchesPacketFidelity allows. The windows
// (256 KiB) fit the 20 Mbit/s hop's pipe plus its queue, so packet TCP sees
// no loss either.
double relay_goodput_mbps(exp::Fidelity fidelity, double up_mbps,
                          double down_mbps, std::uint64_t user_buffer) {
  exp::SimHarness h(23, fidelity);
  const net::NodeId src = h.add_host("src");
  const net::NodeId depot = h.add_host("depot");
  const net::NodeId dst = h.add_host("dst");
  h.add_link(src, depot, wan_link(up_mbps, 10));
  h.add_link(depot, dst, wan_link(down_mbps, 10));
  session::DepotConfig cfg;
  cfg.tcp = tcp::TcpOptions{}.with_buffers(256 * kKiB);
  cfg.user_buffer_bytes = user_buffer;
  h.deploy(cfg);
  session::TransferSpec spec;
  spec.dst = dst;
  spec.via = {depot};
  spec.payload_bytes = 16 * kMiB;
  spec.tcp = cfg.tcp;
  const auto outcome = h.run_transfer(src, spec);
  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(h.open_connection_count(), 0u);
  return outcome.goodput.megabits_per_second();
}

TEST(FluidFidelityTest, RelayWithFullDepotBufferMatchesPacketFidelity) {
  // A fast upstream (window-limited near 50 Mbit/s) into a 20 Mbit/s next
  // hop: the 1 MiB user buffer fills and backpressure paces the upstream.
  const double packet =
      relay_goodput_mbps(exp::Fidelity::kPacket, 100, 20, kMiB);
  const double flow = relay_goodput_mbps(exp::Fidelity::kFlow, 100, 20, kMiB);
  EXPECT_LT(relative_gap(packet, flow), 0.10)
      << "packet=" << packet << " flow=" << flow;
}

TEST(FluidFidelityTest, SupplyLimitedRelayMatchesPacketFidelity) {
  // A 20 Mbit/s upstream into a faster next hop: the next hop sends each
  // byte as it arrives.
  const double packet =
      relay_goodput_mbps(exp::Fidelity::kPacket, 20, 100, 16 * kMiB);
  const double flow =
      relay_goodput_mbps(exp::Fidelity::kFlow, 20, 100, 16 * kMiB);
  EXPECT_LT(relative_gap(packet, flow), 0.10)
      << "packet=" << packet << " flow=" << flow;
}

// The next hop resets its half-open connection while its SYN-ACK is in
// flight, so the relay's child connects to a peer that is gone and no fluid
// channel opens. The splice must credit nothing as relayed; the reset that
// follows ends the session.
TEST(FluidFidelityTest, SpliceToAVanishedNextHopRelaysNothing) {
  exp::SimHarness h(29, exp::Fidelity::kFlow);
  const net::NodeId src = h.add_host("src");
  const net::NodeId depot = h.add_host("depot");
  const net::NodeId dst = h.add_host("dst");
  h.add_link(src, depot, wan_link(50, 10));
  h.add_link(depot, dst, wan_link(50, 10));
  session::DepotConfig cfg;
  cfg.tcp = tcp::TcpOptions{}.with_buffers(256 * kKiB);
  h.deploy(cfg);
  int resets = 0;
  h.depot(depot).on_downstream_open = [&h, &resets, depot, dst](
                                          tcp::Connection& child,
                                          const session::SessionHeader&) {
    // The SYN reaches dst after 10 ms and its SYN-ACK is back after 20.
    const tcp::ConnKey key{depot, child.remote_port(), child.local_port()};
    h.simulator().schedule_after(
        SimTime::milliseconds(15), [&h, &resets, dst, key] {
          if (const auto peer = h.stack(dst).find_connection(key)) {
            peer->abort();
            ++resets;
          }
        });
  };
  session::TransferSpec spec;
  spec.dst = dst;
  spec.via = {depot};
  spec.payload_bytes = 4 * kMiB;
  spec.tcp = cfg.tcp;
  const auto outcome = h.run_transfer(src, spec, SimTime::seconds(60));
  EXPECT_GT(resets, 0);
  EXPECT_FALSE(outcome.completed);
  EXPECT_EQ(h.depot(depot).stats().bytes_relayed, 0u);
  EXPECT_EQ(h.depot(dst).stats().bytes_delivered, 0u);
}

// The session kinds beyond plain unicast, at flow fidelity: a multicast
// tree (its fan-out depot pumps over stepped sockets), relayed stripes
// (each stripe spliced on its own), and an async session stored at the
// last depot and fetched (the fetch answer is one write_stream).
TEST(FluidFidelityTest, SessionKindsCompleteAtFlowFidelity) {
  exp::SimHarness h(31, exp::Fidelity::kFlow);
  const net::NodeId src = h.add_host("src");
  const net::NodeId root = h.add_host("root");
  const net::NodeId l1 = h.add_host("l1");
  const net::NodeId l2 = h.add_host("l2");
  h.add_link(src, root, wan_link(100, 5));
  h.add_link(root, l1, wan_link(40, 5));
  h.add_link(root, l2, wan_link(60, 8));
  session::DepotConfig cfg;
  cfg.tcp = tcp::TcpOptions{}.with_buffers(kMiB);
  cfg.user_buffer_bytes = 2 * kMiB;  // smaller than every payload below
  h.deploy(cfg);
  session::TransferSpec tree;
  tree.dst = root;
  tree.multicast = session::MulticastTree{};
  tree.multicast->entries = {{root, 0}, {l1, 0}, {l2, 0}};
  tree.payload_bytes = 8 * kMiB;
  tree.tcp = cfg.tcp;
  session::LslSource::start(h.stack(src), tree, h.rng());
  h.simulator().run(h.simulator().now() + SimTime::seconds(60));
  for (const net::NodeId leaf : {l1, l2}) {
    EXPECT_EQ(h.depot(leaf).stats().sessions_delivered, 1u);
    EXPECT_EQ(h.depot(leaf).stats().bytes_delivered, 8 * kMiB);
  }

  session::TransferSpec striped;
  striped.dst = l1;
  striped.via = {root};
  striped.streams = 3;
  striped.payload_bytes = 10 * kMiB + 7;
  striped.tcp = cfg.tcp;
  const auto outcome = h.run_transfer(
      src, striped, h.simulator().now() + SimTime::seconds(60));
  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(outcome.bytes, 10 * kMiB + 7);

  session::TransferSpec parked;
  parked.dst = l2;
  parked.via = {root};
  parked.async_session = true;
  parked.payload_bytes = 6 * kMiB;
  parked.tcp = cfg.tcp;
  const auto source = session::LslSource::start(h.stack(src), parked, h.rng());
  h.simulator().run(h.simulator().now() + SimTime::seconds(60));
  ASSERT_EQ(h.depot(root).stored_bytes(source->session_id()), 6 * kMiB);
  std::uint64_t fetched = 0;
  auto fetcher = session::AsyncFetcher::start(h.stack(l2), root,
                                              source->session_id(), cfg.tcp);
  fetcher->on_complete = [&](const session::AsyncFetcher::Result& r) {
    fetched = r.bytes;
  };
  h.simulator().run(h.simulator().now() + SimTime::seconds(60));
  EXPECT_EQ(fetched, 6 * kMiB);
  EXPECT_EQ(h.open_connection_count(), 0u);
  EXPECT_EQ(h.topology().fluid()->active_splices(), 0u);
}

}  // namespace
}  // namespace lsl
