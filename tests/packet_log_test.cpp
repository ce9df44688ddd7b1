#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>

#include "exp/harness.hpp"
#include "exp/packet_log.hpp"
#include "exp/raw_tcp.hpp"
#include "fixtures.hpp"
#include "net/packet_slab.hpp"

namespace lsl::exp {
namespace {

using namespace lsl::time_literals;
using testing::TwoNodeNet;

net::LinkConfig wan(double loss = 0.0) {
  net::LinkConfig cfg;
  cfg.rate = Bandwidth::mbps(100);
  cfg.propagation_delay = 5_ms;
  cfg.queue_capacity_bytes = mib(1);
  cfg.loss_rate = loss;
  return cfg;
}

/// src -> depot -> dst over two lossy 100 Mbit legs (1e-3 loss each).
std::unique_ptr<SimHarness> lossy_depot_path(std::uint64_t seed) {
  auto h = std::make_unique<SimHarness>(seed);
  const auto src = h->add_host("src");
  const auto depot = h->add_host("depot");
  const auto dst = h->add_host("dst");
  h->add_link(src, depot, wan(1e-3));
  h->add_link(depot, dst, wan(1e-3));
  session::DepotConfig cfg;
  cfg.tcp = tcp::TcpOptions{}.with_buffers(kib(512));
  h->deploy(cfg);
  return h;
}

session::TransferSpec via_depot(std::uint64_t bytes) {
  session::TransferSpec spec;
  spec.dst = 2;
  spec.via = {1};
  spec.payload_bytes = bytes;
  spec.tcp = tcp::TcpOptions{}.with_buffers(kib(512));
  return spec;
}

std::uint64_t loss_drops(net::Topology& topo) {
  std::uint64_t drops = 0;
  for (std::size_t i = 0; i < topo.link_count(); ++i) {
    drops += topo.link(i).stats().packets_dropped_loss;
  }
  return drops;
}

TEST(PacketLogTest, TapOnEveryLinkLogsEachDeliveryAndChangesNothing) {
  const auto plain_net = lossy_depot_path(11);
  const auto plain = plain_net->run_transfer(0, via_depot(mib(4)));

  const auto net = lossy_depot_path(11);
  net::Topology& topo = net->topology();
  PacketLog log;
  for (std::size_t i = 0; i < topo.link_count(); ++i) {
    log.attach(topo.link(i), net->simulator());
  }
  const auto tapped = net->run_transfer(0, via_depot(mib(4)));

  ASSERT_TRUE(plain.completed);
  EXPECT_EQ(tapped.completed, plain.completed);
  EXPECT_EQ(tapped.elapsed.ns(), plain.elapsed.ns());
  EXPECT_EQ(tapped.bytes, plain.bytes);
  EXPECT_EQ(tapped.retries, plain.retries);
  EXPECT_GT(loss_drops(topo), 0u);
  // Every packet a link delivered is logged once: nothing is left on the
  // wire, so deliveries are the packets sent minus the ones lost.
  std::uint64_t delivered = 0;
  for (std::size_t i = 0; i < topo.link_count(); ++i) {
    ASSERT_EQ(topo.link(i).packets_held(), 0u);
    const net::LinkStats& stats = topo.link(i).stats();
    delivered += stats.packets_sent - stats.packets_dropped_loss;
  }
  EXPECT_EQ(log.size(), delivered);
}

TEST(PacketSlabTest, StorageFollowsThePacketsAlive) {
  // The slab may not hold more slots than the peak number of packets
  // queued or in flight on all links at once, plus one chunk: freed slots
  // are reused across links and nothing is reserved ahead.
  const auto net = lossy_depot_path(5);
  net::Topology& topo = net->topology();
  const auto handle = net->launch(0, via_depot(mib(16)));
  std::size_t peak = 0;
  for (auto o = net->outcome(handle); !o.completed && !o.failed;
       o = net->outcome(handle)) {
    ASSERT_TRUE(net->simulator().step());
    std::size_t held = 0;
    for (std::size_t i = 0; i < topo.link_count(); ++i) {
      held += topo.link(i).packets_held();
    }
    peak = std::max(peak, held);
  }
  ASSERT_TRUE(net->outcome(handle).completed);
  EXPECT_GT(loss_drops(topo), 0u);
  EXPECT_GT(peak, net::PacketSlab::kChunkSize);  // the bound is not vacuous
  EXPECT_LE(topo.packets().capacity(), peak + net::PacketSlab::kChunkSize);
}

TEST(PacketLogTest, CapturesHandshakeShape) {
  TwoNodeNet net(wan());
  PacketLog log;
  log.attach(net.topo->link(0), net.sim);  // a -> b direction
  log.attach(net.topo->link(1), net.sim);  // b -> a direction

  const auto r = run_raw_transfer(net.sim, *net.stack_a, *net.stack_b,
                                  10'000, tcp::TcpOptions{});
  ASSERT_TRUE(r.completed);
  ASSERT_GE(log.size(), 6u);

  // First three packets on the wire: SYN, SYN+ACK, pure ACK.
  const auto& e = log.entries();
  EXPECT_TRUE(e[0].has(net::kFlagSyn));
  EXPECT_FALSE(e[0].has(net::kFlagAck));
  EXPECT_TRUE(e[1].has(net::kFlagSyn));
  EXPECT_TRUE(e[1].has(net::kFlagAck));
  EXPECT_TRUE(e[2].has(net::kFlagAck));
  EXPECT_FALSE(e[2].has(net::kFlagSyn));
  EXPECT_EQ(e[2].payload, 0u);

  // Exactly one SYN each way (no loss), and FINs from both sides.
  EXPECT_EQ(log.count_flag(net::kFlagSyn), 2u);
  EXPECT_EQ(log.count_flag(net::kFlagFin), 2u);
  EXPECT_EQ(log.count_flag(net::kFlagRst), 0u);
}

TEST(PacketLogTest, NoRetransmissionsOnCleanLink) {
  TwoNodeNet net(wan());
  PacketLog log;
  log.attach(net.topo->link(0), net.sim);
  const auto r = run_raw_transfer(net.sim, *net.stack_a, *net.stack_b,
                                  mib(1), tcp::TcpOptions{}.with_buffers(
                                               kib(256)));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(log.retransmitted_segments(), 0u);
}

TEST(PacketLogTest, AckBlackoutProducesVisibleWireRetransmissions) {
  // The tap records *delivered* packets, so data dropped at the link never
  // shows up twice. An ACK-path blackout forces an RTO: the go-back-N
  // rewind re-sends data the receiver already holds, which the data
  // direction's log sees as duplicate sequence ranges.
  TwoNodeNet net(wan(), /*seed=*/77);
  PacketLog log;
  log.attach(net.topo->link(0), net.sim);
  net.sim.schedule_at(100_ms, [&] {
    net.topo->link(1).set_loss_rate(1.0);  // b -> a: the ACK path
  });
  net.sim.schedule_at(3_s, [&] { net.topo->link(1).set_loss_rate(0.0); });
  const auto r = run_raw_transfer(net.sim, *net.stack_a, *net.stack_b,
                                  mib(1),
                                  tcp::TcpOptions{}.with_buffers(kib(256)));
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.sender_stats.timeouts, 0u);
  EXPECT_GT(log.retransmitted_segments(), 0u);
}

TEST(PacketLogTest, FilterSelectsBySeq) {
  TwoNodeNet net(wan());
  PacketLog log;
  log.attach(net.topo->link(0), net.sim);
  (void)run_raw_transfer(net.sim, *net.stack_a, *net.stack_b, 50'000,
                         tcp::TcpOptions{});
  const auto first_window = log.filter(
      [](const PacketLogEntry& e) { return e.payload > 0 && e.seq < 3000; });
  EXPECT_GE(first_window.size(), 2u);
  for (const auto& entry : first_window) {
    EXPECT_LT(entry.seq, 3000u);
  }
}

TEST(PacketLogTest, RendersReadableLines) {
  TwoNodeNet net(wan());
  PacketLog log;
  log.attach(net.topo->link(0), net.sim);
  (void)run_raw_transfer(net.sim, *net.stack_a, *net.stack_b, 5'000,
                         tcp::TcpOptions{});
  std::ostringstream os;
  log.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("S seq=0"), std::string::npos);  // the SYN line
  EXPECT_NE(out.find(" > "), std::string::npos);
  EXPECT_GT(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(PacketLogTest, AdvertisedWindowVisibleOnWire) {
  TwoNodeNet net(wan());
  PacketLog log;
  log.attach(net.topo->link(1), net.sim);  // ACK direction
  (void)run_raw_transfer(net.sim, *net.stack_a, *net.stack_b, 100'000,
                         tcp::TcpOptions{});
  // Receiver drains promptly, so most ACKs advertise a large window.
  std::size_t wide = 0;
  for (const auto& entry : log.entries()) {
    if (entry.has(net::kFlagAck) && entry.wnd >= 32 * kKiB) {
      ++wide;
    }
  }
  EXPECT_GT(wide, log.size() / 2);
}

}  // namespace
}  // namespace lsl::exp
