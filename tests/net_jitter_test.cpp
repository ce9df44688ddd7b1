// Packet reordering via link jitter: the receive path's reassembly and the
// sender's dup-ACK logic must tolerate out-of-order delivery without losing
// or duplicating data.
#include <gtest/gtest.h>

#include "exp/raw_tcp.hpp"
#include "fixtures.hpp"
#include "net/link.hpp"

namespace lsl::net {
namespace {

using namespace lsl::time_literals;
using testing::TwoNodeNet;
using exp::run_raw_transfer;

TEST(LinkJitterTest, JitterReordersDelivery) {
  sim::Simulator sim;
  LinkConfig cfg;
  cfg.rate = Bandwidth::gbps(10);  // serialization negligible
  cfg.propagation_delay = 1_ms;
  cfg.jitter = 5_ms;
  PacketSlab packets;
  Link link(sim, packets, cfg, Rng(7));
  std::vector<std::uint64_t> order;
  testing::SinkFn sink([&](Packet& p) { order.push_back(p.uid); });
  link.set_receiver(&sink);
  for (std::uint64_t i = 0; i < 64; ++i) {
    Packet p;
    p.src = 0;
    p.dst = 1;
    p.payload_bytes = 100;
    p.uid = i;
    link.enqueue(std::move(p));
  }
  sim.run();
  ASSERT_EQ(order.size(), 64u);
  EXPECT_FALSE(std::is_sorted(order.begin(), order.end()));
}

TEST(LinkJitterTest, ZeroJitterPreservesFifo) {
  sim::Simulator sim;
  LinkConfig cfg;
  PacketSlab packets;
  Link link(sim, packets, cfg, Rng(7));
  std::vector<std::uint64_t> order;
  testing::SinkFn sink([&](Packet& p) { order.push_back(p.uid); });
  link.set_receiver(&sink);
  for (std::uint64_t i = 0; i < 32; ++i) {
    Packet p;
    p.payload_bytes = 100;
    p.uid = i;
    p.src = 0;
    p.dst = 1;
    link.enqueue(std::move(p));
  }
  sim.run();
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

class JitterConservationTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JitterConservationTest, TcpDeliversExactlyUnderReordering) {
  LinkConfig link;
  link.rate = Bandwidth::mbps(100);
  link.propagation_delay = 10_ms;
  link.queue_capacity_bytes = mib(1);
  link.jitter = 4_ms;  // heavy reordering
  TwoNodeNet net(link, GetParam());
  const auto r = run_raw_transfer(net.sim, *net.stack_a, *net.stack_b,
                                  mib(2) + 777,
                                  tcp::TcpOptions{}.with_buffers(mib(1)));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.bytes_delivered, mib(2) + 777);
}

TEST_P(JitterConservationTest, TcpDeliversExactlyUnderReorderingAndLoss) {
  LinkConfig link;
  link.rate = Bandwidth::mbps(100);
  link.propagation_delay = 10_ms;
  link.queue_capacity_bytes = mib(1);
  link.jitter = 3_ms;
  link.loss_rate = 1e-3;
  TwoNodeNet net(link, GetParam() ^ 0xF00D);
  const auto r = run_raw_transfer(net.sim, *net.stack_a, *net.stack_b,
                                  mib(2),
                                  tcp::TcpOptions{}.with_buffers(mib(1)));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.bytes_delivered, mib(2));
}

INSTANTIATE_TEST_SUITE_P(Seeds, JitterConservationTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace lsl::net
