// Tests for the TCP behavioural options: delayed acknowledgments and the
// SYN retry cap.
#include <gtest/gtest.h>

#include "exp/raw_tcp.hpp"
#include "fixtures.hpp"
#include "obs/metrics.hpp"
#include "tcp/connection.hpp"

namespace lsl::tcp {
namespace {

using namespace lsl::time_literals;
using testing::TwoNodeNet;
using exp::run_raw_transfer;

net::LinkConfig lan() {
  net::LinkConfig cfg;
  cfg.rate = Bandwidth::mbps(500);
  cfg.propagation_delay = 2_ms;
  cfg.queue_capacity_bytes = mib(4);
  return cfg;
}

TEST(DelayedAckTest, RoughlyHalvesAckTraffic) {
  const auto count_acks = [](bool delayed) {
    TwoNodeNet net(lan());
    auto opts = TcpOptions{}.with_buffers(mib(1));
    opts.delayed_ack = delayed;
    const auto r = run_raw_transfer(net.sim, *net.stack_a, *net.stack_b,
                                    mib(4), opts);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.bytes_delivered, mib(4));
    // Receiver-side segments are almost all pure ACKs.
    return net.topo->link(1).stats().packets_sent;  // b -> a direction
  };
  const auto immediate = count_acks(false);
  const auto delayed = count_acks(true);
  EXPECT_LT(delayed, immediate * 2 / 3);
  EXPECT_GT(delayed, immediate / 3);
}

TEST(DelayedAckTest, TransferStillDeliversExactlyUnderLoss) {
  net::LinkConfig link = lan();
  link.loss_rate = 2e-3;
  TwoNodeNet net(link);
  auto opts = TcpOptions{}.with_buffers(mib(1));
  opts.delayed_ack = true;
  const auto r =
      run_raw_transfer(net.sim, *net.stack_a, *net.stack_b, mib(2), opts);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.bytes_delivered, mib(2));
}

TEST(DelayedAckTest, OutOfOrderDataStillAckedImmediately) {
  // Dup-ACK generation must survive delayed ACKs or fast retransmit dies;
  // verify loss recovery still happens via fast retransmit, not RTO only.
  net::LinkConfig link = lan();
  link.loss_rate = 1e-3;
  TwoNodeNet net(link);
  auto opts = TcpOptions{}.with_buffers(mib(1));
  opts.delayed_ack = true;
  const auto r =
      run_raw_transfer(net.sim, *net.stack_a, *net.stack_b, mib(8), opts);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.sender_stats.fast_retransmits, 0u);
}

TEST(DelayedAckTest, IdleTimeoutFlushesTheAck) {
  // A single small segment (below the 2-segment threshold) must still be
  // acknowledged within the delayed-ACK timeout, not sit forever.
  TwoNodeNet net(lan());
  auto opts = TcpOptions{};
  opts.delayed_ack = true;
  constexpr net::Port kPort = 5001;
  net.stack_b->listen(kPort, [](Connection::Ptr conn) {
    conn->on_readable = [c = conn.get()] { c->read(c->readable_bytes()); };
  }, opts);
  auto client = net.stack_a->connect(net.b, kPort, opts);
  client->on_connected = [c = client.get()] { c->write_synthetic(500); };
  net.sim.run(2_s);
  // All 500 bytes acknowledged despite never reaching 2 segments.
  EXPECT_EQ(client->acked_payload(), 500u);
}

TEST(SynRetryTest, ConnectToDeadPortEventuallyGivesUp) {
  TwoNodeNet net(lan());
  bool closed = false;
  auto c = net.stack_a->connect(net.b, 9999);  // nobody listens
  c->on_closed = [&] { closed = true; };
  // kMaxSynRetries (6) backed-off RTOs of 1, 2, ..., 32 s, then a last one
  // clamped to kMaxRto: the attempt dies at 123 s.
  net.sim.run(200_s);
  EXPECT_TRUE(closed);
  EXPECT_EQ(c->state(), TcpState::kDead);
  EXPECT_EQ(net.stack_a->open_connections(), 0u);
}

TEST(SynRetryTest, RetryCountIsRespected) {
  obs::Registry registry;
  const obs::ScopedRegistry scope(registry);
  TwoNodeNet net(lan());
  auto c = net.stack_a->connect(net.b, 9999);
  net.sim.run(600_s);
  // SYN + kMaxSynRetries retries, then death.
  EXPECT_LE(c->stats().retransmits,
            static_cast<std::uint64_t>(kMaxSynRetries));
  EXPECT_EQ(c->state(), TcpState::kDead);
  // Every SYN resend is a retransmission in the registry too.
  EXPECT_EQ(registry.counter("tcp.conn.retransmits").value(),
            c->stats().retransmits);
}

TEST(SynRetryTest, SlowHandshakeStillSucceedsWithinBudget) {
  net::LinkConfig link = lan();
  link.loss_rate = 0.4;  // brutal, but the retry budget should cover it
  TwoNodeNet net(link, /*seed=*/99);
  bool connected = false;
  net.stack_b->listen(80, [](Connection::Ptr) {});
  auto c = net.stack_a->connect(net.b, 80);  // kMaxSynRetries (6) retries
  c->on_connected = [&] { connected = true; };
  net.sim.run(120_s);
  EXPECT_TRUE(connected);
}

}  // namespace
}  // namespace lsl::tcp
