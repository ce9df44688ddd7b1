#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>

#include "exp/packet_log.hpp"
#include "exp/raw_tcp.hpp"
#include "fixtures.hpp"
#include "net/link.hpp"
#include "tcp/connection.hpp"
#include "util/units.hpp"

namespace lsl::tcp {
namespace {

using namespace lsl::time_literals;
using testing::TwoNodeNet;
using exp::run_raw_transfer;

net::LinkConfig wan(double mbit, SimTime one_way, double loss = 0.0) {
  net::LinkConfig cfg;
  cfg.rate = Bandwidth::mbps(mbit);
  cfg.propagation_delay = one_way;
  cfg.queue_capacity_bytes = mib(2);
  cfg.loss_rate = loss;
  return cfg;
}

/// Loses the first transmission of each data segment whose payload starts
/// at one of the stream offsets `lost`, at `link`'s far end. The returned
/// tap must outlive the link's traffic.
std::unique_ptr<testing::SinkFn> lose_first_transmissions(
    net::Link& link, std::vector<std::uint64_t> lost) {
  auto tap = std::make_unique<testing::SinkFn>(
      [next = link.receiver(), lost = std::move(lost)](net::Packet& p) mutable {
        // Wire sequence 0 is the SYN, so payload offset k travels as k + 1.
        const auto it = std::find(lost.begin(), lost.end(), p.tcp.seq - 1);
        if (p.payload_bytes > 0 && it != lost.end()) {
          lost.erase(it);
          return;
        }
        next->deliver(std::move(p));
      });
  link.set_receiver(tap.get());
  return tap;
}

TEST(TcpConnectionTest, HandshakeEstablishes) {
  TwoNodeNet net(wan(100, 10_ms));
  bool client_connected = false;
  bool server_accepted = false;
  net.stack_b->listen(80, [&](Connection::Ptr) { server_accepted = true; });
  auto c = net.stack_a->connect(net.b, 80);
  c->on_connected = [&] { client_connected = true; };
  net.sim.run(1_s);
  EXPECT_TRUE(client_connected);
  EXPECT_TRUE(server_accepted);
  EXPECT_EQ(c->state(), TcpState::kEstablished);
}

TEST(TcpConnectionTest, SmallTransferDeliversExactly) {
  TwoNodeNet net(wan(100, 5_ms));
  const auto r = run_raw_transfer(net.sim, *net.stack_a, *net.stack_b,
                                  10'000, TcpOptions{});
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.bytes_delivered, 10'000u);
}

TEST(TcpConnectionTest, LargeTransferDeliversExactly) {
  TwoNodeNet net(wan(100, 5_ms));
  const auto r = run_raw_transfer(net.sim, *net.stack_a, *net.stack_b,
                                  mib(8), TcpOptions{}.with_buffers(mib(1)));
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.bytes_delivered, mib(8));
}

TEST(TcpConnectionTest, LosslessGoodputApproachesLinkRate) {
  TwoNodeNet net(wan(100, 2_ms));
  // Socket buffers below the queue capacity: flow control prevents
  // slow-start overshoot drops, so the link saturates cleanly.
  const auto r = run_raw_transfer(net.sim, *net.stack_a, *net.stack_b,
                                  mib(16), TcpOptions{}.with_buffers(mib(1)));
  ASSERT_TRUE(r.completed);
  // 40B/1460B header overhead caps goodput at ~97% of the raw link rate.
  EXPECT_GT(r.goodput.megabits_per_second(), 85.0);
  EXPECT_LT(r.goodput.megabits_per_second(), 98.0);
}

TEST(TcpConnectionTest, WindowLimitedThroughputMatchesBufferOverRtt) {
  // 64 KB buffers over an 80ms RTT path: ceiling = 64KB/80ms = 6.55 Mbit/s.
  TwoNodeNet net(wan(1000, 40_ms));
  const auto r = run_raw_transfer(net.sim, *net.stack_a, *net.stack_b,
                                  mib(8), TcpOptions{});  // default 64 KB
  ASSERT_TRUE(r.completed);
  EXPECT_NEAR(r.goodput.megabits_per_second(), 6.55, 1.0);
}

TEST(TcpConnectionTest, ThroughputScalesInverselyWithRtt) {
  // The core premise of the paper: same buffers, half the RTT, about twice
  // the window-limited throughput.
  TwoNodeNet short_net(wan(1000, 20_ms));
  TwoNodeNet long_net(wan(1000, 40_ms));
  const auto fast = run_raw_transfer(short_net.sim, *short_net.stack_a,
                                     *short_net.stack_b, mib(8), TcpOptions{});
  const auto slow = run_raw_transfer(long_net.sim, *long_net.stack_a,
                                     *long_net.stack_b, mib(8), TcpOptions{});
  ASSERT_TRUE(fast.completed);
  ASSERT_TRUE(slow.completed);
  const double ratio = fast.goodput.bits_per_second() /
                       slow.goodput.bits_per_second();
  EXPECT_NEAR(ratio, 2.0, 0.25);
}

TEST(TcpConnectionTest, SurvivesPacketLossAndDeliversExactly) {
  TwoNodeNet net(wan(50, 10_ms, /*loss=*/0.01));
  const auto r = run_raw_transfer(net.sim, *net.stack_a, *net.stack_b,
                                  mib(2), TcpOptions{}.with_buffers(mib(1)));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.bytes_delivered, mib(2));
  EXPECT_GT(r.sender_stats.retransmits, 0u);
}

TEST(TcpConnectionTest, LossReducesThroughput) {
  TwoNodeNet clean(wan(100, 20_ms));
  TwoNodeNet lossy(wan(100, 20_ms, /*loss=*/0.002));
  const auto opts = TcpOptions{}.with_buffers(mib(4));
  const auto r_clean = run_raw_transfer(clean.sim, *clean.stack_a,
                                        *clean.stack_b, mib(8), opts);
  const auto r_lossy = run_raw_transfer(lossy.sim, *lossy.stack_a,
                                        *lossy.stack_b, mib(8), opts);
  ASSERT_TRUE(r_clean.completed);
  ASSERT_TRUE(r_lossy.completed);
  EXPECT_LT(r_lossy.goodput.bits_per_second(),
            0.6 * r_clean.goodput.bits_per_second());
}

TEST(TcpConnectionTest, FastRetransmitUsedBeforeTimeout) {
  TwoNodeNet net(wan(100, 10_ms, /*loss=*/0.005));
  const auto r = run_raw_transfer(net.sim, *net.stack_a, *net.stack_b,
                                  mib(4), TcpOptions{}.with_buffers(mib(2)));
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.sender_stats.fast_retransmits, 0u);
  // With plentiful dupacks most recoveries avoid the RTO path.
  EXPECT_LT(r.sender_stats.timeouts, r.sender_stats.fast_retransmits);
}

TEST(TcpConnectionTest, RenoLeavesRecoveryOnTheFirstPartialAck) {
  // Two segments of one slow-start window are lost. The fast retransmit of
  // the first draws a partial ACK that stops at the second hole. Classic
  // Reno ends recovery there, so the second hole needs a fresh dup-ACK
  // round and a second fast retransmit; NewReno repairs it inside the
  // first episode.
  const auto run = [](Cca cca) {
    TwoNodeNet net(wan(100, 10_ms));
    const auto tap =
        lose_first_transmissions(net.topo->link(0), {40 * kMss, 44 * kMss});
    TcpOptions opts = TcpOptions{}.with_buffers(mib(1)).with_cca(cca);
    opts.sack_enabled = false;
    return run_raw_transfer(net.sim, *net.stack_a, *net.stack_b, mib(1),
                            opts);
  };
  const auto reno = run(Cca::kReno);
  ASSERT_TRUE(reno.completed);
  EXPECT_EQ(reno.bytes_delivered, mib(1));
  EXPECT_EQ(reno.sender_stats.retransmits, 2u);
  EXPECT_EQ(reno.sender_stats.fast_retransmits, 2u);
  EXPECT_EQ(reno.sender_stats.timeouts, 0u);

  const auto newreno = run(Cca::kNewReno);
  ASSERT_TRUE(newreno.completed);
  EXPECT_EQ(newreno.bytes_delivered, mib(1));
  EXPECT_EQ(newreno.sender_stats.retransmits, 2u);
  EXPECT_EQ(newreno.sender_stats.fast_retransmits, 1u);
  EXPECT_EQ(newreno.sender_stats.timeouts, 0u);
}

TEST(TcpConnectionTest, DarkPathGivesUpAfterMaxDataRetries) {
  // The path goes dark once the handshake completes: no data, ACK or RST
  // crosses it again. Each timeout without ACK progress counts against
  // kMaxDataRetries; the one past it kills the connection.
  TwoNodeNet net(wan(100, 10_ms));
  net.stack_b->listen(80, [](Connection::Ptr) {});
  auto c = net.stack_a->connect(net.b, 80);
  c->on_connected = [&net, conn = c.get()] {
    net.topo->link(0).set_loss_rate(1.0);
    net.topo->link(1).set_loss_rate(1.0);
    conn->write_synthetic(mib(1));
  };
  ConnectionError error = ConnectionError::kNone;
  bool closed = false;
  c->on_error = [&](ConnectionError e) { error = e; };
  c->on_closed = [&] { closed = true; };
  net.sim.run(3600_s);
  EXPECT_TRUE(closed);
  EXPECT_EQ(error, ConnectionError::kRetransmitTimeout);
  EXPECT_EQ(c->state(), TcpState::kDead);
  EXPECT_EQ(c->acked_payload(), 0u);
  EXPECT_EQ(c->stats().timeouts,
            static_cast<std::uint64_t>(kMaxDataRetries) + 1);
  EXPECT_EQ(c->stats().retransmits,
            static_cast<std::uint64_t>(kMaxDataRetries));
}

TEST(TcpConnectionTest, ContentPrefixDeliveredIntact) {
  TwoNodeNet net(wan(100, 5_ms));
  constexpr net::Port kPort = 90;
  std::vector<std::byte> got;
  std::uint64_t got_count = 0;
  bool done = false;
  net.stack_b->listen(kPort, [&](Connection::Ptr conn) {
    conn->on_readable = [&, c = conn.get()] {
      auto rr = c->read(c->readable_bytes());
      got_count += rr.n;
      got.insert(got.end(), rr.real_bytes.begin(), rr.real_bytes.end());
    };
    conn->on_eof = [&] { done = true; };
  });
  auto c = net.stack_a->connect(net.b, kPort);
  c->on_connected = [&, cp = c.get()] {
    const char hdr[] = "LSL-SESSION-HEADER";
    std::vector<std::byte> h(sizeof hdr - 1);
    std::memcpy(h.data(), hdr, h.size());
    cp->write_bytes(h);
    cp->write_synthetic(50'000);
    cp->close();
  };
  net.sim.run(30_s);
  ASSERT_TRUE(done);
  EXPECT_EQ(got_count, 18u + 50'000u);
  ASSERT_EQ(got.size(), 18u);
  EXPECT_EQ(std::memcmp(got.data(), "LSL-SESSION-HEADER", 18), 0);
}

TEST(TcpConnectionTest, ReceiverBackpressureStallsSender) {
  TwoNodeNet net(wan(100, 2_ms));
  constexpr net::Port kPort = 91;
  Connection::Ptr server;
  net.stack_b->listen(kPort, [&](Connection::Ptr conn) { server = conn; },
                      TcpOptions{});
  auto c = net.stack_a->connect(net.b, kPort, TcpOptions{}.with_buffers(mib(1)));
  c->on_connected = [cp = c.get()] { cp->write_synthetic(mib(1)); };
  // Receiver app never reads: the sender can push at most
  // recv_buffer + a little in flight.
  net.sim.run(5_s);
  ASSERT_NE(server, nullptr);
  EXPECT_LE(server->readable_bytes(), TcpOptions{}.recv_buffer_bytes);
  const std::uint64_t acked_before = c->acked_payload();
  EXPECT_LE(acked_before, TcpOptions{}.recv_buffer_bytes + 2 * mib(1) / 100);

  // Now drain the receiver; the stall must resolve and deliver everything.
  std::uint64_t drained = 0;
  server->on_readable = [&, s = server.get()] {
    drained += s->read(s->readable_bytes()).n;
  };
  drained += server->read(server->readable_bytes()).n;
  net.sim.run(60_s);
  EXPECT_EQ(drained, mib(1));
}

TEST(TcpConnectionTest, GracefulCloseBothDirections) {
  TwoNodeNet net(wan(100, 5_ms));
  constexpr net::Port kPort = 92;
  bool server_eof = false;
  bool server_closed = false;
  bool client_closed = false;
  net.stack_b->listen(kPort, [&](Connection::Ptr conn) {
    conn->on_readable = [c = conn.get()] { c->read(c->readable_bytes()); };
    conn->on_eof = [&, c = conn.get()] {
      server_eof = true;
      c->close();
    };
    conn->on_closed = [&] { server_closed = true; };
  });
  auto c = net.stack_a->connect(net.b, kPort);
  c->on_connected = [cp = c.get()] {
    cp->write_synthetic(5000);
    cp->close();
  };
  c->on_closed = [&] { client_closed = true; };
  net.sim.run(30_s);
  EXPECT_TRUE(server_eof);
  EXPECT_TRUE(server_closed);
  EXPECT_TRUE(client_closed);
  EXPECT_EQ(net.stack_a->open_connections(), 0u);
  EXPECT_EQ(net.stack_b->open_connections(), 0u);
}

TEST(TcpConnectionTest, AbortSendsRstAndTearsDown) {
  TwoNodeNet net(wan(100, 5_ms));
  constexpr net::Port kPort = 93;
  bool server_closed = false;
  net.stack_b->listen(kPort, [&](Connection::Ptr conn) {
    conn->on_closed = [&] { server_closed = true; };
  });
  auto c = net.stack_a->connect(net.b, kPort);
  c->on_connected = [cp = c.get()] { cp->abort(); };
  net.sim.run(5_s);
  EXPECT_TRUE(server_closed);
  EXPECT_EQ(c->state(), TcpState::kDead);
}

TEST(TcpConnectionTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    TwoNodeNet net(wan(80, 15_ms, 0.001), /*seed=*/1234);
    return run_raw_transfer(net.sim, *net.stack_a, *net.stack_b, mib(4),
                            TcpOptions{}.with_buffers(mib(1)));
  };
  const auto r1 = run_once();
  const auto r2 = run_once();
  ASSERT_TRUE(r1.completed);
  ASSERT_TRUE(r2.completed);
  EXPECT_EQ(r1.elapsed, r2.elapsed);
  EXPECT_EQ(r1.sender_stats.retransmits, r2.sender_stats.retransmits);
  EXPECT_EQ(r1.sender_stats.segments_sent, r2.sender_stats.segments_sent);
}

TEST(TcpConnectionTest, SmallWritesShipAtOnce) {
  // 20 writes of 100 bytes, 1 ms apart, over a 40 ms RTT: each write's
  // runt is its last segment, so it leaves at once instead of waiting for
  // the ACKs of the runts ahead of it.
  TwoNodeNet net(wan(100, 20_ms));
  exp::PacketLog log;
  log.attach(net.topo->link(0), net.sim);
  constexpr net::Port kPort = 5001;
  std::uint64_t received = 0;
  net.stack_b->listen(kPort, [&](Connection::Ptr conn) {
    conn->on_readable = [&, c = conn.get()] {
      received += c->read(c->readable_bytes()).n;
    };
  });
  auto client = net.stack_a->connect(net.b, kPort);
  client->on_connected = [&, c = client.get()] {
    for (int i = 0; i < 20; ++i) {
      net.sim.schedule_after(SimTime::milliseconds(i),
                             [c] { c->write_synthetic(100); });
    }
  };
  net.sim.run(10_s);
  std::size_t data_segments = 0;
  for (const auto& entry : log.entries()) {
    if (entry.payload > 0) {
      ++data_segments;
    }
  }
  EXPECT_GE(data_segments, 18u);
  EXPECT_EQ(received, 20u * 100u);
}

TEST(TcpConnectionTest, TwoSimultaneousFlowsShareLink) {
  TwoNodeNet net(wan(100, 10_ms));
  const auto opts = TcpOptions{}.with_buffers(mib(2));
  constexpr net::Port kP1 = 7001;
  constexpr net::Port kP2 = 7002;
  std::uint64_t rx1 = 0;
  std::uint64_t rx2 = 0;
  int done = 0;
  const auto serve = [&](std::uint64_t& counter) {
    return [&counter, &done](Connection::Ptr conn) {
      conn->on_readable = [&counter, c = conn.get()] {
        counter += c->read(c->readable_bytes()).n;
      };
      conn->on_eof = [&counter, &done, c = conn.get()] {
        counter += c->read(c->readable_bytes()).n;
        ++done;
      };
    };
  };
  net.stack_b->listen(kP1, serve(rx1), opts);
  net.stack_b->listen(kP2, serve(rx2), opts);
  for (const net::Port port : {kP1, kP2}) {
    auto c = net.stack_a->connect(net.b, port, opts);
    auto queued = std::make_shared<std::uint64_t>(0);
    const auto pump = [cp = c.get(), queued] {
      constexpr std::uint64_t kTarget = mib(4);
      while (*queued < kTarget) {
        const std::uint64_t n = cp->write_synthetic(kTarget - *queued);
        *queued += n;
        if (n == 0) {
          return;
        }
      }
      cp->close();
    };
    c->on_connected = pump;
    c->on_writable = pump;
  }
  net.sim.run(120_s);
  // Both flows make progress; neither starves.
  EXPECT_GT(rx1, mib(1));
  EXPECT_GT(rx2, mib(1));
}

}  // namespace
}  // namespace lsl::tcp
