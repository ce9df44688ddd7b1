#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "fixtures.hpp"
#include "tcp/stack.hpp"

namespace lsl::tcp {
namespace {

using namespace lsl::time_literals;
using testing::TwoNodeNet;

net::LinkConfig lan() {
  net::LinkConfig cfg;
  cfg.rate = Bandwidth::mbps(1000);
  cfg.propagation_delay = 1_ms;
  return cfg;
}

TEST(TcpStackTest, EphemeralPortsAreDistinct) {
  TwoNodeNet net(lan());
  net.stack_b->listen(80, [](Connection::Ptr) {});
  auto c1 = net.stack_a->connect(net.b, 80);
  auto c2 = net.stack_a->connect(net.b, 80);
  auto c3 = net.stack_a->connect(net.b, 80);
  EXPECT_NE(c1->local_port(), c2->local_port());
  EXPECT_NE(c2->local_port(), c3->local_port());
  net.sim.run(2_s);
  EXPECT_EQ(c1->state(), TcpState::kEstablished);
  EXPECT_EQ(c3->state(), TcpState::kEstablished);
}

TEST(TcpStackTest, MultipleListenersIndependent) {
  TwoNodeNet net(lan());
  int hits_80 = 0;
  int hits_443 = 0;
  net.stack_b->listen(80, [&](Connection::Ptr) { ++hits_80; });
  net.stack_b->listen(443, [&](Connection::Ptr) { ++hits_443; });
  net.stack_a->connect(net.b, 80);
  net.stack_a->connect(net.b, 443);
  net.stack_a->connect(net.b, 443);
  net.sim.run(2_s);
  EXPECT_EQ(hits_80, 1);
  EXPECT_EQ(hits_443, 2);
}

TEST(TcpStackTest, SynToClosedPortIsDropped) {
  TwoNodeNet net(lan());
  auto c = net.stack_a->connect(net.b, 9999);  // nobody listening
  net.sim.run(3_s);
  // The SYN is silently dropped; the client keeps retrying (SYN_SENT).
  EXPECT_EQ(c->state(), TcpState::kSynSent);
  EXPECT_GT(c->stats().timeouts, 0u);
}

TEST(TcpStackTest, SynRetriesAreCappedAndSurfaceConnectTimeout) {
  TwoNodeNet net(lan());
  auto c = net.stack_a->connect(net.b, 9999);  // nobody listening, ever
  ConnectionError seen = ConnectionError::kNone;
  bool closed = false;
  c->on_error = [&](ConnectionError e) { seen = e; };
  c->on_closed = [&] { closed = true; };
  net.sim.run(600_s);
  // After kMaxSynRetries doublings the attempt gives up for good and the
  // failure surfaces to the application instead of retrying forever.
  EXPECT_EQ(c->state(), TcpState::kDead);
  EXPECT_TRUE(closed);
  EXPECT_EQ(seen, ConnectionError::kConnectTimeout);
  EXPECT_EQ(c->last_error(), ConnectionError::kConnectTimeout);
  EXPECT_LE(c->stats().timeouts, 1u + kMaxSynRetries);
  EXPECT_EQ(net.stack_a->open_connections(), 0u);
}

TEST(TcpStackTest, PeerAbortSurfacesResetButCleanEofDoesNot) {
  TwoNodeNet net(lan());
  net.stack_b->listen(80, [](Connection::Ptr conn) {
    conn->on_readable = [c = conn.get()] {
      (void)c->read(c->readable_bytes());
      c->abort();  // slam the door mid-stream
    };
  });
  auto aborted = net.stack_a->connect(net.b, 80);
  ConnectionError aborted_error = ConnectionError::kNone;
  aborted->on_connected = [c = aborted.get()] { c->write_synthetic(kib(64)); };
  aborted->on_error = [&](ConnectionError e) { aborted_error = e; };
  net.sim.run(5_s);
  EXPECT_EQ(aborted_error, ConnectionError::kReset);
  EXPECT_EQ(aborted->last_error(), ConnectionError::kReset);

  // A clean close never fires on_error.
  net.stack_b->listen(81, [](Connection::Ptr conn) {
    conn->on_readable = [c = conn.get()] { (void)c->read(c->readable_bytes()); };
    conn->on_eof = [c = conn.get()] {
      (void)c->read(c->readable_bytes());
      c->close();
    };
  });
  auto clean = net.stack_a->connect(net.b, 81);
  ConnectionError clean_error = ConnectionError::kNone;
  bool clean_closed = false;
  clean->on_connected = [c = clean.get()] {
    c->write_synthetic(kib(4));
    c->close();
  };
  clean->on_error = [&](ConnectionError e) { clean_error = e; };
  clean->on_closed = [&] { clean_closed = true; };
  net.sim.run(net.sim.now() + 10_s);
  EXPECT_TRUE(clean_closed);
  EXPECT_EQ(clean_error, ConnectionError::kNone);
  EXPECT_EQ(clean->last_error(), ConnectionError::kNone);
}

TEST(TcpStackTest, StopListeningRefusesNewConnections) {
  TwoNodeNet net(lan());
  int accepted = 0;
  net.stack_b->listen(80, [&](Connection::Ptr) { ++accepted; });
  net.stack_a->connect(net.b, 80);
  net.sim.run(1_s);
  net.stack_b->stop_listening(80);
  net.stack_a->connect(net.b, 80);
  net.sim.run(1_s);
  EXPECT_EQ(accepted, 1);
}

TEST(TcpStackTest, AcceptedConnectionSeesCorrectPeer) {
  TwoNodeNet net(lan());
  Connection::Ptr server;
  net.stack_b->listen(80, [&](Connection::Ptr conn) { server = conn; });
  auto client = net.stack_a->connect(net.b, 80);
  net.sim.run(1_s);
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->remote_node(), net.a);
  EXPECT_EQ(server->local_port(), 80);
  EXPECT_EQ(server->remote_port(), client->local_port());
}

TEST(TcpStackTest, ListenerOptionsApplyToAcceptedSockets) {
  TwoNodeNet net(lan());
  Connection::Ptr server;
  net.stack_b->listen(80, [&](Connection::Ptr conn) { server = conn; },
                      TcpOptions{}.with_buffers(mib(2)));
  net.stack_a->connect(net.b, 80);
  net.sim.run(1_s);
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->options().recv_buffer_bytes, mib(2));
}

TEST(TcpStackTest, BidirectionalTransferOnOneConnection) {
  TwoNodeNet net(lan());
  std::uint64_t server_got = 0;
  std::uint64_t client_got = 0;
  // Payloads fit within the default 64 KB socket buffers so neither side
  // needs a writable-pump; the point is both directions of one connection.
  net.stack_b->listen(80, [&](Connection::Ptr conn) {
    conn->write_synthetic(60'000);
    conn->on_readable = [&, c = conn.get()] {
      server_got += c->read(c->readable_bytes()).n;
    };
  });
  auto client = net.stack_a->connect(net.b, 80);
  client->on_connected = [c = client.get()] { c->write_synthetic(30'000); };
  client->on_readable = [&, c = client.get()] {
    client_got += c->read(c->readable_bytes()).n;
  };
  net.sim.run(10_s);
  EXPECT_EQ(server_got, 30'000u);
  EXPECT_EQ(client_got, 60'000u);
}

TEST(TcpStackTest, ManySequentialConnectionsAreReaped) {
  TwoNodeNet net(lan());
  int completed = 0;
  net.stack_b->listen(80, [&](Connection::Ptr conn) {
    conn->on_readable = [c = conn.get()] { c->read(c->readable_bytes()); };
    conn->on_eof = [&, c = conn.get()] {
      ++completed;
      c->close();
    };
  });
  for (int i = 0; i < 20; ++i) {
    auto c = net.stack_a->connect(net.b, 80);
    c->on_connected = [cp = c.get()] {
      cp->write_synthetic(10'000);
      cp->close();
    };
    net.sim.run(net.sim.now() + 5_s);
  }
  EXPECT_EQ(completed, 20);
  // TIME_WAIT linger is short; everything should be reaped by now.
  EXPECT_EQ(net.stack_a->open_connections(), 0u);
  EXPECT_EQ(net.stack_b->open_connections(), 0u);
}

TEST(TcpStackTest, ConcurrentConnectionsDoNotInterfere) {
  TwoNodeNet net(lan());
  constexpr int kConns = 10;
  std::uint64_t per_conn[kConns] = {};
  int done = 0;
  int next_index = 0;
  net.stack_b->listen(80, [&](Connection::Ptr conn) {
    const int index = next_index++;
    conn->on_readable = [&, index, c = conn.get()] {
      per_conn[index] += c->read(c->readable_bytes()).n;
    };
    conn->on_eof = [&, index, c = conn.get()] {
      per_conn[index] += c->read(c->readable_bytes()).n;
      ++done;
      c->close();
    };
  });
  for (int i = 0; i < kConns; ++i) {
    auto c = net.stack_a->connect(net.b, 80);
    const std::uint64_t bytes = 10'000 + 1'000 * static_cast<std::uint64_t>(i);
    c->on_connected = [cp = c.get(), bytes] {
      cp->write_synthetic(bytes);
      cp->close();
    };
  }
  net.sim.run(30_s);
  EXPECT_EQ(done, kConns);
  // Sizes are distinct per connection; totals must match exactly.
  std::uint64_t total = 0;
  for (const auto n : per_conn) {
    total += n;
  }
  EXPECT_EQ(total, 10u * 10'000 + 1'000 * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7 + 8 + 9));
}

TEST(TcpStackTest, DemuxServesManyConnectionsAndResetsReapedOnes) {
  // Node a holds 70 connections at once: 40 active opens to b:80 (one peer
  // port, distinct ephemeral ports) and 30 passive opens b made to a:90.
  // Each carries its own byte count, so a segment demultiplexed to the
  // wrong connection shows up as a wrong total.
  TwoNodeNet net(lan());
  constexpr int kActive = 40;
  constexpr int kPassive = 30;
  std::vector<Connection::Ptr> accepted;
  std::map<net::Port, std::uint64_t> got_at_b;  // by a's ephemeral port
  std::map<net::Port, std::uint64_t> got_at_a;  // by b's ephemeral port
  const auto count_into = [&](std::map<net::Port, std::uint64_t>& got) {
    return [&](Connection::Ptr conn) {
      accepted.push_back(conn);
      conn->on_readable = [&got, c = conn.get()] {
        got[c->remote_port()] += c->read(c->readable_bytes()).n;
      };
    };
  };
  net.stack_b->listen(80, count_into(got_at_b));
  net.stack_a->listen(90, count_into(got_at_a));
  std::vector<Connection::Ptr> opened;
  std::map<net::Port, std::uint64_t> sent_by_a;
  std::map<net::Port, std::uint64_t> sent_by_b;
  const auto open = [&](TcpStack& from, net::NodeId to, net::Port port,
                        std::uint64_t bytes,
                        std::map<net::Port, std::uint64_t>& sent) {
    auto c = from.connect(to, port);
    sent[c->local_port()] = bytes;
    c->on_connected = [cp = c.get(), bytes] { cp->write_synthetic(bytes); };
    opened.push_back(c);
  };
  for (int i = 0; i < kActive; ++i) {
    open(*net.stack_a, net.b, 80, 1000 + 37 * static_cast<std::uint64_t>(i),
         sent_by_a);
  }
  for (int i = 0; i < kPassive; ++i) {
    open(*net.stack_b, net.a, 90, 2000 + 53 * static_cast<std::uint64_t>(i),
         sent_by_b);
  }
  net.sim.run(5_s);
  EXPECT_EQ(got_at_b, sent_by_a);
  EXPECT_EQ(got_at_a, sent_by_b);
  ASSERT_EQ(net.stack_a->open_connections(),
            static_cast<std::size_t>(kActive + kPassive));

  // Leak post-mortems visit in ConnKey order.
  std::vector<ConnKey> keys;
  net.stack_a->for_each_connection([&](Connection& c) {
    keys.push_back(ConnKey{c.remote_node(), c.local_port(), c.remote_port()});
  });
  ASSERT_EQ(keys.size(), net.stack_a->open_connections());
  EXPECT_TRUE(std::adjacent_find(keys.begin(), keys.end(),
                                 [](const ConnKey& x, const ConnKey& y) {
                                   return !(x < y);
                                 }) == keys.end());

  // Reap one of a's active opens: its RST tears down b's end as well.
  const Connection::Ptr victim = opened[7];
  const ConnKey victim_key{net.b, victim->local_port(), 80};
  victim->abort();
  net.sim.run(net.sim.now() + 1_s);
  EXPECT_EQ(net.stack_a->find_connection(victim_key), nullptr);
  EXPECT_EQ(net.stack_a->open_connections(),
            static_cast<std::size_t>(kActive + kPassive - 1));

  // A late segment for the reaped connection draws exactly one RST.
  int resets = 0;
  net::Link& a_to_b = net.topo->link(0);
  net::PacketSink* node_b = a_to_b.receiver();
  testing::SinkFn tap([&](net::Packet& p) {
    if (p.tcp.has(net::kFlagRst) && p.tcp.src_port == victim_key.local_port &&
        p.tcp.dst_port == 80) {
      ++resets;
    }
    node_b->deliver(std::move(p));
  });
  a_to_b.set_receiver(&tap);
  net::Packet late;
  late.src = net.b;
  late.dst = net.a;
  late.tcp.src_port = 80;
  late.tcp.dst_port = victim_key.local_port;
  late.tcp.seq = 1;
  late.tcp.ack = 1;
  late.tcp.flags = net::kFlagAck;
  net.topo->send(std::move(late));
  net.sim.run(net.sim.now() + 1_s);
  EXPECT_EQ(resets, 1);
  EXPECT_EQ(net.stack_a->open_connections(),
            static_cast<std::size_t>(kActive + kPassive - 1));
}

}  // namespace
}  // namespace lsl::tcp
