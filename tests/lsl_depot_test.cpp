#include <gtest/gtest.h>

#include "exp/harness.hpp"
#include "lsl/depot.hpp"
#include "lsl/endpoint.hpp"
#include "util/units.hpp"

namespace lsl {
namespace {

using namespace lsl::time_literals;
using exp::SimHarness;
using session::DepotConfig;
using session::TransferSpec;

net::LinkConfig wan(double mbit, SimTime one_way, double loss = 0.0,
                    std::uint64_t queue = mib(4)) {
  net::LinkConfig cfg;
  cfg.rate = Bandwidth::mbps(mbit);
  cfg.propagation_delay = one_way;
  cfg.queue_capacity_bytes = queue;
  cfg.loss_rate = loss;
  return cfg;
}

DepotConfig depot_cfg(std::uint64_t tcp_buf, std::uint64_t user_buf) {
  DepotConfig cfg;
  cfg.tcp = tcp::TcpOptions{}.with_buffers(tcp_buf);
  cfg.user_buffer_bytes = user_buf;
  return cfg;
}

/// src(0) -- depot(1) -- dst(2), plus a direct src--dst link.
struct TriangleNet {
  SimHarness harness;
  net::NodeId src, depot, dst;

  TriangleNet(const net::LinkConfig& leg1, const net::LinkConfig& leg2,
              const net::LinkConfig& direct, const DepotConfig& cfg,
              std::uint64_t seed = 21)
      : harness(seed) {
    src = harness.add_host("src", "site-a");
    depot = harness.add_host("depot", "site-m");
    dst = harness.add_host("dst", "site-b");
    harness.add_link(src, depot, leg1);
    harness.add_link(depot, dst, leg2);
    harness.add_link(src, dst, direct);
    harness.deploy(cfg);
    // Pin the direct route onto the direct link (compute_routes may prefer
    // a lower-delay two-hop path otherwise).
    auto& topo = harness.topology();
    topo.node(src).set_route(dst, topo.link_between(src, dst));
    topo.node(dst).set_route(src, topo.link_between(dst, src));
  }
};

TEST(DepotTest, DirectSessionDelivers) {
  TriangleNet net(wan(100, 10_ms), wan(100, 10_ms), wan(100, 20_ms),
                  depot_cfg(mib(1), mib(2)));
  TransferSpec spec;
  spec.dst = net.dst;
  spec.payload_bytes = mib(1);
  spec.tcp = tcp::TcpOptions{}.with_buffers(mib(1));
  const auto r = net.harness.run_transfer(net.src, spec);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.bytes, mib(1));
  EXPECT_EQ(net.harness.depot(net.dst).stats().sessions_delivered, 1u);
}

TEST(DepotTest, RelayedSessionDeliversExactly) {
  TriangleNet net(wan(100, 10_ms), wan(100, 10_ms), wan(100, 20_ms),
                  depot_cfg(mib(1), mib(2)));
  TransferSpec spec;
  spec.dst = net.dst;
  spec.via = {net.depot};
  spec.payload_bytes = mib(4);
  spec.tcp = tcp::TcpOptions{}.with_buffers(mib(1));
  const auto r = net.harness.run_transfer(net.src, spec);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.bytes, mib(4));
  const auto& ds = net.harness.depot(net.depot).stats();
  EXPECT_EQ(ds.sessions_relayed, 1u);
  EXPECT_EQ(ds.bytes_relayed, mib(4));
  EXPECT_EQ(net.harness.depot(net.dst).stats().sessions_delivered, 1u);
}

TEST(DepotTest, MultiDepotChainDelivers) {
  SimHarness h(5);
  const auto a = h.add_host("a");
  const auto d1 = h.add_host("d1");
  const auto d2 = h.add_host("d2");
  const auto b = h.add_host("b");
  h.add_link(a, d1, wan(100, 5_ms));
  h.add_link(d1, d2, wan(100, 5_ms));
  h.add_link(d2, b, wan(100, 5_ms));
  h.deploy(depot_cfg(mib(1), mib(2)));
  TransferSpec spec;
  spec.dst = b;
  spec.via = {d1, d2};
  spec.payload_bytes = mib(2);
  spec.tcp = tcp::TcpOptions{}.with_buffers(mib(1));
  const auto r = h.run_transfer(a, spec);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.bytes, mib(2));
  EXPECT_EQ(h.depot(d1).stats().sessions_relayed, 1u);
  EXPECT_EQ(h.depot(d2).stats().sessions_relayed, 1u);
}

TEST(DepotTest, RouteTableForwardingWithoutSourceRoute) {
  // No loose source route: the depot's route table sends dst-bound sessions
  // through the next hop. Source sends "direct" to dst but its own node's
  // route table at the session layer is what the scheduler configures --
  // here we emulate hop-by-hop forwarding by directing the source at the
  // depot with an empty via list and a route entry dst -> dst.
  SimHarness h(6);
  const auto a = h.add_host("a");
  const auto d = h.add_host("d");
  const auto b = h.add_host("b");
  h.add_link(a, d, wan(100, 5_ms));
  h.add_link(d, b, wan(100, 5_ms));
  h.deploy(depot_cfg(mib(1), mib(2)));
  // Depot d forwards sessions for b directly (default), but check the
  // route-table override path: route b via b (expected next hop).
  session::RouteTable table;
  table.set(b, b);
  h.depot(d).set_route_table(table);
  TransferSpec spec;
  spec.dst = b;
  spec.via = {d};  // reach the depot; beyond that, its table decides
  spec.payload_bytes = kib(256);
  spec.tcp = tcp::TcpOptions{}.with_buffers(mib(1));
  const auto r = h.run_transfer(a, spec);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.bytes, kib(256));
}

TEST(DepotTest, LogisticalEffectSplitBeatsDirectOnLossyHighRttPath) {
  // The paper's core claim: over a high bandwidth-delay path with loss,
  // a relay that halves each connection's RTT raises end-to-end throughput.
  // Loss is set high enough (1e-3) that the transfer spends most of its
  // life at the congestion-avoidance equilibrium, where throughput scales
  // as 1/RTT (Mathis), rather than in the slow-start transient.
  const double loss = 1e-3;
  TriangleNet net(wan(400, 23_ms, loss), wan(400, 22_ms, loss),
                  wan(400, 35_ms, loss), depot_cfg(mib(8), mib(16)));
  tcp::TcpOptions opts = tcp::TcpOptions{}.with_buffers(mib(8));

  TransferSpec direct;
  direct.dst = net.dst;
  direct.payload_bytes = mib(16);
  direct.tcp = opts;
  const auto r_direct = net.harness.run_transfer(net.src, direct);

  TransferSpec lsl = direct;
  lsl.via = {net.depot};
  const auto r_lsl = net.harness.run_transfer(net.src, lsl);

  ASSERT_TRUE(r_direct.completed);
  ASSERT_TRUE(r_lsl.completed);
  EXPECT_GT(r_lsl.goodput.bits_per_second(),
            1.15 * r_direct.goodput.bits_per_second());
}

TEST(DepotTest, DepotBufferBoundsPipeline) {
  // Fast first leg, slow second leg: the source can run ahead of the
  // bottleneck only until the depot pipeline (kernel + user buffers) fills.
  const auto tcp_buf = kib(512);
  const auto user_buf = mib(1);
  TriangleNet net(wan(400, 5_ms), wan(20, 5_ms), wan(400, 10_ms),
                  depot_cfg(tcp_buf, user_buf));
  TransferSpec spec;
  spec.dst = net.dst;
  spec.via = {net.depot};
  spec.payload_bytes = mib(16);
  spec.tcp = tcp::TcpOptions{}.with_buffers(tcp_buf);

  const auto handle = net.harness.launch(net.src, spec);
  // After 2 seconds the fast leg would have moved ~50 MB unconstrained, but
  // the pipeline holds at most user_buf + 2 kernel buffers + what the slow
  // leg (20 Mbit/s) has drained.
  net.harness.simulator().run(net.harness.simulator().now() + 2_s);
  const auto& ds = net.harness.depot(net.depot).stats();
  const std::uint64_t drained_upper = 2ULL * 20'000'000 / 8;  // 2 s at 20 Mbit
  const std::uint64_t pipeline_cap = user_buf + 4 * tcp_buf;
  EXPECT_LE(ds.bytes_relayed, drained_upper + pipeline_cap);
  const auto r = net.harness.wait(handle, 600_s);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.bytes, mib(16));
}

TEST(DepotTest, AdmissionControlRefusesExcessSessions) {
  SimHarness h(8);
  const auto a = h.add_host("a");
  const auto d = h.add_host("d");
  const auto b = h.add_host("b");
  h.add_link(a, d, wan(50, 5_ms));
  h.add_link(d, b, wan(50, 5_ms));
  auto cfg = depot_cfg(kib(64), kib(256));
  cfg.max_sessions = 2;
  h.deploy(cfg);
  TransferSpec spec;
  spec.dst = b;
  spec.via = {d};
  spec.payload_bytes = mib(4);
  spec.tcp = tcp::TcpOptions{};
  for (int i = 0; i < 5; ++i) {
    h.launch(a, spec);
  }
  h.wait_all(120_s);
  const auto& ds = h.depot(d).stats();
  // sessions_accepted counts only admitted sessions; with max_sessions = 2
  // the burst of 5 must see refusals, and admitted sessions all relay.
  EXPECT_GT(ds.sessions_refused, 0u);
  EXPECT_EQ(ds.sessions_accepted + ds.sessions_refused, 5u);
  EXPECT_EQ(ds.sessions_relayed, ds.sessions_accepted);
}

TEST(DepotTest, AsyncSessionStoredAtLastDepotAndFetched) {
  SimHarness h(9);
  const auto a = h.add_host("a");
  const auto d = h.add_host("d");
  const auto b = h.add_host("b");
  h.add_link(a, d, wan(100, 5_ms));
  h.add_link(d, b, wan(100, 5_ms));
  h.deploy(depot_cfg(mib(1), mib(8)));

  TransferSpec spec;
  spec.dst = b;
  spec.via = {d};
  spec.payload_bytes = mib(2);
  spec.async_session = true;
  spec.tcp = tcp::TcpOptions{}.with_buffers(mib(1));

  auto source = session::LslSource::start(h.stack(a), spec, h.rng());
  const auto sid = source->session_id();
  h.simulator().run(h.simulator().now() + 60_s);

  // Stored at the depot, not delivered to b.
  ASSERT_TRUE(h.depot(d).stored_bytes(sid).has_value());
  EXPECT_EQ(*h.depot(d).stored_bytes(sid), mib(2));
  EXPECT_EQ(h.depot(b).stats().sessions_delivered, 0u);

  // The receiver fetches it later by session id.
  bool fetched = false;
  std::uint64_t fetched_bytes = 0;
  auto fetcher = session::AsyncFetcher::start(
      h.stack(b), d, sid, tcp::TcpOptions{}.with_buffers(mib(1)));
  fetcher->on_complete = [&](const session::AsyncFetcher::Result& r) {
    fetched = true;
    fetched_bytes = r.bytes;
  };
  h.simulator().run(h.simulator().now() + 60_s);
  EXPECT_TRUE(fetched);
  EXPECT_EQ(fetched_bytes, mib(2));
}

TEST(DepotTest, FinishedEndpointsDoNotOutliveTheirStacks) {
  // Socket callbacks capture their owner, and the owner holds the socket:
  // neither may keep the other alive once the transfer is over.
  std::weak_ptr<session::LslSource> source;
  std::weak_ptr<tcp::Connection> source_conn;
  std::weak_ptr<session::AsyncFetcher> fetcher;
  {
    SimHarness h(9);
    const auto a = h.add_host("a");
    const auto d = h.add_host("d");
    const auto b = h.add_host("b");
    h.add_link(a, d, wan(100, 5_ms));
    h.add_link(d, b, wan(100, 5_ms));
    h.deploy(depot_cfg(mib(1), mib(8)));

    TransferSpec spec;
    spec.dst = b;
    spec.via = {d};
    spec.payload_bytes = mib(1);
    spec.async_session = true;
    const auto started = session::LslSource::start(h.stack(a), spec, h.rng());
    const auto sid = started->session_id();
    source = started;
    source_conn = started->connection()->shared_from_this();
    h.simulator().run(h.simulator().now() + 60_s);
    ASSERT_TRUE(h.depot(d).stored_bytes(sid).has_value());

    bool fetched = false;
    const auto fetch =
        session::AsyncFetcher::start(h.stack(b), d, sid, tcp::TcpOptions{});
    fetch->on_complete = [&](const session::AsyncFetcher::Result&) {
      fetched = true;
    };
    fetcher = fetch;
    h.simulator().run(h.simulator().now() + 60_s);
    ASSERT_TRUE(fetched);
  }
  EXPECT_TRUE(source.expired());
  EXPECT_TRUE(source_conn.expired());
  EXPECT_TRUE(fetcher.expired());
}

TEST(DepotTest, FetchOfUnknownSessionFails) {
  SimHarness h(10);
  const auto a = h.add_host("a");
  const auto d = h.add_host("d");
  h.add_link(a, d, wan(100, 5_ms));
  h.deploy(depot_cfg(mib(1), mib(2)));
  session::SessionId bogus;
  bogus.bytes.fill(7);
  bool errored = false;
  auto fetcher =
      session::AsyncFetcher::start(h.stack(a), d, bogus, tcp::TcpOptions{});
  fetcher->on_error = [&] { errored = true; };
  h.simulator().run(h.simulator().now() + 30_s);
  EXPECT_TRUE(errored);
}

/// src -> root depot, which fans a staging tree out to two mid depots, each
/// with one leaf sink: root -> m1, m2; m1 -> l1; m2 -> l2.
struct MulticastTreeNet {
  SimHarness h{11};
  net::NodeId src = h.add_host("src");
  net::NodeId root = h.add_host("root");
  net::NodeId m1 = h.add_host("m1");
  net::NodeId m2 = h.add_host("m2");
  net::NodeId l1 = h.add_host("l1");
  net::NodeId l2 = h.add_host("l2");
  int deliveries = 0;
  std::uint64_t delivered_bytes = 0;

  MulticastTreeNet() {
    h.add_link(src, root, wan(100, 5_ms));
    h.add_link(root, m1, wan(100, 5_ms));
    h.add_link(root, m2, wan(100, 5_ms));
    h.add_link(m1, l1, wan(100, 5_ms));
    h.add_link(m2, l2, wan(100, 5_ms));
    h.deploy(depot_cfg(mib(1), mib(2)));
    for (const auto leaf : {l1, l2}) {
      h.depot(leaf).on_session_complete =
          [this](const session::SessionRecord& rec) {
            ++deliveries;
            delivered_bytes += rec.bytes;
          };
    }
  }

  /// Stage `bytes` down the tree and run for two simulated minutes.
  void stage(std::uint64_t bytes) {
    session::MulticastTree tree;
    tree.entries = {{root, 0}, {m1, 0}, {m2, 0}, {l1, 1}, {l2, 2}};
    TransferSpec spec;
    spec.dst = root;
    spec.multicast = tree;
    spec.payload_bytes = bytes;
    spec.tcp = tcp::TcpOptions{}.with_buffers(mib(1));
    session::LslSource::start(h.stack(src), spec, h.rng());
    h.simulator().run(h.simulator().now() + 120_s);
  }

  [[nodiscard]] std::size_t open_connections() {
    std::size_t open = 0;
    for (const auto node : {src, root, m1, m2, l1, l2}) {
      open += h.stack(node).open_connections();
    }
    return open;
  }
};

TEST(DepotTest, MulticastTreeStagesDataToAllLeaves) {
  MulticastTreeNet net;
  net.stage(mib(1));
  EXPECT_EQ(net.deliveries, 2);
  EXPECT_EQ(net.delivered_bytes, 2 * mib(1));
}

TEST(DepotTest, ZeroByteMulticastReachesEveryLeafOnce) {
  // The empty payload drains while the root's children are still
  // connecting: the root must wait for each child's header to go out
  // before closing it, and finish the session once.
  MulticastTreeNet net;
  net.stage(0);
  EXPECT_EQ(net.h.depot(net.l1).stats().sessions_delivered, 1u);
  EXPECT_EQ(net.h.depot(net.l2).stats().sessions_delivered, 1u);
  EXPECT_EQ(net.deliveries, 2);
  EXPECT_EQ(net.delivered_bytes, 0u);
  EXPECT_EQ(net.h.depot(net.root).stats().sessions_relayed, 1u);
  EXPECT_EQ(net.open_connections(), 0u);
}

TEST(DepotTest, ConcurrentRelaySessionsAllComplete) {
  SimHarness h(12);
  const auto a = h.add_host("a");
  const auto d = h.add_host("d");
  const auto b = h.add_host("b");
  h.add_link(a, d, wan(100, 10_ms));
  h.add_link(d, b, wan(100, 10_ms));
  h.deploy(depot_cfg(kib(256), mib(1)));
  TransferSpec spec;
  spec.dst = b;
  spec.via = {d};
  spec.payload_bytes = mib(1);
  spec.tcp = tcp::TcpOptions{}.with_buffers(kib(256));
  for (int i = 0; i < 8; ++i) {
    h.launch(a, spec);
  }
  const auto unfinished = h.wait_all(300_s);
  EXPECT_EQ(unfinished, 0u);
  EXPECT_EQ(h.depot(d).stats().sessions_relayed, 8u);
  EXPECT_EQ(h.depot(b).stats().bytes_delivered, 8 * mib(1));
}

TEST(DepotMemoryTest, UnlimitedPoolAcceptsEverything) {
  // A depot has no depot-wide relay memory budget: each session gets its own
  // user_buffer_bytes, so relays that pile up behind a slow downstream link
  // are all admitted.
  SimHarness h(71);
  const auto a = h.add_host("a");
  const auto d = h.add_host("d");
  const auto b = h.add_host("b");
  net::LinkConfig fast;
  fast.rate = Bandwidth::mbps(400);
  fast.propagation_delay = 2_ms;
  net::LinkConfig slow = fast;
  slow.rate = Bandwidth::mbps(20);  // downstream bottleneck keeps
                                    // sessions alive long enough to pile up
  h.add_link(a, d, fast);
  h.add_link(d, b, slow);
  h.deploy(depot_cfg(kib(256), mib(1)));
  TransferSpec spec;
  spec.dst = b;
  spec.via = {d};
  spec.payload_bytes = mib(2);
  spec.tcp = tcp::TcpOptions{}.with_buffers(kib(256));
  for (int i = 0; i < 6; ++i) {
    h.launch(a, spec);
  }
  EXPECT_EQ(h.wait_all(600_s), 0u);
  EXPECT_EQ(h.depot(d).stats().sessions_refused, 0u);
  EXPECT_EQ(h.depot(d).stats().sessions_relayed, 6u);
}

class RelayLossIntegrityTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RelayLossIntegrityTest, RelayDeliversExactByteCountUnderLoss) {
  // Regression: the EOF callback used to fire synchronously from inside the
  // relay's own read() call; the relay then observed its buffers as drained
  // before accounting the chunk in hand and closed the session short (up to
  // one 256 KB relay chunk lost). Exercise relays across loss seeds.
  SimHarness h(GetParam());
  const auto a = h.add_host("a", "site-a");
  const auto d = h.add_host("d", "site-m");
  const auto b = h.add_host("b", "site-b");
  net::LinkConfig link = wan(100, 20_ms, /*loss=*/3e-4, mib(8));
  h.add_link(a, d, link);
  h.add_link(d, b, link);
  h.deploy(depot_cfg(mib(8), mib(16)));
  TransferSpec spec;
  spec.dst = b;
  spec.via = {d};
  spec.payload_bytes = mib(8);
  spec.tcp = tcp::TcpOptions{}.with_buffers(mib(8));
  const auto r = h.run_transfer(a, spec);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.bytes, mib(8));
  EXPECT_EQ(h.depot(d).stats().bytes_relayed, mib(8));
}

INSTANTIATE_TEST_SUITE_P(LossSeeds, RelayLossIntegrityTest,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(DepotTest, SessionHeaderSurvivesRelayRewrite) {
  // Three-hop loose source route: each depot pops itself off the LSRR; the
  // final delivered header must carry the original session id and empty
  // route.
  SimHarness h(13);
  const auto a = h.add_host("a");
  const auto d1 = h.add_host("d1");
  const auto d2 = h.add_host("d2");
  const auto b = h.add_host("b");
  h.add_link(a, d1, wan(100, 2_ms));
  h.add_link(d1, d2, wan(100, 2_ms));
  h.add_link(d2, b, wan(100, 2_ms));
  h.deploy(depot_cfg(mib(1), mib(2)));

  session::SessionRecord delivered;
  h.depot(b).on_session_complete =
      [&](const session::SessionRecord& rec) { delivered = rec; };

  TransferSpec spec;
  spec.dst = b;
  spec.via = {d1, d2};
  spec.payload_bytes = kib(100);
  spec.tcp = tcp::TcpOptions{}.with_buffers(mib(1));
  auto source = session::LslSource::start(h.stack(a), spec, h.rng());
  h.simulator().run(h.simulator().now() + 60_s);

  EXPECT_EQ(delivered.header.session_id, source->session_id());
  EXPECT_TRUE(delivered.header.loose_route.empty());
  EXPECT_EQ(delivered.header.src, a);
  EXPECT_EQ(delivered.header.dst, b);
  EXPECT_EQ(delivered.header.payload_bytes, kib(100));
  EXPECT_EQ(delivered.bytes, kib(100));
}


TEST(DepotTest, SelfHopsInSourceRouteAreCollapsed) {
  // A loose source route naming the same depot twice must not make the
  // depot open connections to itself; it relays once and forwards on.
  SimHarness h(14);
  const auto a = h.add_host("a");
  const auto d = h.add_host("d");
  const auto b = h.add_host("b");
  h.add_link(a, d, wan(100, 5_ms));
  h.add_link(d, b, wan(100, 5_ms));
  h.deploy(depot_cfg(mib(1), mib(2)));
  TransferSpec spec;
  spec.dst = b;
  spec.via = {d, d, d};
  spec.payload_bytes = mib(1);
  spec.tcp = tcp::TcpOptions{}.with_buffers(mib(1));
  const auto r = h.run_transfer(a, spec);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.bytes, mib(1));
  EXPECT_EQ(h.depot(d).stats().sessions_relayed, 1u);
  EXPECT_EQ(h.depot(d).stats().sessions_accepted, 1u);
}

TEST(DepotTest, LoopbackSessionToOwnHostDelivers) {
  // A session whose destination is the source's own host exercises the
  // loopback delivery path (deferred through the event loop).
  SimHarness h(15);
  const auto a = h.add_host("a");
  const auto b = h.add_host("b");
  h.add_link(a, b, wan(100, 5_ms));
  h.deploy(depot_cfg(mib(1), mib(2)));
  TransferSpec spec;
  spec.dst = a;  // back to ourselves
  spec.payload_bytes = kib(512);
  spec.tcp = tcp::TcpOptions{}.with_buffers(mib(1));
  const auto r = h.run_transfer(a, spec);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.bytes, kib(512));
}

}  // namespace
}  // namespace lsl
