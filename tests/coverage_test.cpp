// Small-surface unit coverage: behaviours not exercised by the larger
// suites (stats edge cases, route-table semantics, link accounting, depot
// stat bookkeeping identities).
#include <gtest/gtest.h>

#include "exp/harness.hpp"
#include "fixtures.hpp"
#include "lsl/route_table.hpp"
#include "sched/scheduler.hpp"
#include "net/link.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace lsl {
namespace {

using namespace lsl::time_literals;

TEST(CoverageTest, RouteTableSemantics) {
  session::RouteTable table;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.next_hop(5).has_value());
  table.set(5, 2);
  table.set(7, 2);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(*table.next_hop(5), 2u);
  table.set(5, 3);  // last write wins
  EXPECT_EQ(*table.next_hop(5), 3u);
  EXPECT_EQ(table.size(), 2u);
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.next_hop(5).has_value());
}

TEST(CoverageTest, OnlineStatsSingleValue) {
  OnlineStats s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(CoverageTest, NegativeTimeRendering) {
  EXPECT_EQ((SimTime::milliseconds(-5) * 2).to_milliseconds(), -10.0);
  // str() renders magnitudes sensibly for negative durations too.
  EXPECT_NE(SimTime::milliseconds(-5).str().find("-"), std::string::npos);
}

TEST(CoverageTest, BandwidthRenderingAcrossScales) {
  EXPECT_EQ(Bandwidth::gbps(2).str(), "2.00Gbit/s");
  EXPECT_EQ(Bandwidth::mbps(1.5).str(), "1.50Mbit/s");
  EXPECT_EQ(Bandwidth::kbps(9).str(), "9.00kbit/s");
  EXPECT_EQ(Bandwidth::bps(12).str(), "12.00bit/s");
}

TEST(CoverageTest, LinkQueueHighWaterMark) {
  sim::Simulator sim;
  net::LinkConfig cfg;
  cfg.rate = Bandwidth::mbps(1);  // slow: the queue backs up
  cfg.queue_capacity_bytes = 10'000;
  net::PacketSlab packets;
  net::Link link(sim, packets, cfg, Rng(1));
  testing::SinkFn sink([](net::Packet&) {});
  link.set_receiver(&sink);
  for (int i = 0; i < 5; ++i) {
    net::Packet p;
    p.src = 0;
    p.dst = 1;
    p.payload_bytes = 1460;
    link.enqueue(std::move(p));
  }
  // 5 x 1500B offered; 10 KB capacity holds 6 -- all queued.
  EXPECT_EQ(link.stats().max_queue_bytes, 5u * 1500u);
  sim.run();
  EXPECT_EQ(link.stats().packets_sent, 5u);
  // Mean standing queue: packets arrived back-to-back, depths 0..4 x 1500.
  EXPECT_NEAR(link.stats().mean_queue_bytes(), (0 + 1 + 2 + 3 + 4) * 1500 / 5.0,
              1.0);
}

TEST(CoverageTest, DepotStatsIdentityAfterMixedWorkload) {
  // accepted == relayed + delivered + stored for a workload with all three
  // roles (no failures in this clean network).
  exp::SimHarness h(91);
  const auto a = h.add_host("a");
  const auto d = h.add_host("d");
  const auto b = h.add_host("b");
  net::LinkConfig link;
  link.rate = Bandwidth::mbps(200);
  link.propagation_delay = 3_ms;
  h.add_link(a, d, link);
  h.add_link(d, b, link);
  session::DepotConfig cfg;
  cfg.tcp = tcp::TcpOptions{}.with_buffers(mib(1));
  h.deploy(cfg);

  const auto opts = tcp::TcpOptions{}.with_buffers(mib(1));
  // Relay through d.
  session::TransferSpec relay;
  relay.dst = b;
  relay.via = {d};
  relay.payload_bytes = kib(300);
  relay.tcp = opts;
  (void)h.run_transfer(a, relay);
  // Deliver at d.
  session::TransferSpec deliver;
  deliver.dst = d;
  deliver.payload_bytes = kib(200);
  deliver.tcp = opts;
  (void)h.run_transfer(a, deliver);
  // Store at d (async).
  session::TransferSpec store;
  store.dst = b;
  store.via = {d};
  store.async_session = true;
  store.payload_bytes = kib(100);
  store.tcp = opts;
  session::LslSource::start(h.stack(a), store, h.rng());
  h.simulator().run(h.simulator().now() + 30_s);

  const auto& s = h.depot(d).stats();
  EXPECT_EQ(s.sessions_accepted,
            s.sessions_relayed + s.sessions_delivered + s.sessions_stored);
  EXPECT_EQ(s.sessions_refused, 0u);
  EXPECT_EQ(s.sessions_relayed, 1u);
  EXPECT_EQ(s.sessions_delivered, 1u);
  EXPECT_EQ(s.sessions_stored, 1u);
}

TEST(CoverageTest, FractionScheduledZeroOnUniformMatrix) {
  // Perfectly uniform costs: no relay can beat a direct edge, so nothing
  // is scheduled at any positive epsilon.
  sched::CostMatrix m(6);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      if (i != j) {
        m.set_cost(i, j, 1.0);
      }
    }
  }
  const sched::Scheduler scheduler(std::move(m), {.epsilon = 0.1});
  EXPECT_DOUBLE_EQ(scheduler.fraction_scheduled(), 0.0);
}

TEST(CoverageTest, TransferToUnreachableHostFailsCleanly) {
  exp::SimHarness h(92);
  const auto a = h.add_host("a");
  const auto b = h.add_host("b");
  h.add_host("island");  // node 2: no links at all
  net::LinkConfig link;
  link.rate = Bandwidth::mbps(100);
  link.propagation_delay = 3_ms;
  h.add_link(a, b, link);
  h.deploy([](net::NodeId) {
    session::DepotConfig cfg;
    cfg.tcp = tcp::TcpOptions{}.with_buffers(kib(256));
    return cfg;
  });
  session::TransferSpec spec;
  spec.dst = 2;
  spec.payload_bytes = kib(64);
  spec.tcp = tcp::TcpOptions{}.with_buffers(kib(256));
  const auto r = h.run_transfer(a, spec, h.simulator().now() + 120_s);
  EXPECT_FALSE(r.completed);
  // The SYN retry budget expires and the connection reaps.
  h.simulator().run(h.simulator().now() + 300_s);
  EXPECT_EQ(h.stack(a).open_connections(), 0u);
}

}  // namespace
}  // namespace lsl
