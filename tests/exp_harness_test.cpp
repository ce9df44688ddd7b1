#include <gtest/gtest.h>

#include <memory>

#include "exp/harness.hpp"
#include "exp/raw_tcp.hpp"
#include "exp/trace.hpp"
#include "fixtures.hpp"

namespace lsl::exp {
namespace {

using namespace lsl::time_literals;

net::LinkConfig fast_link() {
  net::LinkConfig cfg;
  cfg.rate = Bandwidth::mbps(200);
  cfg.propagation_delay = 5_ms;
  cfg.queue_capacity_bytes = mib(4);
  return cfg;
}

std::unique_ptr<SimHarness> make_pair_net(std::uint64_t seed = 1) {
  auto h = std::make_unique<SimHarness>(seed);
  const auto a = h->add_host("a");
  const auto b = h->add_host("b");
  h->add_link(a, b, fast_link());
  session::DepotConfig cfg;
  cfg.tcp = tcp::TcpOptions{}.with_buffers(mib(1));
  h->deploy(cfg);
  return h;
}

TEST(SimHarnessTest, RunTransferRoundTrip) {
  const auto net = make_pair_net();
  auto& h = *net;
  session::TransferSpec spec;
  spec.dst = 1;
  spec.payload_bytes = mib(1);
  spec.tcp = tcp::TcpOptions{}.with_buffers(mib(1));
  const auto r = h.run_transfer(0, spec);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.bytes, mib(1));
  EXPECT_GT(r.goodput.bits_per_second(), 0.0);
}

TEST(SimHarnessTest, WaitAllDrainsConcurrentTransfers) {
  const auto net = make_pair_net();
  auto& h = *net;
  session::TransferSpec spec;
  spec.dst = 1;
  spec.payload_bytes = kib(500);
  spec.tcp = tcp::TcpOptions{}.with_buffers(mib(1));
  std::vector<SimHarness::Handle> handles;
  for (int i = 0; i < 6; ++i) {
    handles.push_back(h.launch(0, spec));
  }
  EXPECT_EQ(h.wait_all(60_s), 0u);
  for (const auto& handle : handles) {
    const auto outcome = h.outcome(handle);
    EXPECT_TRUE(outcome.completed);
    EXPECT_EQ(outcome.bytes, kib(500));
  }
}

TEST(SimHarnessTest, WaitOnUnfinishedDeadlineExpires) {
  const auto net = make_pair_net();
  auto& h = *net;
  session::TransferSpec spec;
  spec.dst = 1;
  spec.payload_bytes = mib(64);  // will not finish in 10 ms
  spec.tcp = tcp::TcpOptions{}.with_buffers(mib(1));
  const auto handle = h.launch(0, spec);
  const auto outcome = h.wait(handle, 10_ms);
  EXPECT_FALSE(outcome.completed);
}

TEST(SimHarnessTest, TracedLaunchSeesSourceConnection) {
  const auto net = make_pair_net();
  auto& h = *net;
  session::TransferSpec spec;
  spec.dst = 1;
  spec.payload_bytes = kib(64);
  spec.tcp = tcp::TcpOptions{}.with_buffers(mib(1));
  tcp::Connection* conn = nullptr;
  const auto handle =
      h.launch_traced(0, spec, [&](tcp::Connection& c) { conn = &c; });
  ASSERT_NE(conn, nullptr);
  const auto outcome = h.wait(handle, 60_s);
  EXPECT_TRUE(outcome.completed);
  // Let the tail ACKs drain back to the source before inspecting it.
  h.simulator().run(h.simulator().now() + 5_s);
  EXPECT_GE(conn->acked_payload(), kib(64));
}

TEST(SeqTraceTest, RecordsMonotoneSamples) {
  SeqTrace trace;
  trace.add_sample(1_s, 100);
  trace.add_sample(2_s, 300);
  trace.add_sample(3_s, 700);
  EXPECT_EQ(trace.value_at(500_ms), 0u);
  EXPECT_EQ(trace.value_at(1_s), 100u);
  EXPECT_EQ(trace.value_at(2500_ms), 300u);
  EXPECT_EQ(trace.value_at(10_s), 700u);
}

TEST(SeqTraceTest, AttachRecordsAckAdvances) {
  const auto net = make_pair_net();
  auto& h = *net;
  session::TransferSpec spec;
  spec.dst = 1;
  spec.payload_bytes = mib(1);
  spec.tcp = tcp::TcpOptions{}.with_buffers(mib(1));
  SeqTrace trace;
  const auto origin = h.simulator().now();
  const auto handle = h.launch_traced(
      0, spec, [&](tcp::Connection& c) { trace.attach(c, origin); });
  (void)h.wait(handle, 60_s);
  h.simulator().run(h.simulator().now() + 5_s);  // drain tail ACKs
  ASSERT_FALSE(trace.empty());
  // The final sample covers the whole payload (header + 1 MB).
  EXPECT_GE(trace.samples().back().second, mib(1));
  // Samples are nondecreasing in both time and value.
  for (std::size_t i = 1; i < trace.samples().size(); ++i) {
    EXPECT_GE(trace.samples()[i].first, trace.samples()[i - 1].first);
    EXPECT_GE(trace.samples()[i].second, trace.samples()[i - 1].second);
  }
}

TEST(TraceAveragerTest, AveragesAcrossRuns) {
  TraceAverager averager(10_s, 1_s);
  SeqTrace run1;
  run1.add_sample(1_s, mib(2));
  SeqTrace run2;
  run2.add_sample(1_s, mib(4));
  averager.add_run("flow", run1);
  averager.add_run("flow", run2);
  const auto series = averager.series();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].label, "flow");
  // At and after t=1s the average is (2 + 4) / 2 = 3 MB.
  EXPECT_DOUBLE_EQ(series[0].mib_at_grid[1], 3.0);
  EXPECT_DOUBLE_EQ(series[0].mib_at_grid[9], 3.0);
  EXPECT_DOUBLE_EQ(series[0].mib_at_grid[0], 0.0);
}

TEST(TraceAveragerTest, SeparateLabelsSeparateSeries) {
  TraceAverager averager(4_s, 1_s);
  SeqTrace a;
  a.add_sample(1_s, mib(1));
  SeqTrace b;
  b.add_sample(1_s, mib(8));
  averager.add_run("sub1", a);
  averager.add_run("sub2", b);
  EXPECT_EQ(averager.series().size(), 2u);
  EXPECT_EQ(averager.grid_seconds().size(), 5u);
}

TEST(RawTcpTest, SingleTransferDeliversExactly) {
  sim::Simulator sim;
  net::Topology topo(sim, 3);
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_duplex_link(a, b, fast_link());
  topo.compute_routes();
  tcp::TcpStack sa(topo, a);
  tcp::TcpStack sb(topo, b);
  const auto r = run_raw_transfer(sim, sa, sb, mib(2),
                                  tcp::TcpOptions{}.with_buffers(mib(1)));
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.bytes_delivered, mib(2));
}

TEST(RawTcpTest, ParallelStripesDeliverExactly) {
  sim::Simulator sim;
  net::Topology topo(sim, 3);
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_duplex_link(a, b, fast_link());
  topo.compute_routes();
  tcp::TcpStack sa(topo, a);
  tcp::TcpStack sb(topo, b);
  // 10 MB over 4 stripes (not divisible evenly: 2.5 MB each).
  const auto r = run_raw_transfer(sim, sa, sb, 10 * kMiB,
                                  tcp::TcpOptions{}.with_buffers(mib(1)), 4);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.bytes_delivered, 10 * kMiB);
}

TEST(RawTcpTest, ParallelBeatsSingleOnLossyHighRttPath) {
  const auto run = [](std::size_t streams) {
    sim::Simulator sim;
    net::Topology topo(sim, 9);
    const auto a = topo.add_node("a");
    const auto b = topo.add_node("b");
    net::LinkConfig link;
    link.rate = Bandwidth::mbps(400);
    link.propagation_delay = 35_ms;
    link.queue_capacity_bytes = mib(8);
    link.loss_rate = 1e-3;
    topo.add_duplex_link(a, b, link);
    topo.compute_routes();
    tcp::TcpStack sa(topo, a);
    tcp::TcpStack sb(topo, b);
    return run_raw_transfer(sim, sa, sb, mib(16),
                            tcp::TcpOptions{}.with_buffers(mib(8)), streams);
  };
  const auto one = run(1);
  const auto four = run(4);
  ASSERT_TRUE(one.completed);
  ASSERT_TRUE(four.completed);
  EXPECT_GT(four.goodput.bits_per_second(),
            1.4 * one.goodput.bits_per_second());
}

}  // namespace
}  // namespace lsl::exp
