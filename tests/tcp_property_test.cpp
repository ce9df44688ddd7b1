// Property sweep over the TCP substrate: for every combination of loss
// rate, buffer size, SACK mode, and delayed-ACK mode, a bulk transfer must
// deliver exactly its byte count, terminate, and leave no connections
// behind. These are the invariants everything above the transport relies
// on.
#include <gtest/gtest.h>

#include <tuple>

#include "exp/raw_tcp.hpp"
#include "fixtures.hpp"
#include "tcp/connection.hpp"

namespace lsl::tcp {
namespace {

using namespace lsl::time_literals;
using testing::TwoNodeNet;
using exp::run_raw_transfer;

struct PropertyCase {
  double loss;
  std::uint64_t buffer;
  bool sack;
  bool delack;
  std::uint64_t seed;
};

std::string case_name(const ::testing::TestParamInfo<PropertyCase>& info) {
  const auto& c = info.param;
  char buf[96];
  std::snprintf(buf, sizeof buf, "loss%zu_buf%lluk_%s_%s_s%llu",
                static_cast<std::size_t>(c.loss * 1e5),
                static_cast<unsigned long long>(c.buffer / 1024),
                c.sack ? "sack" : "reno", c.delack ? "delack" : "perseg",
                static_cast<unsigned long long>(c.seed));
  return buf;
}

class TcpConservationTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(TcpConservationTest, ExactDeliveryAndCleanTermination) {
  const auto& c = GetParam();
  net::LinkConfig link;
  link.rate = Bandwidth::mbps(100);
  link.propagation_delay = 12_ms;
  link.queue_capacity_bytes = mib(1);
  link.loss_rate = c.loss;
  TwoNodeNet net(link, c.seed);

  auto options = TcpOptions{}.with_buffers(c.buffer);
  options.sack_enabled = c.sack;
  options.delayed_ack = c.delack;

  const std::uint64_t bytes = mib(2) + 12345;  // deliberately unaligned
  const auto r = run_raw_transfer(net.sim, *net.stack_a, *net.stack_b,
                                  bytes, options);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.bytes_delivered, bytes);

  // Everything torn down: TIME_WAIT drains within seconds.
  net.sim.run(net.sim.now() + 5_s);
  EXPECT_EQ(net.stack_a->open_connections(), 0u);
  EXPECT_EQ(net.stack_b->open_connections(), 0u);
}

std::vector<PropertyCase> make_cases() {
  std::vector<PropertyCase> cases;
  std::uint64_t seed = 1;
  for (const double loss : {0.0, 1e-4, 2e-3, 2e-2}) {
    for (const std::uint64_t buffer : {64 * kKiB, mib(1)}) {
      for (const bool sack : {true, false}) {
        for (const bool delack : {false, true}) {
          cases.push_back(PropertyCase{loss, buffer, sack, delack, seed++});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Matrix, TcpConservationTest,
                         ::testing::ValuesIn(make_cases()), case_name);

class TcpDeterminismTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TcpDeterminismTest, IdenticalSeedsProduceIdenticalRuns) {
  const auto run_once = [&] {
    net::LinkConfig link;
    link.rate = Bandwidth::mbps(80);
    link.propagation_delay = 15_ms;
    link.queue_capacity_bytes = kib(512);
    link.loss_rate = 1e-3;
    TwoNodeNet net(link, GetParam());
    return run_raw_transfer(net.sim, *net.stack_a, *net.stack_b, mib(3),
                            TcpOptions{}.with_buffers(mib(1)));
  };
  const auto r1 = run_once();
  const auto r2 = run_once();
  ASSERT_TRUE(r1.completed);
  EXPECT_EQ(r1.elapsed, r2.elapsed);
  EXPECT_EQ(r1.sender_stats.segments_sent, r2.sender_stats.segments_sent);
  EXPECT_EQ(r1.sender_stats.retransmits, r2.sender_stats.retransmits);
  EXPECT_EQ(r1.sender_stats.timeouts, r2.sender_stats.timeouts);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TcpDeterminismTest,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace lsl::tcp
