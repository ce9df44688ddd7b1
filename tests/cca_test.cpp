// Unit and end-to-end tests for the congestion-control zoo
// (tcp/congestion.hpp): the Cca selector plumbing, the window arithmetic
// of each stack driven hook by hook, and packet-level crossover behaviour
// on a lossy high-BDP path.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "exp/raw_tcp.hpp"
#include "fixtures.hpp"
#include "flow/tcp_model.hpp"
#include "tcp/congestion.hpp"
#include "tcp/options.hpp"

namespace lsl::tcp {
namespace {

constexpr std::uint64_t kMss = 1460;

TcpOptions options_for(Cca cca) { return TcpOptions{}.with_cca(cca); }

// ---------------------------------------------------------------------------
// Selector plumbing

TEST(CcaSelectorTest, ParseRoundTrips) {
  for (const Cca cca :
       {Cca::kReno, Cca::kNewReno, Cca::kCubic, Cca::kBbr}) {
    Cca parsed = Cca::kReno;
    ASSERT_TRUE(flow::parse_cca(flow::to_string(cca), parsed));
    EXPECT_EQ(parsed, cca);
  }
  Cca out;
  EXPECT_FALSE(flow::parse_cca("tahoe", out));
  EXPECT_FALSE(flow::parse_cca("", out));
  EXPECT_FALSE(flow::parse_cca("CUBIC", out));  // names are lowercase
}

TEST(CcaSelectorTest, FactoryBuildsRequestedStack) {
  for (const Cca cca :
       {Cca::kReno, Cca::kNewReno, Cca::kCubic, Cca::kBbr}) {
    const auto cc = make_congestion_control(options_for(cca));
    EXPECT_EQ(cc->kind(), cca);
  }
  // The default options stay on the historical NewReno baseline.
  EXPECT_EQ(make_congestion_control(TcpOptions{})->kind(), Cca::kNewReno);
}

// ---------------------------------------------------------------------------
// Reno / NewReno

TEST(RenoFamilyTest, PartialAckPolicyIsTheOnlyDifference) {
  RenoCc reno;
  NewRenoCc newreno;
  EXPECT_FALSE(reno.partial_ack_keeps_recovery());
  EXPECT_TRUE(newreno.partial_ack_keeps_recovery());
}

TEST(RenoFamilyTest, WindowArithmeticMatchesSeedBehaviour) {
  NewRenoCc cc;
  EXPECT_EQ(cc.cwnd(), 2 * kMss);  // initial_cwnd_segments = 2

  // Slow start: byte-counted, capped at one MSS per ACK.
  cc.on_ack(kMss, 10 * kMss, SimTime::zero(), SimTime::zero());
  EXPECT_EQ(cc.cwnd(), 3 * kMss);
  cc.on_ack(4 * kMss, 10 * kMss, SimTime::zero(), SimTime::zero());
  EXPECT_EQ(cc.cwnd(), 4 * kMss);

  // Loss: ssthresh = flight/2, cwnd inflated by the three dup ACKs.
  cc.on_enter_recovery(20 * kMss, SimTime::zero());
  EXPECT_EQ(cc.ssthresh(), 10 * kMss);
  EXPECT_EQ(cc.cwnd(), 13 * kMss);
  cc.on_recovery_dup_ack();
  EXPECT_EQ(cc.cwnd(), 14 * kMss);
  cc.on_recovery_exit(SimTime::zero());
  EXPECT_EQ(cc.cwnd(), 10 * kMss);

  // Congestion avoidance: integer mss*mss/cwnd growth per ACK.
  cc.on_ack(kMss, 10 * kMss, SimTime::zero(), SimTime::zero());
  EXPECT_EQ(cc.cwnd(), 10 * kMss + kMss * kMss / (10 * kMss));

  // RTO collapses to one segment.
  cc.on_rto(8 * kMss, SimTime::zero());
  EXPECT_EQ(cc.cwnd(), kMss);
  EXPECT_EQ(cc.ssthresh(), 4 * kMss);
}

// ---------------------------------------------------------------------------
// CUBIC

/// Slow-starts a CubicCc up to `segments` (ssthresh starts effectively
/// infinite, so each full-MSS ACK adds one segment).
void grow_to(CubicCc& cc, double segments) {
  while (cc.cwnd_segments() < segments) {
    cc.on_ack(kMss, 100 * kMss, SimTime::zero(), SimTime::milliseconds(100));
  }
}

TEST(CubicTest, LossResponseSetsWmaxAndBeta) {
  CubicCc cc;
  grow_to(cc, 100.0);
  ASSERT_DOUBLE_EQ(cc.cwnd_segments(), 100.0);

  cc.on_enter_recovery(100 * kMss, SimTime::seconds(1));
  EXPECT_DOUBLE_EQ(cc.w_max_segments(), 100.0);
  EXPECT_DOUBLE_EQ(cc.cwnd_segments(), 70.0);  // beta = 0.7
  EXPECT_EQ(cc.ssthresh(), 70 * kMss);
  EXPECT_EQ(cc.cwnd(), 70 * kMss + 3 * kMss);  // dup-ACK inflation

  cc.on_recovery_exit(SimTime::seconds(1));
  EXPECT_EQ(cc.cwnd(), 70 * kMss);
}

TEST(CubicTest, EpochAnchorsTheRfc8312Curve) {
  CubicCc cc;
  grow_to(cc, 100.0);
  cc.on_enter_recovery(100 * kMss, SimTime::seconds(1));
  cc.on_recovery_exit(SimTime::seconds(1));

  // First congestion-avoidance ACK starts the epoch: K = cbrt(w_max *
  // (1 - beta) / C), and W(0) = w_max - C*K^3 = beta * w_max continues
  // the window exactly where the reduction left it.
  cc.on_ack(kMss, 70 * kMss, SimTime::seconds(2),
            SimTime::milliseconds(100));
  EXPECT_NEAR(cc.k_seconds(), std::cbrt(100.0 * 0.3 / 0.4), 1e-12);
  EXPECT_FALSE(cc.in_tcp_friendly_region());
  EXPECT_GT(cc.cwnd_segments(), 70.0);  // concave climb has begun
  const double after_one_ack = cc.cwnd_segments();

  // Later in the epoch the curve has pulled the target well above w_max's
  // beta floor; growth accelerates toward w_max.
  cc.on_ack(kMss, 70 * kMss, SimTime::seconds(4),
            SimTime::milliseconds(100));
  EXPECT_GT(cc.cwnd_segments(), after_one_ack);
}

TEST(CubicTest, FastConvergenceShrinksWmaxOnBackToBackLoss) {
  CubicCc cc;
  grow_to(cc, 100.0);
  cc.on_enter_recovery(100 * kMss, SimTime::seconds(1));
  cc.on_recovery_exit(SimTime::seconds(1));
  const double cwnd_seg = cc.cwnd_segments();
  ASSERT_LT(cwnd_seg, cc.w_max_segments());

  // Losing again before regaining w_max releases share to the new flow:
  // w_max = cwnd * (1 + beta) / 2 < cwnd's old peak.
  cc.on_enter_recovery(70 * kMss, SimTime::seconds(2));
  EXPECT_NEAR(cc.w_max_segments(), cwnd_seg * (1.0 + 0.7) / 2.0, 1e-9);
  EXPECT_LT(cc.w_max_segments(), 100.0);
}

TEST(CubicTest, TcpFriendlyRegionFloorsAtAimdEstimate) {
  CubicCc cc;
  grow_to(cc, 10.0);
  cc.on_enter_recovery(10 * kMss, SimTime::seconds(1));
  cc.on_recovery_exit(SimTime::seconds(1));

  // Small w_max + short RTT: the AIMD estimate W_est = beta*w_max +
  // 3(1-beta)/(1+beta) * t/RTT races ahead of the flat cubic curve, so
  // CUBIC takes the Reno-equivalent window instead.
  cc.on_ack(kMss, 7 * kMss, SimTime::seconds(100),
            SimTime::milliseconds(10));
  cc.on_ack(kMss, 7 * kMss, SimTime::seconds(105),
            SimTime::milliseconds(10));
  EXPECT_TRUE(cc.in_tcp_friendly_region());
  const double w_est = 10.0 * 0.7 + (3.0 * 0.3 / 1.7) * (5.0 / 0.01);
  EXPECT_NEAR(cc.cwnd_segments(), w_est, 1.0);
}

TEST(CubicTest, RtoCollapsesToOneSegment) {
  CubicCc cc;
  grow_to(cc, 50.0);
  cc.on_rto(50 * kMss, SimTime::seconds(1));
  EXPECT_EQ(cc.cwnd(), kMss);
  EXPECT_DOUBLE_EQ(cc.w_max_segments(), 50.0);
  EXPECT_EQ(cc.ssthresh(), 35 * kMss);  // beta * 50
}

// ---------------------------------------------------------------------------
// BBR

TEST(BbrTest, PhaseMachineStartupDrainProbeBw) {
  BbrCc cc;
  const SimTime rtt = SimTime::milliseconds(50);
  cc.on_rtt_sample(rtt, SimTime::zero());
  EXPECT_EQ(cc.min_rtt(), rtt);
  EXPECT_EQ(cc.phase(), BbrCc::Phase::kStartup);

  // Two ACKs one RTT apart close the first delivery-rate round:
  // 29200 bytes over 50 ms = 4.672 Mbit/s.
  cc.on_ack(10 * kMss, 20 * kMss, SimTime::zero(), rtt);
  cc.on_ack(10 * kMss, 20 * kMss, rtt, rtt);
  EXPECT_DOUBLE_EQ(cc.btl_bw_bps(), 20.0 * kMss * 8.0 / 0.05);
  const std::uint64_t bdp =
      static_cast<std::uint64_t>(cc.btl_bw_bps() / 8.0 * 0.05);
  // Startup holds cwnd at kStartupGain * BDP.
  EXPECT_EQ(cc.cwnd(), static_cast<std::uint64_t>(
                           2.885 * static_cast<double>(bdp)));

  // Three consecutive rounds without 25% growth exit startup into drain.
  cc.on_ack(10 * kMss, 20 * kMss, SimTime::milliseconds(100), rtt);
  cc.on_ack(10 * kMss, 20 * kMss, SimTime::milliseconds(150), rtt);
  EXPECT_EQ(cc.phase(), BbrCc::Phase::kStartup);
  cc.on_ack(10 * kMss, 20 * kMss, SimTime::milliseconds(200), rtt);
  EXPECT_EQ(cc.phase(), BbrCc::Phase::kDrain);
  EXPECT_EQ(cc.cwnd(), bdp);  // drain gain = 1.0

  // Drain ends once flight has sunk to the BDP; probe-bw starts its gain
  // cycle on the probing step (1.25 * kCwndGain).
  cc.on_ack(10 * kMss, 10 * kMss, SimTime::milliseconds(250), rtt);
  EXPECT_EQ(cc.phase(), BbrCc::Phase::kProbeBw);
  EXPECT_EQ(cc.cwnd(), static_cast<std::uint64_t>(
                           2.0 * 1.25 * static_cast<double>(bdp)));
}

TEST(BbrTest, LossLeavesTheWindowAlone) {
  BbrCc cc;
  const SimTime rtt = SimTime::milliseconds(50);
  cc.on_rtt_sample(rtt, SimTime::zero());
  cc.on_ack(10 * kMss, 20 * kMss, SimTime::zero(), rtt);
  cc.on_ack(10 * kMss, 20 * kMss, rtt, rtt);
  const std::uint64_t before = cc.cwnd();
  ASSERT_GT(before, 4 * kMss);

  cc.on_enter_recovery(20 * kMss, rtt);
  cc.on_recovery_dup_ack();
  cc.on_partial_ack(kMss);
  cc.on_recovery_exit(rtt);
  EXPECT_EQ(cc.cwnd(), before);

  // Only the RTO's go-back-N restart collapses the window; the pipe model
  // (btl_bw, min_rtt) survives for the next round to re-inflate from.
  cc.on_rto(20 * kMss, rtt);
  EXPECT_EQ(cc.cwnd(), kMss);
  EXPECT_GT(cc.btl_bw_bps(), 0.0);
}

TEST(BbrTest, MinRttWindowExpiresStaleSamples) {
  BbrCc cc;
  cc.on_rtt_sample(SimTime::milliseconds(50), SimTime::zero());
  cc.on_rtt_sample(SimTime::milliseconds(80), SimTime::seconds(1));
  EXPECT_EQ(cc.min_rtt(), SimTime::milliseconds(50));  // min filter
  // Past the 10 s window the old floor is stale (path may have changed).
  cc.on_rtt_sample(SimTime::milliseconds(80), SimTime::seconds(12));
  EXPECT_EQ(cc.min_rtt(), SimTime::milliseconds(80));
}

// ---------------------------------------------------------------------------
// End to end: packet-level crossover on a lossy high-BDP path

exp::RawTransferResult run_high_bdp(Cca cca, std::uint64_t bytes) {
  net::LinkConfig link;
  link.rate = Bandwidth::mbps(2000);
  link.propagation_delay = SimTime::milliseconds(80);  // RTT 160 ms
  link.queue_capacity_bytes = mib(8);
  link.loss_rate = 1e-4;
  testing::TwoNodeNet net(link, /*seed=*/7);
  const TcpOptions opts = TcpOptions{}.with_buffers(mib(8)).with_cca(cca);
  return exp::run_raw_transfer(net.sim, *net.stack_a, *net.stack_b,
                               bytes, opts);
}

TEST(CcaCrossoverTest, CubicBeatsRenoOnLossyHighBdpPath) {
  // RTT 160 ms, loss 1e-4: past the crossover RTT (~57 ms at this loss)
  // where CUBIC's RTT^(-1/4) response function overtakes Mathis.
  const auto reno = run_high_bdp(Cca::kReno, mib(128));
  const auto cubic = run_high_bdp(Cca::kCubic, mib(128));
  ASSERT_TRUE(reno.completed);
  ASSERT_TRUE(cubic.completed);
  EXPECT_GT(cubic.goodput.megabits_per_second(),
            reno.goodput.megabits_per_second());
}

TEST(CcaCrossoverTest, BbrIgnoresRandomLossEntirely) {
  // Loss-agnostic BBR should run near the window limit (8 MiB / 160 ms
  // = ~400 Mbit/s) where every AIMD stack is pinned far below it. 256 MiB
  // so both stacks are past their transients (CUBIC's first loss cycle
  // lands ~15 MB in; BBR's startup converges within a few rounds).
  const auto cubic = run_high_bdp(Cca::kCubic, mib(256));
  const auto bbr = run_high_bdp(Cca::kBbr, mib(256));
  ASSERT_TRUE(bbr.completed);
  EXPECT_GT(bbr.goodput.megabits_per_second(),
            2.0 * cubic.goodput.megabits_per_second());
}

}  // namespace
}  // namespace lsl::tcp
