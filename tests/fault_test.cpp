// Fault subsystem: deterministic plans, churn expansion, injector
// application/healing, NWS measurement blackouts, scheduler reroutes
// around blacklisted depots, and the scenario-file fault directives.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "exp/harness.hpp"
#include "exp/scenario.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "nws/monitor.hpp"
#include "obs/metrics.hpp"
#include "sched/scheduler.hpp"
#include "util/rng.hpp"

namespace lsl {
namespace {

using namespace lsl::time_literals;

// ---- plans and churn ------------------------------------------------------

TEST(FaultPlanTest, SortedOrdersByTime) {
  fault::FaultPlan plan;
  plan.add({.kind = fault::FaultKind::kNwsBlackout, .at = 5_s});
  plan.add({.kind = fault::FaultKind::kDepotCrash, .at = 1_s, .node = 2});
  plan.add({.kind = fault::FaultKind::kLinkDown,
            .at = 3_s,
            .link_a = 0,
            .link_b = 1});
  const auto sorted = plan.sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].kind, fault::FaultKind::kDepotCrash);
  EXPECT_EQ(sorted[1].kind, fault::FaultKind::kLinkDown);
  EXPECT_EQ(sorted[2].kind, fault::FaultKind::kNwsBlackout);
}

TEST(FaultPlanTest, ChurnIsDeterministicPerSeed) {
  fault::ChurnSpec churn;
  churn.node = 1;
  churn.mtbf = 20_s;
  churn.mttr = 2_s;
  churn.horizon = 600_s;

  const auto expand = [&](std::uint64_t seed) {
    Rng rng(seed);
    fault::FaultPlan plan;
    plan.add_churn(churn, rng);
    return plan.faults;
  };
  const auto first = expand(42);
  const auto again = expand(42);
  const auto other = expand(43);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, again);
  EXPECT_NE(first, other);
}

TEST(FaultPlanTest, ChurnRespectsHorizonAndAlternates) {
  fault::ChurnSpec churn;
  churn.node = 3;
  churn.mtbf = 10_s;
  churn.mttr = 1_s;
  churn.start = 5_s;
  churn.horizon = 300_s;
  Rng rng(7);
  fault::FaultPlan plan;
  plan.add_churn(churn, rng);
  ASSERT_FALSE(plan.empty());
  for (const auto& f : plan.faults) {
    EXPECT_EQ(f.kind, fault::FaultKind::kDepotCrash);
    EXPECT_EQ(f.node, 3u);
    EXPECT_GE(f.at, churn.start);
    EXPECT_LT(f.at, churn.horizon);
    // Transient: every crash has a repair, clamped away from zero.
    EXPECT_GE(f.duration, SimTime::milliseconds(1));
  }
  // Crashes are spaced by up-time + repair, so they never overlap.
  for (std::size_t i = 1; i < plan.faults.size(); ++i) {
    EXPECT_GE(plan.faults[i].at,
              plan.faults[i - 1].at + plan.faults[i - 1].duration);
  }
}

// ---- injector -------------------------------------------------------------

TEST(FaultInjectorTest, LinkDownFlipsLossAndHeals) {
  obs::Registry registry;
  const obs::ScopedRegistry scope(registry);
  exp::SimHarness h(50);
  const auto a = h.add_host("a");
  const auto b = h.add_host("b");
  net::LinkConfig cfg;
  cfg.rate = Bandwidth::mbps(100);
  cfg.propagation_delay = 5_ms;
  cfg.loss_rate = 0.01;
  h.add_link(a, b, cfg);
  h.deploy(session::DepotConfig{});

  fault::FaultInjector injector(h.simulator(), h.topology());
  fault::FaultPlan plan;
  plan.add({.kind = fault::FaultKind::kLinkDown,
            .at = 1_s,
            .duration = 2_s,
            .link_a = a,
            .link_b = b});
  injector.schedule(plan);

  net::Link* forward = h.topology().link_between(a, b);
  net::Link* backward = h.topology().link_between(b, a);
  ASSERT_NE(forward, nullptr);
  ASSERT_NE(backward, nullptr);

  h.simulator().run(1500_ms);
  EXPECT_DOUBLE_EQ(forward->config().loss_rate, 1.0);
  EXPECT_DOUBLE_EQ(backward->config().loss_rate, 1.0);
  EXPECT_EQ(injector.active_faults(), 1);

  h.simulator().run(4_s);
  // Healing restores the original (nonzero) configured loss.
  EXPECT_DOUBLE_EQ(forward->config().loss_rate, 0.01);
  EXPECT_DOUBLE_EQ(backward->config().loss_rate, 0.01);
  EXPECT_EQ(injector.active_faults(), 0);
  EXPECT_EQ(registry.counter("fault.injected").value(), 1u);
  EXPECT_EQ(registry.counter("fault.healed").value(), 1u);
  EXPECT_EQ(registry.counter("fault.link_down").value(), 1u);
}

TEST(FaultInjectorTest, BrownoutUsesSpecLoss) {
  obs::Registry registry;
  const obs::ScopedRegistry scope(registry);
  exp::SimHarness h(51);
  const auto a = h.add_host("a");
  const auto b = h.add_host("b");
  net::LinkConfig cfg;
  cfg.rate = Bandwidth::mbps(100);
  cfg.propagation_delay = 5_ms;
  h.add_link(a, b, cfg);
  h.deploy(session::DepotConfig{});

  fault::FaultInjector injector(h.simulator(), h.topology());
  fault::FaultPlan plan;
  plan.add({.kind = fault::FaultKind::kLinkBrownout,
            .at = 1_s,
            .duration = 1_s,
            .link_a = a,
            .link_b = b,
            .loss = 0.42});
  injector.schedule(plan);

  net::Link* forward = h.topology().link_between(a, b);
  h.simulator().run(1500_ms);
  EXPECT_DOUBLE_EQ(forward->config().loss_rate, 0.42);
  h.simulator().run(3_s);
  EXPECT_DOUBLE_EQ(forward->config().loss_rate, 0.0);
  EXPECT_EQ(registry.counter("fault.link_brownouts").value(), 1u);
}

TEST(FaultInjectorTest, DepotAndNwsFaultsDriveControls) {
  obs::Registry registry;
  const obs::ScopedRegistry scope(registry);
  exp::SimHarness h(52);
  const auto a = h.add_host("a");
  const auto b = h.add_host("b");
  net::LinkConfig cfg;
  cfg.rate = Bandwidth::mbps(100);
  cfg.propagation_delay = 5_ms;
  h.add_link(a, b, cfg);
  h.deploy(session::DepotConfig{});

  std::vector<std::pair<net::NodeId, bool>> depot_events;
  std::vector<bool> nws_events;
  fault::FaultInjector injector(h.simulator(), h.topology());
  injector.set_depot_control([&](net::NodeId node, bool up) {
    depot_events.emplace_back(node, up);
  });
  injector.set_nws_control(
      [&](bool blackout) { nws_events.push_back(blackout); });

  fault::FaultPlan plan;
  plan.add({.kind = fault::FaultKind::kDepotCrash,
            .at = 1_s,
            .duration = 2_s,
            .node = b});
  plan.add({.kind = fault::FaultKind::kNwsBlackout, .at = 2_s,
            .duration = 3_s});
  injector.schedule(plan);
  h.simulator().run(10_s);

  ASSERT_EQ(depot_events.size(), 2u);
  EXPECT_EQ(depot_events[0], (std::pair<net::NodeId, bool>{b, false}));
  EXPECT_EQ(depot_events[1], (std::pair<net::NodeId, bool>{b, true}));
  ASSERT_EQ(nws_events.size(), 2u);
  EXPECT_TRUE(nws_events[0]);
  EXPECT_FALSE(nws_events[1]);
  EXPECT_EQ(registry.counter("fault.depot_crashes").value(), 1u);
  EXPECT_EQ(registry.counter("fault.depot_restarts").value(), 1u);
  EXPECT_EQ(registry.counter("fault.nws_blackouts").value(), 1u);
}

// ---- NWS blackout ---------------------------------------------------------

TEST(NwsBlackoutTest, BlackoutEpochsTakeNoMeasurements) {
  nws::PerformanceMonitor monitor({"siteA", "siteB"}, nws::NoiseModel{}, 9);
  const nws::TruthFn truth = [](std::size_t, std::size_t) {
    return Bandwidth::mbps(100.0);
  };
  monitor.set_blackout(true);
  for (int i = 0; i < 5; ++i) {
    monitor.observe_epoch(truth);
  }
  // No probes ran: the pair's bank never saw a measurement, so no forecast
  // exists.
  EXPECT_EQ(monitor.forecast(0, 1).bits_per_second(), 0.0);

  monitor.set_blackout(false);
  monitor.observe_epoch(truth);
  EXPECT_GT(monitor.forecast(0, 1).bits_per_second(), 0.0);
}

// ---- scheduler reroute ----------------------------------------------------

TEST(RerouteTest, ExcludeNodeMakesItUnroutable) {
  sched::CostMatrix matrix(3);
  matrix.set_bandwidth(0, 1, Bandwidth::mbps(100));
  matrix.set_bandwidth(1, 2, Bandwidth::mbps(100));
  matrix.set_bandwidth(0, 2, Bandwidth::mbps(10));
  matrix.set_bandwidth(1, 0, Bandwidth::mbps(100));
  matrix.set_bandwidth(2, 1, Bandwidth::mbps(100));
  matrix.set_bandwidth(2, 0, Bandwidth::mbps(10));
  matrix.exclude_node(1);
  EXPECT_EQ(matrix.cost(0, 1), sched::kInfiniteCost);
  EXPECT_EQ(matrix.cost(1, 2), sched::kInfiniteCost);
  EXPECT_EQ(matrix.cost(2, 1), sched::kInfiniteCost);
  // Untouched edges survive.
  EXPECT_LT(matrix.cost(0, 2), sched::kInfiniteCost);
}

TEST(RerouteTest, RouteAvoidingDegradesToDirect) {
  sched::CostMatrix matrix(3);
  const auto set = [&](std::size_t i, std::size_t j, double mbit) {
    matrix.set_bandwidth(i, j, Bandwidth::mbps(mbit));
    matrix.set_bandwidth(j, i, Bandwidth::mbps(mbit));
  };
  set(0, 1, 100);  // fast depot legs through node 1
  set(1, 2, 100);
  set(0, 2, 10);  // slow direct edge
  sched::Scheduler scheduler(matrix);
  EXPECT_EQ(scheduler.route(0, 2).via(), std::vector<net::NodeId>{1});

  const auto avoided = scheduler.route_avoiding(0, 2, {1});
  EXPECT_EQ(avoided.via(), std::vector<net::NodeId>{});
  ASSERT_EQ(avoided.path.size(), 2u);
  EXPECT_EQ(avoided.path.front(), 0u);
  EXPECT_EQ(avoided.path.back(), 2u);

  // An empty exclusion list must match the plain route.
  const auto same = scheduler.route_avoiding(0, 2, {});
  EXPECT_EQ(same.path, scheduler.route(0, 2).path);
}

// ---- scenario directives --------------------------------------------------

std::string kTriangle =
    "host a\nhost d\nhost b\n"
    "link a d rate=100 delay=5\n"
    "link d b rate=100 delay=5\n"
    "link a b rate=100 delay=10\n";

TEST(FaultScenarioTest, ParsesFaultChurnAndRecoveryDirectives) {
  const auto parsed = exp::parse_scenario(
      kTriangle +
      "fault depot-crash d at=2 for=3\n"
      "fault link-down a d at=1\n"
      "fault brownout d b at=4 for=2 loss=0.5\n"
      "fault nws-blackout at=6 for=60\n"
      "churn d mtbf=30 mttr=2 start=1 horizon=120\n"
      "recovery retries=4 stall=5 backoff=100 max_backoff=2000 "
      "jitter=0.1\n"
      "transfer a b size=1 via=d\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const auto& s = *parsed.scenario;

  ASSERT_EQ(s.faults.size(), 4u);
  EXPECT_EQ(s.faults[0].kind, fault::FaultKind::kDepotCrash);
  EXPECT_EQ(s.faults[0].a, "d");
  EXPECT_DOUBLE_EQ(s.faults[0].at_s, 2.0);
  EXPECT_DOUBLE_EQ(s.faults[0].for_s, 3.0);
  EXPECT_EQ(s.faults[1].kind, fault::FaultKind::kLinkDown);
  EXPECT_DOUBLE_EQ(s.faults[1].for_s, 0.0);  // permanent
  EXPECT_EQ(s.faults[2].kind, fault::FaultKind::kLinkBrownout);
  EXPECT_DOUBLE_EQ(s.faults[2].loss, 0.5);
  EXPECT_EQ(s.faults[3].kind, fault::FaultKind::kNwsBlackout);

  ASSERT_EQ(s.churns.size(), 1u);
  EXPECT_EQ(s.churns[0].node, "d");
  EXPECT_DOUBLE_EQ(s.churns[0].mtbf_s, 30.0);
  EXPECT_DOUBLE_EQ(s.churns[0].mttr_s, 2.0);

  ASSERT_TRUE(s.recovery.has_value());
  EXPECT_TRUE(s.recovery->enabled);
  EXPECT_EQ(s.recovery->max_retries, 4);
  EXPECT_EQ(s.recovery->stall_timeout, 5_s);
  EXPECT_EQ(s.recovery->initial_backoff, 100_ms);
  EXPECT_EQ(s.recovery->max_backoff, 2_s);
  EXPECT_DOUBLE_EQ(s.recovery->backoff_jitter, 0.1);
}

TEST(FaultScenarioTest, RecoveryOffDisablesRetries) {
  const auto parsed =
      exp::parse_scenario(kTriangle + "recovery off\ntransfer a b size=1\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_TRUE(parsed.scenario->recovery.has_value());
  EXPECT_FALSE(parsed.scenario->recovery->enabled);
}

TEST(FaultScenarioTest, RejectsBadFaultDirectives) {
  EXPECT_FALSE(
      exp::parse_scenario(kTriangle + "fault meteor-strike a at=1\n").ok());
  EXPECT_FALSE(  // missing at=
      exp::parse_scenario(kTriangle + "fault depot-crash d\n").ok());
  EXPECT_FALSE(  // unknown host
      exp::parse_scenario(kTriangle + "fault depot-crash x at=1\n").ok());
  EXPECT_FALSE(  // loss only applies to brownouts
      exp::parse_scenario(kTriangle + "fault link-down a d at=1 loss=0.5\n")
          .ok());
  EXPECT_FALSE(  // churn needs positive means
      exp::parse_scenario(kTriangle + "churn d mtbf=0\n").ok());
  EXPECT_FALSE(
      exp::parse_scenario(kTriangle + "recovery warp=9\n").ok());
}

TEST(FaultScenarioTest, CrashedDepotScenarioRecoversEndToEnd) {
  const auto parsed = exp::parse_scenario(
      kTriangle +
      "fault depot-crash d at=0.3 for=2\n"
      "recovery retries=4 stall=5\n"
      "transfer a b size=8 via=d\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  std::size_t leaked = 99;
  const auto outcomes =
      exp::run_scenario(*parsed.scenario, 11, 600_s, nullptr, &leaked);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].outcome.completed);
  EXPECT_TRUE(outcomes[0].outcome.recovered);
  EXPECT_GE(outcomes[0].outcome.retries, 1);
  EXPECT_EQ(leaked, 0u);
}

TEST(FaultScenarioTest, FaultWithoutRecoveryDirectiveReportsFailure) {
  // Faulty scenarios run detection-only when `recovery` is absent: the
  // transfer is reported failed promptly instead of hanging.
  const auto parsed = exp::parse_scenario(
      kTriangle +
      "fault depot-crash d at=0.3\n"
      "transfer a b size=8 via=d\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  std::size_t leaked = 99;
  const auto outcomes =
      exp::run_scenario(*parsed.scenario, 12, 600_s, nullptr, &leaked);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].outcome.completed);
  EXPECT_TRUE(outcomes[0].outcome.failed);
  EXPECT_EQ(outcomes[0].outcome.retries, 0);
  EXPECT_EQ(leaked, 0u);
}

}  // namespace
}  // namespace lsl
