// Model-checking subsystem: explorer choice-tree enumeration, sleep-set
// pruning, deterministic counterexample replay, the mc::Invariants suite,
// fault-plan perturbation/randomization, mutation smoke tests (seeded bugs
// the explorer must catch), the pinned stale-offset regression, and the
// 64-seed fault-schedule fuzz.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "exp/harness.hpp"
#include "exp/scenario.hpp"
#include "fault/plan.hpp"
#include "lsl/endpoint.hpp"
#include "mc/explorer.hpp"
#include "mc/fuzzer.hpp"
#include "mc/hooks.hpp"
#include "mc/invariants.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace lsl {
namespace {

using namespace lsl::time_literals;

// ---- toy choice tree ------------------------------------------------------
//
// Three events ready at the same instant: A (actor 1) and B (actor 2) are
// independent; P (actor 0) is conservatively dependent on everything. Of the
// six orders, BAP is a pure commutation of ABP (A and B swap with nothing
// dependent between them), so a sound sleep-set search covers five classes.

const sim::Tag kToyA{"toy.A", sim::Layer::kSim};
const sim::Tag kToyB{"toy.B", sim::Layer::kSim};
const sim::Tag kToyP{"toy.P", sim::Layer::kSim};

mc::ScenarioFn toy_scenario(std::vector<std::string>* orders) {
  return [orders](mc::RunContext& ctx) {
    sim::Simulator sim;
    ctx.attach(sim);
    auto order = std::make_shared<std::string>();
    sim.schedule_at(1_ms, [order] { *order += 'A'; }, kToyA, 1);
    sim.schedule_at(1_ms, [order] { *order += 'B'; }, kToyB, 2);
    sim.schedule_at(1_ms, [order] { *order += 'P'; }, kToyP, 0);
    sim.run();
    if (orders != nullptr) {
      orders->push_back(*order);
    }
  };
}

TEST(McExplorerTest, FullTreeEnumerationWithSleepSets) {
  std::vector<std::string> orders;
  mc::ExplorerOptions opts;
  opts.max_runs = 64;
  mc::Explorer explorer(toy_scenario(&orders), opts);
  const mc::ExploreStats& stats = explorer.explore();

  EXPECT_EQ(stats.runs, 5u);
  EXPECT_EQ(stats.distinct_schedules, 4u);
  EXPECT_EQ(stats.redundant_runs, 1u);
  EXPECT_EQ(stats.branches_pruned_sleep, 1u);
  EXPECT_EQ(stats.choice_points, 9u);
  EXPECT_EQ(stats.violation_runs, 0u);
  EXPECT_TRUE(explorer.counterexamples().empty());

  ASSERT_EQ(orders.size(), 5u);
  // Run 0 takes the kernel's deterministic order (schedule order).
  EXPECT_EQ(orders[0], "ABP");
  std::vector<std::string> sorted = orders;
  std::sort(sorted.begin(), sorted.end());
  // BAP never executes: it is ABP with the independent A/B pair swapped.
  const std::vector<std::string> expected = {"ABP", "APB", "BPA", "PAB",
                                             "PBA"};
  EXPECT_EQ(sorted, expected);
}

TEST(McExplorerTest, SleepSetsOffEnumeratesAllInterleavings) {
  std::vector<std::string> orders;
  mc::ExplorerOptions opts;
  opts.max_runs = 64;
  opts.sleep_sets = false;
  mc::Explorer explorer(toy_scenario(&orders), opts);
  const mc::ExploreStats& stats = explorer.explore();

  EXPECT_EQ(stats.runs, 6u);
  EXPECT_EQ(stats.distinct_schedules, 6u);
  EXPECT_EQ(stats.redundant_runs, 0u);
  EXPECT_EQ(stats.branches_pruned_sleep, 0u);
  EXPECT_EQ(stats.choice_points, 12u);

  std::vector<std::string> sorted = orders;
  std::sort(sorted.begin(), sorted.end());
  const std::vector<std::string> expected = {"ABP", "APB", "BAP",
                                             "BPA", "PAB", "PBA"};
  EXPECT_EQ(sorted, expected);
}

TEST(McExplorerTest, ReplayIsBitIdentical) {
  std::vector<std::string> orders;
  mc::Explorer explorer(toy_scenario(&orders), {});

  const mc::RunRecord r1 = explorer.replay({1});
  const mc::RunRecord r2 = explorer.replay({1});
  EXPECT_NE(r1.schedule_hash, 0u);
  EXPECT_EQ(r1.schedule_hash, r2.schedule_hash);
  EXPECT_EQ(r1.events, r2.events);
  ASSERT_EQ(orders.size(), 2u);
  EXPECT_EQ(orders[0], "BPA");
  EXPECT_EQ(orders[1], orders[0]);

  // The default schedule hashes differently.
  const mc::RunRecord base = explorer.replay({});
  EXPECT_EQ(orders.back(), "ABP");
  EXPECT_NE(base.schedule_hash, r1.schedule_hash);
}

TEST(McExplorerTest, SlackWindowWidensChoicePoints) {
  // Two dependent events 200us apart: not a tie, so slack 0 sees no choice
  // point; slack 500us lets the explorer reorder them.
  auto scenario = [](std::vector<std::string>* orders) -> mc::ScenarioFn {
    return [orders](mc::RunContext& ctx) {
      sim::Simulator sim;
      ctx.attach(sim);
      auto order = std::make_shared<std::string>();
      sim.schedule_at(1_ms, [order] { *order += 'A'; }, kToyA, 0);
      sim.schedule_at(SimTime::microseconds(1200), [order] { *order += 'B'; },
                      kToyB, 0);
      sim.run();
      if (orders != nullptr) {
        orders->push_back(*order);
      }
    };
  };

  {
    std::vector<std::string> orders;
    mc::Explorer tight(scenario(&orders), {});
    const mc::ExploreStats& stats = tight.explore();
    EXPECT_EQ(stats.runs, 1u);
    EXPECT_EQ(stats.choice_points, 0u);
    EXPECT_EQ(orders, std::vector<std::string>{"AB"});
  }
  {
    std::vector<std::string> orders;
    mc::ExplorerOptions opts;
    opts.slack = 500_us;
    mc::Explorer loose(scenario(&orders), opts);
    const mc::ExploreStats& stats = loose.explore();
    EXPECT_EQ(stats.runs, 2u);
    EXPECT_EQ(stats.distinct_schedules, 2u);
    std::vector<std::string> sorted = orders;
    std::sort(sorted.begin(), sorted.end());
    const std::vector<std::string> expected = {"AB", "BA"};
    EXPECT_EQ(sorted, expected);
  }
}

// ---- invariant suite ------------------------------------------------------

bool any_contains(const std::vector<std::string>& violations,
                  const std::string& needle) {
  return std::any_of(violations.begin(), violations.end(),
                     [&needle](const std::string& v) {
                       return v.find(needle) != std::string::npos;
                     });
}

TEST(McInvariantsTest, CleanRunHasNoViolations) {
  mc::Invariants inv;
  inv.on_buffer(1, 4096);
  inv.on_commit(7, 0, 50);
  inv.on_deliver(7, 0, 50);
  inv.on_commit(7, 50, 100);
  inv.on_deliver(7, 50, 100);
  inv.on_buffer(1, -4096);
  inv.note_outcome(7, 100, /*completed=*/true, /*failed=*/false);
  inv.finalize();
  EXPECT_TRUE(inv.ok()) << inv.violations().front();
}

TEST(McInvariantsTest, CommittedOffsetMustBeMonotone) {
  mc::Invariants inv;
  inv.on_commit(7, 0, 100);
  inv.on_commit(7, 0, 40);
  ASSERT_FALSE(inv.ok());
  EXPECT_TRUE(any_contains(inv.violations(),
                           "committed offset regressed 100 -> 40"));
}

TEST(McInvariantsTest, OverlappingDeliveryIsDoubleDelivery) {
  mc::Invariants inv;
  inv.on_deliver(7, 0, 100);
  inv.on_deliver(7, 60, 160);
  ASSERT_FALSE(inv.ok());
  EXPECT_TRUE(any_contains(
      inv.violations(),
      "byte delivered twice: [60, 160) overlaps delivered prefix 100"));
}

TEST(McInvariantsTest, DeliveryGapIsByteLoss) {
  mc::Invariants inv;
  inv.on_deliver(7, 0, 100);
  inv.on_deliver(7, 150, 200);
  ASSERT_FALSE(inv.ok());
  EXPECT_TRUE(
      any_contains(inv.violations(), "byte lost: delivery skipped [100, 150)"));
}

TEST(McInvariantsTest, EmptyDeliveryRangeIsFlagged) {
  mc::Invariants inv;
  inv.on_deliver(7, 100, 100);
  ASSERT_FALSE(inv.ok());
  EXPECT_TRUE(any_contains(inv.violations(), "empty delivery range"));
}

TEST(McInvariantsTest, BlacklistedDepotMustNotBeReselected) {
  mc::Invariants inv;
  inv.on_attempt(7, /*via=*/{2}, /*blacklist=*/{1});
  EXPECT_TRUE(inv.ok());
  inv.on_attempt(7, /*via=*/{1}, /*blacklist=*/{1, 3});
  ASSERT_FALSE(inv.ok());
  EXPECT_TRUE(
      any_contains(inv.violations(), "blacklisted depot 1 re-selected"));
}

TEST(McInvariantsTest, BufferAccountingMustBalance) {
  {
    mc::Invariants inv;
    inv.on_buffer(2, -512);
    ASSERT_FALSE(inv.ok());
    EXPECT_TRUE(any_contains(inv.violations(),
                             "depot 2 buffer accounting went negative"));
  }
  {
    mc::Invariants inv;
    inv.on_buffer(2, 512);
    inv.finalize();
    ASSERT_FALSE(inv.ok());
    EXPECT_TRUE(any_contains(
        inv.violations(),
        "depot 2 buffer accounting did not return to zero (512 bytes"));
  }
}

TEST(McInvariantsTest, EverySessionMustTerminate) {
  mc::Invariants inv;
  inv.on_commit(7, 0, 40);
  inv.note_outcome(7, 100, /*completed=*/false, /*failed=*/false);
  inv.finalize();
  ASSERT_FALSE(inv.ok());
  EXPECT_TRUE(any_contains(inv.violations(),
                           "did not terminate (neither delivered nor failed; "
                           "committed 40 of 100)"));
}

TEST(McInvariantsTest, CompletedSessionMustDeliverWholePayload) {
  mc::Invariants inv;
  inv.on_deliver(7, 0, 60);
  inv.note_outcome(7, 100, /*completed=*/true, /*failed=*/false);
  inv.finalize();
  ASSERT_FALSE(inv.ok());
  EXPECT_TRUE(any_contains(inv.violations(),
                           "byte lost: completed session"));
  EXPECT_TRUE(any_contains(inv.violations(), "delivered 60 of 100"));
}

TEST(McInvariantsTest, CommitBeyondPayloadIsFlagged) {
  mc::Invariants inv;
  inv.on_deliver(7, 0, 100);
  inv.on_commit(7, 0, 140);
  inv.note_outcome(7, 100, /*completed=*/true, /*failed=*/false);
  inv.finalize();
  ASSERT_FALSE(inv.ok());
  EXPECT_TRUE(any_contains(inv.violations(),
                           "committed offset 140 beyond payload 100"));
}

TEST(McInvariantsTest, UnnotedSessionsGetNoVerdict) {
  // Mid-run observations without an outcome (e.g. a depot-internal relay
  // session) must not trip termination checks.
  mc::Invariants inv;
  inv.on_commit(9, 0, 10);
  inv.finalize();
  EXPECT_TRUE(inv.ok());
}

// ---- fault-plan perturbation and randomization ----------------------------

TEST(FaultPerturbationsTest, ShiftsOneFaultPerVariant) {
  fault::FaultPlan plan;
  plan.add({.kind = fault::FaultKind::kDepotCrash, .at = 1_s, .node = 1});
  plan.add({.kind = fault::FaultKind::kLinkDown,
            .at = 5_s,
            .link_a = 0,
            .link_b = 2});
  plan.add({.kind = fault::FaultKind::kNwsBlackout, .at = SimTime::zero()});

  const std::vector<fault::Perturbation> variants = fault::perturbations(
      plan, {SimTime::seconds(-2), SimTime::zero(), 1_s});

  // Per fault: -2s and +1s; the zero offset is a no-op and is dropped, and
  // the original is never a variant. Fault 0's -2s shift clamps to t=0;
  // fault 2 sits at zero, so its -2s shift clamps onto it and is dropped.
  const std::vector<std::pair<std::size_t, SimTime>> labels = {
      {0, SimTime::seconds(-2)}, {0, 1_s}, {1, SimTime::seconds(-2)},
      {1, 1_s}, {2, 1_s}};
  const std::vector<SimTime> shifted_to = {SimTime::zero(), 2_s, 3_s, 6_s,
                                           1_s};
  ASSERT_EQ(variants.size(), labels.size());
  for (std::size_t v = 0; v < variants.size(); ++v) {
    // Each variant names the fault it moved and the offset, and its plan
    // differs from the original in that fault's time alone.
    const fault::Perturbation& p = variants[v];
    EXPECT_EQ(p.fault, labels[v].first) << v;
    EXPECT_EQ(p.offset, labels[v].second) << v;
    fault::FaultPlan expected = plan;
    expected.faults[p.fault].at = shifted_to[v];
    EXPECT_EQ(p.plan.faults, expected.faults) << v;
  }

  // A shift that clamps exactly onto the original time produces no variant.
  fault::FaultPlan at_zero;
  at_zero.add({.kind = fault::FaultKind::kDepotCrash, .at = SimTime::zero(),
               .node = 1});
  EXPECT_TRUE(fault::perturbations(at_zero, {SimTime::seconds(-2)}).empty());
  EXPECT_TRUE(fault::perturbations(plan, {}).empty());
  EXPECT_TRUE(fault::perturbations(fault::FaultPlan{}, {1_s}).empty());
}

TEST(FaultRandomPlanTest, DeterministicAndBounded) {
  fault::RandomPlanSpec spec;
  spec.depots = {1};
  spec.links = {{0, 1}, {1, 2}, {0, 2}};

  Rng r1(7);
  Rng r2(7);
  const fault::FaultPlan p1 = fault::random_plan(spec, r1);
  const fault::FaultPlan p2 = fault::random_plan(spec, r2);
  EXPECT_EQ(p1.faults, p2.faults);

  ASSERT_GE(p1.faults.size(), std::size_t{fault::kMinRandomFaults});
  ASSERT_LE(p1.faults.size(), std::size_t{fault::kMaxRandomFaults});
  for (const fault::FaultSpec& f : p1.faults) {
    EXPECT_LT(f.at, fault::kRandomFaultHorizon);
    EXPECT_GE(f.at, SimTime::zero());
    // Never permanent: a stranded fault would leave depot relays holding
    // buffer grants forever, a false buffer-balance violation.
    EXPECT_GT(f.duration, SimTime::zero());
    EXPECT_LE(f.duration, fault::kMaxFaultDuration);
    EXPECT_TRUE(f.kind == fault::FaultKind::kDepotCrash ||
                f.kind == fault::FaultKind::kLinkDown ||
                f.kind == fault::FaultKind::kLinkBrownout);
    if (f.kind == fault::FaultKind::kDepotCrash) {
      EXPECT_EQ(f.node, 1u);
    }
  }

  Rng r3(8);
  const fault::FaultPlan p3 = fault::random_plan(spec, r3);
  EXPECT_NE(p1.faults, p3.faults);
}

// ---- mutation smoke -------------------------------------------------------
//
// Re-introduce known-fixed protocol bugs via the mutation registry and prove
// the explorer finds them; the same exploration is clean on trunk. This is
// the guard that the verification harness would actually catch a regression.

constexpr char kBlacklistScenario[] =
    "host a\nhost d\nhost b\n"
    "link a d rate=100 delay=5\n"
    "link d b rate=100 delay=5\n"
    "link a b rate=100 delay=10\n"
    "fault depot-crash d at=0.2 for=30\n"
    "recovery retries=3 stall=2 backoff=100 max_backoff=400\n"
    "transfer a b size=2 via=d\n";

TEST(McMutationSmokeTest, ExplorerCatchesRevertedBlacklistGuard) {
  const auto parsed = exp::parse_scenario(kBlacklistScenario);
  ASSERT_TRUE(parsed.ok()) << parsed.error;

  mc::ExplorerOptions opts;
  opts.max_runs = 3;
  {
    // skip_blacklist_filter reverts recovery.cpp's relaunch_with() to the
    // pre-fix behavior: retries re-select the crashed depot instead of
    // filtering it out of the route.
    mc::ScopedMutation revert("skip_blacklist_filter");
    mc::Explorer explorer(mc::scenario_fn(*parsed.scenario, 11), opts);
    explorer.explore();
    ASSERT_FALSE(explorer.counterexamples().empty());
    const mc::Counterexample& ce = explorer.counterexamples().front();
    EXPECT_TRUE(any_contains(ce.run.violations, "blacklisted depot 1"))
        << ce.str();
    EXPECT_FALSE(ce.post_mortem.empty());
    // The counterexample str() is the CI artifact: it must carry the replay
    // key and the violation text.
    EXPECT_NE(ce.str().find("replay picks"), std::string::npos);
    EXPECT_NE(ce.str().find("blacklisted depot"), std::string::npos);
  }
  {
    mc::Explorer explorer(mc::scenario_fn(*parsed.scenario, 11), opts);
    const mc::ExploreStats& stats = explorer.explore();
    EXPECT_TRUE(explorer.counterexamples().empty()) << stats.str();
    EXPECT_EQ(stats.violation_runs, 0u);
  }
}

// ---- pinned regression ----------------------------------------------------

// Stale-offset probe race (fixed in depot.cpp deliver_chunk, this PR).
//
// Topology: fast a-d hop, slow 150ms-latency pinned d-b hop, fast direct
// a-b fallback. The depot d relays in ACK-clocked slow-start bursts (300ms
// RTT); the crash at t=1.56s lands mid-burst, so ~20KB of relayed data is
// still in flight d->b, with the RST queued FIFO behind it. The source sees
// its own RST in 2ms, backs off 20ms, probes the sink for its committed
// offset C1=32120, and resumes direct from C1 at 100mbps -- racing far past
// C1 before the stale burst lands at t=1.67s and re-delivers [32120, ...).
// Before the fix both copies reached the application: a classic
// stale-offset double delivery. The fix routes resumable deliveries through
// the sink's progress ledger and clamps each chunk to the ledger delta, so
// whichever relay delivers a byte first wins and the other's copy is
// dropped.
//
// Minimized choice trace: [] -- the default schedule already realizes the
// race (the resume beats the in-flight burst by construction), so no
// interleaving perturbation is needed to reproduce it. The mutation
// skip_delivery_dedup reverts the ledger clamp and the explorer reports
// "byte delivered twice" on run 1.
constexpr char kStaleProbeScenario[] =
    "host a\nhost d\nhost b\n"
    "link a d rate=100 delay=2\n"
    "link d b rate=5 delay=150\n"
    "link a b rate=100 delay=5\n"
    "pin d b\n"
    "fault depot-crash d at=1.56 for=2\n"
    "recovery retries=6 stall=2 backoff=20 max_backoff=400\n"
    "transfer a b size=4 via=d\n";

TEST(McRegressionTest, StaleOffsetProbeRaceDoubleDelivery) {
  const auto parsed = exp::parse_scenario(kStaleProbeScenario);
  ASSERT_TRUE(parsed.ok()) << parsed.error;

  mc::ExplorerOptions opts;
  opts.max_runs = 4;
  {
    mc::ScopedMutation revert("skip_delivery_dedup");
    mc::Explorer explorer(mc::scenario_fn(*parsed.scenario, 5), opts);
    explorer.explore();
    ASSERT_FALSE(explorer.counterexamples().empty());
    const mc::Counterexample& ce = explorer.counterexamples().front();
    EXPECT_TRUE(any_contains(ce.run.violations, "byte delivered twice"))
        << ce.str();
    EXPECT_TRUE(ce.picks.empty())
        << "race should reproduce on the default schedule; got picks "
        << ce.picks_csv();
  }
  {
    // With the ledger clamp in place the same exploration is clean.
    mc::Explorer explorer(mc::scenario_fn(*parsed.scenario, 5), opts);
    const mc::ExploreStats& stats = explorer.explore();
    EXPECT_TRUE(explorer.counterexamples().empty()) << stats.str();
    EXPECT_EQ(stats.violation_runs, 0u);
  }
}

// ---- scenario verification and fuzzing ------------------------------------

TEST(McVerifyTest, PerturbedVariantsShareTheRunBudget) {
  const auto parsed = exp::parse_scenario(kBlacklistScenario);
  ASSERT_TRUE(parsed.ok()) << parsed.error;

  mc::VerifyOptions vopts;
  vopts.explorer.max_runs = 8;
  vopts.perturb_offsets = {SimTime::from_seconds(0.2)};
  const mc::VerifyResult result = mc::verify_scenario(*parsed.scenario, 11,
                                                      vopts);
  // Original + the single depot-crash fault shifted +0.2s.
  ASSERT_EQ(result.variant_labels.size(), 2u);
  EXPECT_EQ(result.variant_labels[0], "original");
  EXPECT_NE(result.variant_labels[1].find("depot-crash"), std::string::npos);
  EXPECT_NE(result.variant_labels[1].find("+0.2s"), std::string::npos);
  EXPECT_TRUE(result.ok());
  EXPECT_GE(result.stats.runs, 2u);
}

TEST(McVerifyTest, VariantLabelsComeFromThePerturbations) {
  // Two declared faults, three offsets: the crash at 0.2s takes every
  // nonzero shift (-0.5s clamps to zero), the link fault at zero cannot
  // move earlier, and the zero offset moves nothing.
  const auto parsed = exp::parse_scenario(
      std::string(kBlacklistScenario) + "fault link-down a b at=0 for=0.1\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error;

  mc::VerifyOptions vopts;
  vopts.explorer.max_runs = 4;
  vopts.perturb_offsets = {SimTime::from_seconds(-0.5), SimTime::zero(),
                           SimTime::from_seconds(0.3)};
  const mc::VerifyResult result =
      mc::verify_scenario(*parsed.scenario, 11, vopts);
  EXPECT_EQ(result.variant_labels,
            (std::vector<std::string>{
                "original",
                "fault 0 (depot-crash) shifted -0.5s",
                "fault 0 (depot-crash) shifted +0.3s",
                "fault 1 (link-down) shifted +0.3s",
            }));
  EXPECT_TRUE(result.ok());
  EXPECT_GE(result.stats.runs, result.variant_labels.size());
}

TEST(McFuzzTest, SixtyFourRandomFaultSchedulesHoldInvariants) {
  const auto parsed = exp::parse_scenario(
      "host a\nhost d\nhost b\n"
      "link a d rate=100 delay=5\n"
      "link d b rate=50 delay=10\n"
      "link a b rate=100 delay=20\n"
      "recovery retries=6 stall=2 backoff=100 max_backoff=1000\n"
      "transfer a b size=8 via=d\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error;

  const mc::FuzzResult result =
      mc::fuzz_fault_schedules(*parsed.scenario, 2004, 64);
  EXPECT_EQ(result.runs, 64u);
  EXPECT_TRUE(result.ok()) << result.str();
  EXPECT_TRUE(result.bad_seeds.empty());
}

TEST(McFuzzTest, ScenarioWithoutRecoveryDirectiveGetsTheDefaultLoop) {
  // No `recovery` directive: every fuzzed plan runs under a default
  // recovery loop, so a crashed depot ends in a resume, not a failed
  // session (without the loop, run_scenario only detects failures).
  const auto parsed = exp::parse_scenario(
      "host a\nhost d\nhost b\n"
      "link a d rate=10 delay=5\n"
      "link d b rate=10 delay=10\n"
      "link a b rate=10 delay=20\n"
      "transfer a b size=8 via=d\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_FALSE(parsed.scenario->recovery.has_value());

  obs::Registry registry;
  const obs::ScopedRegistry scope(registry);
  const mc::FuzzResult result =
      mc::fuzz_fault_schedules(*parsed.scenario, 31, 8);
  EXPECT_EQ(result.runs, 8u);
  EXPECT_TRUE(result.ok()) << result.str();
  EXPECT_EQ(result.str(), "fault fuzz: 8 runs, 0 bad seeds, 0 violations");
  EXPECT_GT(registry.counter("lsl.recovery.sessions_recovered").value(), 0u);
  EXPECT_EQ(registry.counter("lsl.recovery.sessions_failed").value(), 0u);
}

TEST(McFuzzTest, ResultListsEveryViolationUnderItsSeed) {
  mc::FuzzResult result;
  result.runs = 3;
  result.bad_seeds = {12};
  result.violations = {"seed 12: byte delivered twice",
                       "seed 12: session never terminated"};
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.str(),
            "fault fuzz: 3 runs, 1 bad seeds, 2 violations\n"
            "  seed 12: byte delivered twice\n"
            "  seed 12: session never terminated");
}

// ---- depot store eviction interleavings -----------------------------------

TEST(McDepotStoreTest, ExplorerInterleavesEvictionOrderings) {
  // Symmetric async parks: two identical sessions (a->e and b->e via depot
  // d over mirror-image links) drain into d at the same instant, so their
  // deferred depot.store events are simultaneously ready. The store cap
  // fits one session but not both, so whichever store fires second evicts
  // the first -- and because both events carry depot d's store actor tag
  // they are dependent, forcing the explorer to run both orders. Flow
  // fidelity keeps the event count small enough that the tie is reachable
  // within a modest run budget.
  std::vector<int> survivors;  // per run: 0 = session A survived, 1 = B
  mc::ScenarioFn scenario = [&survivors](mc::RunContext& ctx) {
    exp::SimHarness h(51, exp::Fidelity::kFlow);
    ctx.attach(h.simulator());
    const net::NodeId a = h.add_host("a");
    const net::NodeId b = h.add_host("b");
    const net::NodeId d = h.add_host("d");
    const net::NodeId e = h.add_host("e");
    net::LinkConfig link;
    link.rate = Bandwidth::mbps(200);
    link.propagation_delay = 3_ms;
    h.add_link(a, d, link);
    h.add_link(b, d, link);
    h.add_link(d, e, link);
    session::DepotConfig cfg;
    cfg.tcp = tcp::TcpOptions{}.with_buffers(mib(1));
    cfg.max_store_bytes = mib(3);  // one 2 MiB session fits, two do not
    h.deploy(cfg);

    session::TransferSpec spec;
    spec.dst = e;
    spec.via = {d};
    spec.async_session = true;
    spec.payload_bytes = mib(2);
    spec.tcp = tcp::TcpOptions{}.with_buffers(mib(1));
    const auto sa = h.launch(a, spec);
    const auto sb = h.launch(b, spec);
    h.simulator().run(h.simulator().now() + 30_s);

    const bool a_stored = h.depot(d).stored_bytes(sa.id).has_value();
    const bool b_stored = h.depot(d).stored_bytes(sb.id).has_value();
    ASSERT_NE(a_stored, b_stored);  // exactly one survivor per run
    EXPECT_EQ(h.depot(d).stats().sessions_evicted, 1u);
    survivors.push_back(a_stored ? 0 : 1);
  };

  mc::ExplorerOptions opts;
  opts.max_runs = 32;
  mc::Explorer explorer(scenario, opts);
  const mc::ExploreStats& stats = explorer.explore();
  EXPECT_EQ(stats.violation_runs, 0u);
  ASSERT_GE(survivors.size(), 2u);
  EXPECT_GT(std::count(survivors.begin(), survivors.end(), 0), 0)
      << "session A never survived: store order never flipped";
  EXPECT_GT(std::count(survivors.begin(), survivors.end(), 1), 0)
      << "session B never survived: store order never flipped";
}

}  // namespace
}  // namespace lsl
