// Causal span layer: well-formedness of the span stream under failover and
// planned handover, exact sum-to-wall time accounting (--explain), flight
// recorder bounds + post-mortem content, one storage path for bounded and
// unbounded recorders, and --jobs determinism of the merged stream.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "exp/harness.hpp"
#include "exp/parallel.hpp"
#include "exp/scenario.hpp"
#include "fault/injector.hpp"
#include "obs/explain.hpp"
#include "obs/span.hpp"
#include "util/units.hpp"

namespace lsl {
namespace {

using namespace lsl::time_literals;

// ---------------------------------------------------------------------------
// Fixtures

/// UCSB->UIUC style triangle with a depot crash mid-transfer: recovery
/// blacklists the dead depot and fails over to the direct path, producing a
/// multi-attempt failover chain. `crash_duration` zero = permanent crash;
/// `retries` bounds the recovery loop (0 keeps the default).
struct FailoverRun {
  exp::SimHarness::TransferOutcome outcome;
  std::uint64_t session = 0;
};

FailoverRun run_failover(obs::SpanRecorder& spans, std::uint64_t seed,
                         SimTime crash_at, SimTime crash_duration,
                         int retries = 0, bool cut_direct = false,
                         bool blackhole = false) {
  obs::ScopedSpanRecorder scope(&spans);
  exp::SimHarness harness(seed);
  const auto src = harness.add_host("ash.ucsb.edu", "ucsb.edu");
  const auto depot = harness.add_host("depot.denver", "core");
  const auto dst = harness.add_host("bell.uiuc.edu", "uiuc.edu");

  const auto wan = [](double delay_ms, double loss) {
    net::LinkConfig config;
    config.rate = Bandwidth::mbps(155);
    config.propagation_delay = SimTime::from_seconds(delay_ms * 1e-3);
    config.queue_capacity_bytes = mib(8);
    config.loss_rate = loss;
    return config;
  };
  harness.add_link(src, depot, wan(23.0, 1e-5));
  harness.add_link(depot, dst, wan(22.5, 1e-5));
  harness.add_link(src, dst, wan(35.0, 1e-5));

  session::DepotConfig config;
  config.tcp = config.tcp.with_buffers(mib(4));
  config.user_buffer_bytes = mib(8);
  harness.deploy(config);

  auto& topo = harness.topology();
  topo.node(src).set_route(dst, topo.link_between(src, dst));
  topo.node(dst).set_route(src, topo.link_between(dst, src));

  fault::FaultInjector injector(harness.simulator(), topo);
  injector.set_depot_control([&harness](net::NodeId node, bool up) {
    if (up) {
      harness.depot(node).restart();
    } else {
      harness.depot(node).shutdown();
    }
  });
  fault::FaultPlan plan;
  fault::FaultSpec crash;
  if (blackhole) {
    // Silent packet loss on the depot leg: the watchdog has to notice the
    // stall (no connection error arrives), so the failure path runs
    // through kStall -> backoff -> failover.
    crash.kind = fault::FaultKind::kLinkDown;
    crash.link_a = src;
    crash.link_b = depot;
  } else {
    crash.kind = fault::FaultKind::kDepotCrash;
    crash.node = depot;
  }
  crash.at = crash_at;
  crash.duration = crash_duration;
  plan.add(crash);
  if (cut_direct) {
    fault::FaultSpec down;
    down.kind = fault::FaultKind::kLinkDown;
    down.at = crash_at;
    down.link_a = src;
    down.link_b = dst;
    plan.add(down);  // permanent: the failover path dies too
  }
  injector.schedule(plan);

  session::TransferSpec spec;
  spec.dst = dst;
  spec.via.push_back(depot);
  spec.payload_bytes = mib(16);
  spec.tcp = tcp::TcpOptions{}.with_buffers(mib(4));

  session::RecoveryConfig recovery;
  recovery.stall_timeout = 2_s;
  recovery.max_backoff = 1_s;
  if (retries > 0) {
    recovery.max_retries = retries;
  }

  const auto handle = harness.launch_reliable(src, spec, recovery);
  FailoverRun run;
  run.outcome = harness.wait(handle, 600_s);
  run.session = session::SessionIdHash{}(handle.id);
  // Drain pending fault heals so transient fault windows close.
  if (crash_duration != SimTime::zero()) {
    harness.simulator().run(crash_at + crash_duration + 1_s);
  }
  return run;
}

/// Brownout + adaptive reroute scenario (the ablate_reroute shape): the
/// scheduled path's WAN hop throttles to 5% at t=2s and the RouteAdvisor
/// hands the live session over to depot.b, producing kHandover/kResume.
exp::Scenario reroute_scenario() {
  exp::Scenario s;
  s.hosts = {{"src", "site-a"},
             {"depot.a", "core-a"},
             {"depot.b", "core-b"},
             {"sink", "site-b"}};
  const auto link = [&s](const char* a, const char* b, double mbps,
                         double delay_ms) {
    exp::ScenarioLink l;
    l.a = a;
    l.b = b;
    l.config.rate = Bandwidth::mbps(mbps);
    l.config.propagation_delay = SimTime::from_seconds(delay_ms * 1e-3);
    l.config.queue_capacity_bytes = mib(4);
    l.config.loss_rate = 1e-5;
    s.links.push_back(std::move(l));
  };
  link("src", "depot.a", 100, 10);
  link("depot.a", "sink", 100, 10);
  link("src", "depot.b", 80, 12);
  link("depot.b", "sink", 80, 12);
  link("src", "sink", 20, 40);
  s.pins.push_back({"src", "sink"});
  s.depot.tcp = s.depot.tcp.with_buffers(mib(4));
  s.depot.user_buffer_bytes = mib(8);
  s.recovery = session::RecoveryConfig{};

  exp::ScenarioFault f;
  f.kind = fault::FaultKind::kLinkBrownout;
  f.a = "depot.a";
  f.b = "sink";
  f.at_s = 2.0;
  f.for_s = 120.0;
  f.loss = 0.0;
  f.rate_factor = 0.05;
  s.faults.push_back(std::move(f));

  exp::ScenarioReroute rr;
  rr.interval_s = 1.0;
  rr.hysteresis = 0.2;
  rr.dwell_s = 3.0;
  rr.penalty_s = 0.5;
  rr.sigma = 0.02;
  s.reroute = rr;

  exp::ScenarioTransfer t;
  t.src = "src";
  t.dst = "sink";
  t.via = {"depot.a"};
  t.bytes = mib(48);
  t.buffer_bytes = mib(4);
  s.transfers.push_back(std::move(t));
  return s;
}

// ---------------------------------------------------------------------------
// Well-formedness checks over an event stream

struct SpanIndex {
  std::map<std::uint64_t, obs::SpanEvent> begins;
  std::map<std::uint64_t, obs::SpanEvent> ends;  ///< keyed by span id
  std::vector<obs::SpanEvent> events;
};

SpanIndex index_spans(const std::vector<obs::SpanEvent>& events) {
  SpanIndex idx;
  idx.events = events;
  for (const auto& e : events) {
    if (e.phase == obs::SpanPhase::kBegin) {
      EXPECT_EQ(idx.begins.count(e.span_id), 0u)
          << "span id " << e.span_id << " begun twice";
      idx.begins[e.span_id] = e;
    } else if (e.phase == obs::SpanPhase::kEnd) {
      EXPECT_EQ(idx.ends.count(e.span_id), 0u)
          << "span id " << e.span_id << " ended twice";
      idx.ends[e.span_id] = e;
    }
  }
  return idx;
}

/// The invariants every complete span stream must satisfy: begins paired
/// with ends of the same kind/session, parents close at-or-after their
/// children, and parent/follows links resolve to spans that exist.
void expect_well_formed(const SpanIndex& idx) {
  for (const auto& [id, begin] : idx.begins) {
    const auto end = idx.ends.find(id);
    if (end == idx.ends.end() && begin.kind == obs::SpanKind::kFaultWindow) {
      // Fault windows may outlive the log: permanent faults never heal,
      // and transient ones can heal after the last transfer completes.
      continue;
    }
    ASSERT_NE(end, idx.ends.end())
        << obs::to_string(begin.kind) << " span " << id << " never ended";
    EXPECT_EQ(end->second.kind, begin.kind) << "span " << id;
    EXPECT_EQ(end->second.session, begin.session) << "span " << id;
    EXPECT_GE(end->second.ts, begin.ts) << "span " << id;
    if (begin.parent != 0) {
      const auto parent = idx.begins.find(begin.parent);
      ASSERT_NE(parent, idx.begins.end())
          << "span " << id << " parent " << begin.parent << " unknown";
      EXPECT_LE(parent->second.ts, begin.ts)
          << "child " << id << " began before parent " << begin.parent;
      const auto parent_end = idx.ends.find(begin.parent);
      ASSERT_NE(parent_end, idx.ends.end());
      EXPECT_GE(parent_end->second.ts, end->second.ts)
          << "parent " << begin.parent << " closed before child " << id;
    }
  }
  for (const auto& e : idx.events) {
    if (e.follows != 0) {
      EXPECT_EQ(idx.begins.count(e.follows), 1u)
          << "follows-from " << e.follows << " does not resolve";
    }
  }
}

std::vector<obs::SpanEvent> spans_of_kind(const SpanIndex& idx,
                                          obs::SpanKind kind,
                                          obs::SpanPhase phase) {
  std::vector<obs::SpanEvent> out;
  for (const auto& e : idx.events) {
    if (e.kind == kind && e.phase == phase) {
      out.push_back(e);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Failover chain

TEST(SpanTest, FailoverStreamIsWellFormed) {
  obs::SpanRecorder spans(0);
  const auto run = run_failover(spans, 42, 1_s, 3_s, /*retries=*/0,
                                /*cut_direct=*/false, /*blackhole=*/true);
  ASSERT_TRUE(run.outcome.completed);
  ASSERT_GE(run.outcome.retries, 1);

  const auto idx = index_spans(spans.snapshot());
  expect_well_formed(idx);

  // The transfer span exists, is parented by the harness session span, and
  // completed.
  const auto transfers =
      spans_of_kind(idx, obs::SpanKind::kTransfer, obs::SpanPhase::kBegin);
  ASSERT_EQ(transfers.size(), 1u);
  EXPECT_EQ(transfers[0].session, run.session);
  ASSERT_NE(transfers[0].parent, 0u);
  EXPECT_EQ(idx.begins.at(transfers[0].parent).kind, obs::SpanKind::kSession);
  EXPECT_STREQ(idx.ends.at(transfers[0].span_id).reason, "completed");

  // The failover chain: at least two attempts, each after the first
  // follows-from an earlier attempt of the same transfer.
  const auto attempts =
      spans_of_kind(idx, obs::SpanKind::kAttempt, obs::SpanPhase::kBegin);
  ASSERT_GE(attempts.size(), 2u);
  for (std::size_t i = 0; i < attempts.size(); ++i) {
    EXPECT_EQ(attempts[i].parent, transfers[0].span_id);
    if (i == 0) {
      EXPECT_EQ(attempts[i].follows, 0u);
    } else {
      ASSERT_NE(attempts[i].follows, 0u);
      EXPECT_EQ(idx.begins.at(attempts[i].follows).kind,
                obs::SpanKind::kAttempt);
    }
  }

  // The injected crash shows up as a fault window, and the crash made the
  // recovery loop wait: stall + backoff evidence in the stream.
  EXPECT_FALSE(
      spans_of_kind(idx, obs::SpanKind::kFaultWindow, obs::SpanPhase::kBegin)
          .empty());
  EXPECT_FALSE(
      spans_of_kind(idx, obs::SpanKind::kBackoff, obs::SpanPhase::kBegin)
          .empty());
  EXPECT_FALSE(
      spans_of_kind(idx, obs::SpanKind::kStall, obs::SpanPhase::kComplete)
          .empty());
}

TEST(SpanTest, ExplainCategoriesSumToWallExactly) {
  obs::SpanRecorder spans(0);
  const auto run = run_failover(spans, 7, 1_s, 3_s, /*retries=*/0,
                                /*cut_direct=*/false, /*blackhole=*/true);
  ASSERT_TRUE(run.outcome.completed);

  const auto breakdowns = obs::account_spans(spans.snapshot());
  ASSERT_EQ(breakdowns.size(), 1u);
  const auto& b = breakdowns[0];
  EXPECT_EQ(b.session, run.session);
  EXPECT_TRUE(b.completed);
  EXPECT_GE(b.attempts, 2);
  // The invariant --explain rests on: categories sum to wall time exactly
  // (integer nanoseconds, not approximately).
  EXPECT_EQ(b.categorized(), b.wall());
  EXPECT_GT(b.wall(), SimTime::zero());
  // A depot crash mid-transfer cannot be all stream time.
  EXPECT_GT(b.stall + b.backoff + b.connect + b.probe, SimTime::zero());
  EXPECT_GT(b.stream, SimTime::zero());

  // Rendering is total: every transfer block prints, the filter selects.
  const std::string all = obs::render_breakdowns(breakdowns);
  EXPECT_NE(all.find("completed"), std::string::npos);
  EXPECT_NE(all.find("stall"), std::string::npos);
  const std::string none = obs::render_breakdowns(breakdowns, ~b.session);
  EXPECT_NE(none.find("no transfers recorded"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Planned handover (adaptive reroute)

TEST(SpanTest, HandoverFollowsFromResolvesAcrossReroute) {
  obs::SpanRecorder spans(0);
  obs::ScopedSpanRecorder scope(&spans);
  const auto outcomes = exp::run_scenario(reroute_scenario(), 5013, 600_s);
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].outcome.completed);
  ASSERT_GE(outcomes[0].outcome.reroutes, 1);

  const auto idx = index_spans(spans.snapshot());
  expect_well_formed(idx);

  const auto handovers =
      spans_of_kind(idx, obs::SpanKind::kHandover, obs::SpanPhase::kBegin);
  ASSERT_GE(handovers.size(), 1u);
  EXPECT_STREQ(idx.ends.at(handovers[0].span_id).reason, "spliced");

  // The splice point: a kResume instant inside the handover span whose
  // follows-from link walks back to the drained attempt.
  bool found_resume = false;
  for (const auto& e : idx.events) {
    if (e.kind == obs::SpanKind::kResume && e.parent == handovers[0].span_id) {
      found_resume = true;
      EXPECT_STREQ(e.reason, "handover");
      ASSERT_NE(e.follows, 0u);
      EXPECT_EQ(idx.begins.at(e.follows).kind, obs::SpanKind::kAttempt);
      EXPECT_GT(e.value, 0.0);  // sink-committed offset
    }
  }
  EXPECT_TRUE(found_resume);

  // The advisor's verdicts are in the stream, and the one that triggered
  // the handover says so.
  bool saw_reroute_verdict = false;
  for (const auto& e : idx.events) {
    if (e.kind == obs::SpanKind::kRouteDecision) {
      EXPECT_EQ(e.phase, obs::SpanPhase::kInstant);
      saw_reroute_verdict |= std::strcmp(e.reason, "reroute") == 0;
    }
  }
  EXPECT_TRUE(saw_reroute_verdict);

  // Handover drain time is charged to the handover bucket.
  const auto breakdowns = obs::account_spans(spans.snapshot());
  ASSERT_EQ(breakdowns.size(), 1u);
  EXPECT_EQ(breakdowns[0].categorized(), breakdowns[0].wall());
  EXPECT_GE(breakdowns[0].handovers, 1);
  EXPECT_GT(breakdowns[0].handover, SimTime::zero());
}

// ---------------------------------------------------------------------------
// Flight recorder

TEST(SpanTest, FlightRecorderBoundsMemoryAndDumpsFailoverChain) {
  // Bounded ring, forced failure: the depot dies for good, the direct
  // fallback is cut too, and retries are capped -- the transfer must fail
  // and the ring must still hold the tail of the failover chain.
  obs::SpanRecorder spans(24);
  const auto run = run_failover(spans, 11, 500_ms, SimTime::zero(),
                                /*retries=*/2, /*cut_direct=*/true);
  ASSERT_FALSE(run.outcome.completed);
  ASSERT_TRUE(run.outcome.failed);

  EXPECT_TRUE(spans.bounded());
  EXPECT_EQ(spans.per_session_capacity(), 24u);
  // Per-session ring + global ring, each capped.
  EXPECT_LE(spans.size(), 24u * (spans.sessions().size() + 1));
  EXPECT_GT(spans.total_recorded(), 0u);

  const std::string dump = spans.post_mortem(run.session);
  EXPECT_NE(dump.find("attempt"), std::string::npos) << dump;
  EXPECT_NE(dump.find("transfer"), std::string::npos) << dump;
  EXPECT_NE(dump.find("failed"), std::string::npos) << dump;
}

TEST(SpanTest, SessionEventsIncludeGlobalContext) {
  obs::SpanRecorder spans(0);
  const auto run = run_failover(spans, 3, 1_s, 3_s);
  ASSERT_TRUE(run.outcome.completed);
  const auto events = spans.session_events(run.session);
  ASSERT_FALSE(events.empty());
  bool saw_fault = false;
  for (const auto& e : events) {
    EXPECT_TRUE(e.session == run.session || e.session == 0);
    saw_fault |= e.kind == obs::SpanKind::kFaultWindow;
  }
  // Fault windows are session-less context events; session_events must
  // interleave them so the post-mortem shows what was broken at the time.
  EXPECT_TRUE(saw_fault);
}

// ---------------------------------------------------------------------------
// --jobs determinism

void expect_same_events(const std::vector<obs::SpanEvent>& a,
                        const std::vector<obs::SpanEvent>& b,
                        const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ts, b[i].ts) << label << " event " << i;
    EXPECT_EQ(a[i].dur, b[i].dur) << label << " event " << i;
    EXPECT_EQ(a[i].span_id, b[i].span_id) << label << " event " << i;
    EXPECT_EQ(a[i].parent, b[i].parent) << label << " event " << i;
    EXPECT_EQ(a[i].follows, b[i].follows) << label << " event " << i;
    EXPECT_EQ(a[i].session, b[i].session) << label << " event " << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << label << " event " << i;
    EXPECT_EQ(a[i].phase, b[i].phase) << label << " event " << i;
    EXPECT_STREQ(a[i].reason, b[i].reason) << label << " event " << i;
    EXPECT_EQ(a[i].value, b[i].value) << label << " event " << i;
  }
}

TEST(SpanTest, UnboundedLogEqualsUnfilledFlightRings) {
  // Capacity 0 (rings never evict) and rings too large to fill hold the
  // same stream: both modes share one storage path.
  obs::SpanRecorder unbounded(0);
  obs::SpanRecorder rings(1 << 20);
  const auto a = run_failover(unbounded, 3, 1_s, 3_s);
  const auto b = run_failover(rings, 3, 1_s, 3_s);
  ASSERT_TRUE(a.outcome.completed);
  ASSERT_EQ(a.session, b.session);
  EXPECT_EQ(rings.dropped(), 0u);
  EXPECT_EQ(unbounded.size(), rings.size());

  expect_same_events(unbounded.snapshot(), rings.snapshot(), "snapshot");
  ASSERT_EQ(unbounded.sessions(), rings.sessions());
  ASSERT_FALSE(unbounded.sessions().empty());
  for (const std::uint64_t session : unbounded.sessions()) {
    expect_same_events(unbounded.session_events(session),
                       rings.session_events(session), "session_events");
    // Only the header's mode tag differs.
    std::string flight = rings.post_mortem(session);
    const std::size_t tag = flight.find(", flight ring");
    ASSERT_NE(tag, std::string::npos) << flight;
    flight.erase(tag, std::strlen(", flight ring"));
    EXPECT_EQ(unbounded.post_mortem(session), flight);
  }
  EXPECT_EQ(unbounded.to_json(), rings.to_json());
}

TEST(SpanTest, MergedStreamAndExplainAreIdenticalForAnyJobs) {
  constexpr std::size_t kTrials = 6;
  const auto run_sweep = [&](std::size_t jobs, obs::SpanRecorder& parent) {
    obs::set_spans(&parent);
    exp::TrialOptions options;
    options.jobs = jobs;
    exp::for_each_trial(kTrials, options, [](std::size_t trial) {
      exp::SimHarness harness(1000 + trial);
      const auto a = harness.add_host("a");
      const auto b = harness.add_host("b");
      net::LinkConfig link;
      link.rate = Bandwidth::mbps(100);
      link.propagation_delay = 5_ms;
      link.queue_capacity_bytes = mib(1);
      harness.add_link(a, b, link);
      harness.deploy(session::DepotConfig{});
      session::TransferSpec spec;
      spec.dst = b;
      spec.payload_bytes = mib(1) + 4096 * trial;
      (void)harness.launch_reliable(a, spec);
      harness.wait_all(60_s);
    });
    obs::set_spans(nullptr);
  };

  obs::SpanRecorder serial(0);
  run_sweep(1, serial);
  const auto serial_events = serial.snapshot();
  ASSERT_FALSE(serial_events.empty());
  const std::string serial_explain =
      obs::render_breakdowns(obs::account_spans(serial_events));

  for (const std::size_t jobs : {std::size_t{2}, std::size_t{8}}) {
    obs::SpanRecorder parallel(0);
    run_sweep(jobs, parallel);
    expect_same_events(serial_events, parallel.snapshot(),
                       "jobs=" + std::to_string(jobs));
    EXPECT_EQ(serial_explain,
              obs::render_breakdowns(obs::account_spans(parallel.snapshot())))
        << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace lsl
